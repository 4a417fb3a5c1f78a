from __future__ import annotations

from math import gcd

import pytest

from fano2ray.catalog import family
from fano2ray.singular import (
    NotTerminal,
    Stratum,
    UnresolvedTangent,
    Vertex,
    blowup_weights,
    locate,
    normalize_terminal,
    singular_locus,
)


def assert_normal_form(r, weights, m, per_var):
    # defining property: m*w mod r hits a unit and a complementary pair
    values = tuple((m * w) % r for w in weights)
    assert values == per_var
    assert 1 in values
    unit = values.index(1)
    others = [values[i] for i in range(3) if i != unit]
    assert sum(others) == r
    # minimality: no smaller unit multiplier achieves the form
    for smaller in range(1, m):
        if gcd(smaller, r) != 1:
            continue
        v = tuple((smaller * w) % r for w in weights)
        ok = any(v[i] == 1 and sum(v[j] for j in range(3) if j != i) == r for i in range(3))
        assert not ok


@pytest.mark.parametrize(
    "r,weights,m,per_var",
    [
        (5, (1, 2, 4), 3, (3, 1, 2)),
        (5, (3, 2, 3), 2, (1, 4, 1)),
        (8, (1, 3, 7), 3, (3, 1, 5)),
        (11, (2, 3, 8), 6, (1, 7, 4)),
        (7, (2, 3, 4), 4, (1, 5, 2)),
    ],
)
def test_normalize_terminal_examples(r, weights, m, per_var):
    sing = normalize_terminal(r, weights)
    assert sing.multiplier == m
    assert sing.per_variable_form == per_var
    assert_normal_form(r, weights, m, per_var)


def test_normalize_terminal_kawamata_form_field():
    sing = normalize_terminal(5, (3, 2, 3))
    assert sing.kawamata_form == (1, 4, 1)
    assert sum(sing.kawamata_form[1:]) == 5


def test_normalize_terminal_inverse_multiplier_roundtrip():
    sing = normalize_terminal(8, (1, 3, 7))
    m = sing.multiplier
    inv = pow(m, -1, 8)
    recovered = tuple((inv * v) % 8 for v in sing.per_variable_form)
    assert recovered == tuple(w for _, w in sing.local_weights)


def test_normalize_terminal_rejects_non_terminal():
    with pytest.raises(NotTerminal):
        normalize_terminal(5, (1, 1, 1))
    with pytest.raises(NotTerminal):
        normalize_terminal(4, (2, 1, 1))  # shared factor with r


def test_singular_locus_110():
    entries = singular_locus(family(110))
    by_label = {e.site.label: e for e in entries}
    assert set(by_label) == {"p2", "p4"}
    p4 = by_label["p4"]
    assert p4.site == Vertex(4)
    assert p4.r == 8
    assert [(f"x{t}") for _, t in p4.tangent_candidates] == ["x2"]
    key = p4.tangent_candidates[0][0]
    assert key == (0, 0, 1, 0, 2)  # x4^2*x2
    assert dict(p4.singularity.local_weights) == {0: 1, 1: 3, 3: 7}
    p2 = by_label["p2"]
    assert p2.r == 5
    assert dict(p2.singularity.local_weights) == {1: 3, 3: 2, 4: 3}
    assert p2.singularity.per_variable_form == (1, 4, 1)
    assert p2.tangent_candidates[0] == ((1, 0, 4, 0, 0), 0)  # x2^4*x0, tangent x0


def test_singular_locus_100_stratum():
    entries = singular_locus(family(100))
    stratum = locate(family(100), "p2p4")
    assert stratum.site == Stratum(2, 4)
    assert stratum.count == 2
    assert stratum.r == 3
    assert dict(stratum.singularity.local_weights) == {0: 1, 1: 2, 3: 2}
    assert stratum.center == 2
    assert stratum.tangent_candidates == (((0, 0, 3, 0, 1), 4),)
    assert len(entries) == 2


def test_stratum_restricted_support_100():
    # the support restricted to the (x2,x4) stratum is x2^6, x2^3*x4, x4^2,
    # a lattice segment of length two
    rec = family(100)
    restricted = {
        m for m in rec.support() if all(e == 0 for i, e in enumerate(m) if i not in (2, 4))
    }
    assert restricted == {(0, 0, 6, 0, 0), (0, 0, 3, 0, 1), (0, 0, 0, 0, 2)}
    assert gcd(6 - 0, 0 - 2) == 2 == locate(rec, "p2p4").count


def test_singular_locus_103_three_tangents():
    entry = locate(family(103), "p1")
    assert [t for _, t in entry.tangent_candidates] == [0, 2, 3]
    keys = {t: k for k, t in entry.tangent_candidates}
    assert keys[0] == (1, 12, 0, 0, 0)
    assert keys[2] == (0, 11, 1, 0, 0)
    assert keys[3] == (0, 9, 0, 1, 0)


def test_singular_locus_smooth_family():
    assert singular_locus(family(96)) == ()
    assert singular_locus(family(104)) == ()


def test_blowup_weights_100_p3():
    rec = family(100)
    blow = blowup_weights(rec, locate(rec, "p3"), "x2")
    assert blow.b == (3, 1, 4, 0, 2)
    assert blow.r == 5
    assert blow.multiplier == 3
    # tangent weight agrees with the congruence value 3*3 mod 5 and with the
    # doubled weight of x4 (the monomial x4^2 realizes the minimum)
    assert blow.b[2] == (3 * 3) % 5 == 2 * blow.b[4]


def test_blowup_weights_110():
    rec = family(110)
    p4 = blowup_weights(rec, locate(rec, "p4"), "x2")
    assert p4.b == (3, 1, 7, 5, 0)
    assert p4.r == 8
    p2 = blowup_weights(rec, locate(rec, "p2"), "x0")
    assert p2.b == (2, 1, 0, 4, 1)
    assert p2.r == 5


def brute_tangent_weight(rec, center, tangent, b):
    # naive re-derivation: minimal cost over support monomials avoiding the
    # tangent, after dropping pure center powers and other key monomials
    best = None
    for mono in rec.support():
        if mono[tangent] != 0:
            continue
        nonzero = [i for i, e in enumerate(mono) if e > 0]
        if nonzero == [center]:
            continue
        if len(nonzero) == 2 and center in nonzero:
            other = [i for i in nonzero if i != center][0]
            if mono[other] == 1:
                continue
        cost = sum(e * b.get(i, 0) for i, e in enumerate(mono))
        best = cost if best is None else min(best, cost)
    return best


@pytest.mark.parametrize(
    "fid,point,tangent",
    [
        (100, "p3", 2),
        (101, "p3", 0),
        (102, "p3", 2),
        (103, "p3", 2),
        (110, "p4", 2),
        (110, "p2", 0),
        (103, "p1", 0),
        (103, "p1", 2),
        (103, "p1", 3),
    ],
)
def test_tangent_weight_against_brute_force(fid, point, tangent):
    rec = family(fid)
    entry = locate(rec, point)
    blow = blowup_weights(rec, entry, tangent)
    b = {i: v for i, v in enumerate(blow.b) if i != tangent}
    assert blow.b[tangent] == brute_tangent_weight(rec, entry.center, tangent, b)
    assert blow.b[entry.center] == 0
    # congruence invariant for every weight
    for i, v in enumerate(blow.b):
        if i == entry.center:
            continue
        assert (v - blow.multiplier * rec.weights[i]) % blow.r == 0
        if i != tangent:
            assert 1 <= v <= blow.r - 1


def test_blowup_rejects_bad_tangent():
    rec = family(100)
    with pytest.raises(UnresolvedTangent):
        blowup_weights(rec, locate(rec, "p3"), "x1")


def test_blowup_weights_103_cube_point_all_games():
    # tangent weight is 4 in each of the three games, the others stay at the
    # congruence values x0:1, x2:1, x3:1, x4:2
    rec = family(103)
    entry = locate(rec, "p1")
    congruence = {0: 1, 2: 1, 3: 1, 4: 2}
    for tangent in (0, 2, 3):
        blow = blowup_weights(rec, entry, tangent)
        b = blow.b
        assert b[tangent] == 4
        for i, v in congruence.items():
            if i != tangent:
                assert b[i] == v
