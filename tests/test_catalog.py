from __future__ import annotations

import operator
import random
import re
import shutil
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import fano2ray
from fano2ray import catalog
from fano2ray.catalog import (
    CatalogError,
    anticanonical_cube,
    family,
    fano_index,
    load_catalog,
    monomial_support,
    parse_ambient_monomial,
    weighted_degree,
    well_form_weights,
)
from fano2ray.cli import main
from fano2ray.singular import NotTerminal, UnresolvedTangent, singular_locus

from expected import SOLID_CANDIDATES


def coin_change_count(weights, degree):
    # number of exponent vectors of the given weighted degree, by the
    # coin-change recurrence over the variables in order
    if degree < 0:
        return 0
    ways = [1] + [0] * degree
    for w in weights:
        for total in range(w, degree + 1):
            ways[total] += ways[total - w]
    return ways[degree]


def reference_support(weights, degree):
    # the previous enumeration: every exponent but one of least weight,
    # filtered by divisibility, each vector permuted back into position
    if not weights:
        return frozenset({()}) if degree == 0 else frozenset()
    if degree < 0:
        return frozenset()
    n = len(weights)
    light = min(range(n), key=weights.__getitem__)
    rest = sorted((i for i in range(n) if i != light), key=weights.__getitem__, reverse=True)
    least = weights[light]
    inverse = sorted(range(n), key=(*rest, light).__getitem__)
    positional = operator.itemgetter(*inverse) if n > 1 else tuple
    partial = [(degree, ())]
    for i in rest:
        w = weights[i]
        partial = [(r - e * w, exps + (e,)) for r, exps in partial for e in range(r // w + 1)]
    return frozenset(positional(exps + (r // least,)) for r, exps in partial if r % least == 0)


def brute_support(weights, degree):
    # independent enumeration with explicit nested ranges
    out = set()
    w0, w1, w2, w3, w4 = weights
    for e0 in range(degree // w0 + 1):
        for e1 in range((degree - e0 * w0) // w1 + 1):
            for e2 in range((degree - e0 * w0 - e1 * w1) // w2 + 1):
                for e3 in range((degree - e0 * w0 - e1 * w1 - e2 * w2) // w3 + 1):
                    rest = degree - e0 * w0 - e1 * w1 - e2 * w2 - e3 * w3
                    if rest % w4 == 0:
                        out.add((e0, e1, e2, e3, rest // w4))
    return out


def test_load_catalog_shape():
    records = load_catalog()
    assert len(records) == 35
    assert [r.id for r in records] == list(range(96, 131))


def test_table_rows():
    r100 = family(100)
    assert r100.weights == (1, 2, 3, 5, 9)
    assert r100.degree == 18
    assert r100.index == 2
    assert r100.rational is False
    r130 = family(130)
    assert r130.weights == (3, 4, 5, 6, 7)
    assert r130.degree == 12
    assert r130.index == 13
    assert r130.rational is True


def test_fano_index_examples():
    assert fano_index((1, 2, 3, 5, 9), 18) == 2
    assert fano_index((1, 1, 1, 1, 1), 2) == 3
    assert fano_index((3, 4, 5, 6, 7), 12) == 13


def test_fano_index_validation():
    with pytest.raises(ValueError):
        fano_index((1, 2, 3), 4)
    with pytest.raises(ValueError):
        fano_index((1, 1, 1, 1, 1), 0)


def test_fano_index_rejects_non_integers():
    # the index came back as 2.5 and 3.5 for these
    with pytest.raises(TypeError):
        fano_index((1, 1, 1, 1, 1), 2.5)
    with pytest.raises(TypeError):
        fano_index((1, 1, 1, 1.5, 1), 2)
    with pytest.raises(TypeError):
        fano_index((1, 1, 1, "1", 1), 2)
    with pytest.raises(ValueError):
        fano_index((1, 1, 0, 1, 1), 2)
    with pytest.raises(ValueError):
        fano_index((1, 1, -1, 1, 1), 2)


def test_stored_index_matches_recomputation():
    for r in load_catalog():
        assert fano_index(r.weights, r.degree) == r.index
        assert r.index >= 2


def test_anticanonical_cube_examples():
    # oracle: direct exact evaluation from the table data
    for fid, expected in ((100, Fraction(8, 15)), (110, Fraction(27, 40)), (96, Fraction(24))):
        r = family(fid)
        oracle = Fraction(r.index**3 * r.degree, prod(r.weights))
        assert oracle == expected
        assert anticanonical_cube(r) == expected


def test_cube_below_one_exactly_for_solid_candidates():
    small = {r.id for r in load_catalog() if anticanonical_cube(r) < 1}
    assert small == set(SOLID_CANDIDATES)


def test_monomial_support_counts_and_members():
    assert len(monomial_support((1, 1, 1, 1, 1), 2)) == 15
    sup = monomial_support((1, 2, 3, 5, 9), 18)
    assert (0, 0, 1, 3, 0) in sup  # x2*x3^3
    assert (0, 0, 0, 0, 2) in sup  # x4^2
    assert monomial_support((1, 2, 3, 5, 9), 1) == frozenset({(1, 0, 0, 0, 0)})
    assert monomial_support((1, 2, 3, 5, 9), -1) == frozenset()


@pytest.mark.parametrize("fid", range(96, 131))
def test_monomial_support_against_brute_force(fid):
    r = family(fid)
    assert set(monomial_support(r.weights, r.degree)) == brute_support(r.weights, r.degree)


@given(
    st.lists(st.integers(min_value=1, max_value=12), max_size=6),
    st.integers(min_value=-2, max_value=60),
)
@example([], 0)
@example([], 3)
@example([4], 8)
@example([3, 1, 2, 1], 9)  # the least weight is tied and not first
@example([5, 7, 2, 9, 2, 3], 41)
@example([6, 4], 11)  # gcd 2 of the two lightest does not divide the degree
@example([3, 3, 5], 11)  # the two lightest weights are tied
@example([5, 1, 3, 2], 13)  # unsorted, so vectors are permuted into position
@example([4, 6], 10)  # two weights, no heavy exponent
@example([9, 4, 6, 1, 3], 30)  # five weights, unsorted
@example([2, 2, 3, 3, 5], 17)  # five weights, tied in pairs
@example([4, 6, 9, 10, 15], 41)  # gcd 2 of the two lightest misses odd residuals
@example([3, 1, 4, 1, 5], 0)  # five weights, degree 0: only the constant
@example([5, 7, 6, 8, 9], 4)  # five weights, degree below the least weight
def test_monomial_support_matches_coin_change_count(weights, degree):
    count = coin_change_count(weights, degree)
    assume(count <= 3000)
    sup = monomial_support(weights, degree)
    for mono in sup:
        assert len(mono) == len(weights)
        assert all(e >= 0 for e in mono)
        assert weighted_degree(weights, mono) == degree
    # a frozenset holds no duplicates; so compare its size with the count
    assert len(sup) == count


def test_monomial_support_matches_reference_on_seeded_candidates():
    # every shape: 0-6 weights, unsorted and tied, negative to large degrees,
    # plus five-weight candidates of Fano index 2..20, sorted and then unsorted
    rng = random.Random(20)
    candidates = [
        (tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 6))), rng.randint(-2, 40))
        for _ in range(2000)
    ]
    while len(candidates) < 3000:
        weights = tuple(sorted(rng.randint(1, 20) for _ in range(5)))
        candidates.append((weights, sum(weights) - rng.randint(2, 20)))
    while len(candidates) < 3500:
        weights = tuple(rng.randint(1, 20) for _ in range(5))
        candidates.append((weights, sum(weights) - rng.randint(2, 20)))
    for weights, degree in candidates:
        assert monomial_support(weights, degree) == reference_support(weights, degree)


def test_monomial_support_rejects_non_integers():
    # int() used to truncate: P(1,2.5) got the support of P(1,2), and
    # degree 4.9 the degree-4 support
    with pytest.raises(TypeError):
        monomial_support((1, 2.5), 5)
    with pytest.raises(TypeError):
        monomial_support((1, 2), 4.9)
    with pytest.raises(TypeError):
        monomial_support((1, "2"), 4)
    with pytest.raises(ValueError):
        monomial_support((1, 0), 4)
    with pytest.raises(ValueError):
        monomial_support((-1, 2), 4)


def test_family_rejects_non_integer_ids():
    # 100.0 used to pass the range check and fail as a tuple index
    with pytest.raises(TypeError, match="family id must be an integer, got 100.0"):
        family(100.0)
    with pytest.raises(TypeError, match="family id must be an integer"):
        family("100")
    with pytest.raises(KeyError):
        family(131)
    assert family(100).id == 100


def test_family_support_cache_is_filled_at_load():
    # an uncached load validates fresh records, which reads every family support
    catalog._family_support.cache_clear()
    records = catalog._load_catalog.__wrapped__(catalog._data_dir())
    info = catalog._family_support.cache_info()
    assert (info.currsize, info.misses, info.hits) == (35, 35, 0)
    for rec in records:
        assert rec.support() is rec.support()
        assert rec.support() == monomial_support(rec.weights, rec.degree)
    info = catalog._family_support.cache_info()
    assert (info.currsize, info.misses, info.hits) == (35, 35, 3 * 35)


def test_candidate_supports_bypass_the_family_cache():
    # the scan workload's traffic: a candidate's support is built, read once
    # and dropped, and its singular locus reads no family support
    rng = random.Random(17)
    load_catalog()
    before = catalog._family_support.cache_info()
    for _ in range(1000):
        weights = tuple(sorted(rng.randint(1, 20) for _ in range(5)))
        degree = sum(weights) - rng.randint(2, 20)
        if degree < 1:
            continue
        monomial_support(weights, degree)
        record = catalog.FamilyRecord(
            id=0,
            weights=weights,
            degree=degree,
            rational=False,
            expected=catalog.FamilyExpectations(),
        )
        try:
            singular_locus(record)
        except (NotTerminal, UnresolvedTangent):
            pass
    assert catalog._family_support.cache_info() == before


def test_family_support_cache_is_bounded():
    bound = catalog._family_support.cache_info().maxsize
    assert bound is not None
    catalog._family_support.cache_clear()
    for weight in range(1, 2 * bound + 1):
        record = catalog.FamilyRecord(
            id=0,
            weights=(1, 2, 3, 5, weight + 1),
            degree=1,
            rational=False,
            expected=catalog.FamilyExpectations(),
        )
        assert record.support() == {(1, 0, 0, 0, 0)}
    assert catalog._family_support.cache_info().currsize <= bound


def test_well_form_weights_examples():
    assert well_form_weights((1, 3, 5, 1, 1)) == (1, 1, 1, 3, 5)
    assert well_form_weights((7, 21, 7, 14, 7)) == (1, 1, 1, 2, 3)
    assert well_form_weights((2, 4, 6)) == (1, 2, 3)


def test_well_form_weights_rejects_non_integers():
    # int() used to truncate 4.7 to 4 and to accept strings
    with pytest.raises(TypeError):
        well_form_weights((2, 4.7, 6))
    with pytest.raises(TypeError):
        well_form_weights(("2", "4", "6"))


@pytest.mark.parametrize(
    "line, message",
    [
        ("110 1,3,5,7,8 21", "expected 5 columns, got 3"),
        ("110 1,3,5,7,8 21 no 15 1", "expected 5 columns, got 6"),
        ("110 1,3,5,7,8 21 maybe 15", "'maybe'"),
        ("110 1,3,5,7,8 21 no fifteen", "'fifteen'"),
        ("110 1,3,5,7,8 21 no 0", "h must be a positive integer or -, got '0'"),
        ("110 1,3,5,7 21 no 15", "expected 5 ambient weights, got 4"),
        ("110 0,3,5,7,8 21 no 15", "weights must be positive"),
        # int() reads a sign, underscores and non-ASCII digits
        ("110 +1,3,5,7,8 21 no 15", "not an integer: '+1'"),
        ("110 1,3,5,7,8 2_1 no 15", "not an integer: '2_1'"),
        ("110 1,3,5,7,8 21 no \u0661\u0665", "not an integer: '\u0661\u0665'"),
    ],
)
def test_unreadable_family_line_names_file_and_line(
    tmp_path, monkeypatch, capsys, line, message
):
    data = tmp_path / "data"
    shutil.copytree(Path(fano2ray.__file__).parent / "data", data)
    path = data / "families.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    number = next(n for n, text in enumerate(lines, 1) if text.startswith("110 "))
    lines[number - 1] = line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setenv("FANO2RAY_DATA", str(data))

    where = f"{path}, line {number}: "
    with pytest.raises(CatalogError, match=re.escape(where) + ".*" + re.escape(message)):
        load_catalog()
    assert main(["catalog"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and message in err


@pytest.mark.parametrize(
    "name, row, edited, message",
    [
        (
            "exclusions.txt",
            "100 p2p4 x4 2",
            "100 p2p4 y4 2",
            "tangent must be one of x0..x4, got 'y4'",
        ),
        (
            "link_targets.txt",
            "110 p4 3,2,5 cE7 1,1,1,2,3 7 hypersurface",
            "110 p4 3,2,5 cE7 1,1,1,2,3 7 hypersurfce",
            "construction must be hypersurface or unprojection: 'hypersurfce'",
        ),
        (
            "link_targets.txt",
            "100 p3 3,1,2 cE6",
            "100 p3 3,1 cE6",
            "expected 3 integers, got '3,1'",
        ),
        (
            "exclusions.txt",
            "103 p1 x3 1 1,1,1 ",
            "103 p1 x3 1 1,1 ",
            "expected 3 integers, got '1,1'",
        ),
        (
            "reference_matrices.txt",
            "100 p3 wellformed ",
            "100 p3 wellformd ",
            "stage must be one of raw, wellformed, unprojected, wellformed_unprojected: "
            "'wellformd'",
        ),
        (
            "reference_matrices.txt",
            "100 p3 raw u,y3,y4,y2,y1,y0 0,5,9,3,2,1 ",
            "100 p3 raw u,y3,y4,y2,y1,y0 0,5,9,3,2 ",
            "expected 6 integers, got '0,5,9,3,2'",
        ),
        (
            "link_targets.txt",
            "110 p4 3,2,5 ",
            "110 p4 +3,2,5 ",
            "not an integer: '+3'",
        ),
        (
            "reference_matrices.txt",
            "100 p3 raw u,y3,y4,y2,y1,y0 0,5,9,3,2,1 ",
            "100 p3 raw u,y3,y4,y2,y1,y0 0,5,9,3,2,1_0 ",
            "not an integer: '1_0'",
        ),
        (
            "exclusions.txt",
            "100 p2p4 x4 2 ",
            "100 p2p4 x4 \u0662 ",
            "not an integer: '\u0662'",
        ),
        (
            "exclusions.txt",
            "100 p2p4 x4 2 1,2,2 x4^2+x4*x2^2 ",
            "100 p2p4 x4 2 1,2,2 x4^2+x4*y2^2 ",
            "bad monomial factor 'y2^2' in 'x4*y2^2'",
        ),
        (
            "exclusions.txt",
            "100 p2p4 x4 2 1,2,2 x4^2+x4*x2^2 ",
            "100 p2p4 x4 2 1,2,2 x4^2+x4*x2^\u0662 ",
            "bad monomial factor 'x2^\u0662' in 'x4*x2^\u0662'",
        ),
        (
            "exclusions.txt",
            "102 p2 x0 1 2,2,3 x2^5*x0 -5u,0y2,1y3,4y4,8y(21),1y1,3y0 = bad_link",
            "102 p2 x0 1 2,2,3 x2^5*x0 -5u,0y2,1y3,4y4,8y(21),1y1,3y0 = bad_lnk",
            "verdict must be bad_link or no_link, got 'bad_lnk'",
        ),
        # a row of a family missing from families.txt used to be dropped
        (
            "link_targets.txt",
            "110 p4 3,2,5 ",
            "1100 p4 3,2,5 ",
            "no family 1100 in families.txt",
        ),
        (
            "exclusions.txt",
            "103 p2 x1 ",
            "1003 p2 x1 ",
            "no family 1003 in families.txt",
        ),
        (
            "reference_matrices.txt",
            "100 p3 wellformed ",
            "1000 p3 wellformed ",
            "no family 1000 in families.txt",
        ),
    ],
    ids=[
        "tangent",
        "construction",
        "kawamata-type",
        "local-type",
        "stage",
        "matrix-row",
        "signed-integer",
        "underscored-integer",
        "non-ascii-integer",
        "key-variable",
        "key-exponent",
        "verdict",
        "link-family",
        "exclusion-family",
        "matrix-family",
    ],
)
def test_bad_expectation_value_names_file_and_line(
    tmp_path, monkeypatch, capsys, name, row, edited, message
):
    # a tangent outside x0..x4 used to replay another game, a misspelled
    # construction passed as a hypersurface link, a short type passed as a
    # deviation, a misspelled stage failed the replay without a line, a
    # short matrix row was truncated to fewer columns, a signed, underscored
    # or non-ASCII integer was read by int(), and a malformed key or a
    # misspelled verdict failed only the replay
    data = tmp_path / "data"
    shutil.copytree(Path(fano2ray.__file__).parent / "data", data)
    path = data / name
    lines = path.read_text(encoding="utf-8").splitlines()
    number = next(n for n, text in enumerate(lines, 1) if text.startswith(row))
    lines[number - 1] = lines[number - 1].replace(row, edited)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setenv("FANO2RAY_DATA", str(data))

    where = f"{path}, line {number}: "
    with pytest.raises(CatalogError, match=re.escape(where + message)):
        load_catalog()
    assert main(["catalog"]) == 1
    assert capsys.readouterr().err == f"error: {where}{message}\n"


def test_catalog_weights_are_well_formed():
    for r in load_catalog():
        assert well_form_weights(r.weights) == r.weights


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=3, max_size=6))
def test_well_form_weights_properties(ws):
    formed = well_form_weights(tuple(ws))
    assert list(formed) == sorted(formed)
    # every subset omitting one entry is coprime
    for i in range(len(formed)):
        assert gcd(*(w for j, w in enumerate(formed) if j != i)) == 1
    # idempotent, and insensitive to a global scale
    assert well_form_weights(formed) == formed
    assert well_form_weights(tuple(7 * w for w in ws)) == formed


def test_expected_key_monomials_consistent_ones_in_support():
    # every degree-consistent recorded key monomial lies in the support;
    # the inconsistent ones are the known flagged entries
    flagged = set()
    for r in load_catalog():
        sup = r.support()
        for exc in r.expected.exclusions:
            for text, mono in exc.keys:
                if weighted_degree(r.weights, mono) == r.degree:
                    assert mono in sup
                else:
                    flagged.add((r.id, text))
    # the alternatives and terms of a recorded key, in recorded order
    assert family(101).expected.exclusions[0].keys == (
        ("x2^3*x4", (0, 0, 3, 0, 1)),
        ("x2^7*x0", (1, 0, 7, 0, 0)),
    )
    assert flagged == {
        (100, "x4*x2^2"),
        (101, "x2^3*x4"),
        (103, "x1^9*x4"),
        (103, "x1^13*x0"),
    }
