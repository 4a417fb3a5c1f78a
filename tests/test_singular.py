from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest

from fano2ray import singular
from fano2ray.catalog import (
    FamilyRecord,
    family,
    fano_index,
    load_catalog,
    monomial_support,
    weighted_degree,
    well_form_weights,
)
from fano2ray.singular import (
    NotTerminal,
    QuotientSingularity,
    SingularLocusEntry,
    Site,
    UnresolvedTangent,
    blowup_weights,
    center_completion,
    locate,
    normalize_terminal,
    singular_locus,
)

from expected import INDEX_ONE


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
    # zip truncated the variables: two gave two local weights, and a fourth
    # was dropped without an error
    with pytest.raises(NotTerminal, match="three local variables, got 2"):
        normalize_terminal(5, (1, 2, 3), (0, 1))
    with pytest.raises(NotTerminal, match="three local variables, got 4"):
        normalize_terminal(5, (1, 2, 3), (0, 1, 2, 3))


def reference_normalize_terminal(r, weights, variables=(0, 1, 2)):
    # the previous search over every unit multiplier 1..r-1, kept as the
    # reference of the closed form
    if r < 2:
        raise NotTerminal(f"quotient order must be at least 2, got {r}")
    residues = tuple(w % r for w in weights)
    if len(residues) != 3:
        raise NotTerminal("need exactly three local weights")
    for w in residues:
        if gcd(w, r) != 1:
            raise NotTerminal(f"local weight {w} shares a factor with r={r}")
    for m in range(1, r):
        if gcd(m, r) != 1:
            continue
        v = tuple((m * w) % r for w in residues)
        for i in range(3):
            if v[i] != 1:
                continue
            others = tuple(v[j] for j in range(3) if j != i)
            if sum(others) == r:
                return QuotientSingularity(
                    r=r,
                    local_weights=tuple(zip(variables, residues)),
                    multiplier=m,
                    kawamata_form=(1, *others),
                )
    raise NotTerminal(f"1/{r}{residues} admits no Kawamata normal form")


def _outcome(normalize, r, weights):
    try:
        return normalize(r, weights, (4, 0, 2))
    except NotTerminal as err:
        return str(err)


def test_normalize_terminal_matches_the_multiplier_search():
    # every triple of units mod r for r < 24, as residues and unreduced, and
    # inputs the checks before the search reject (r < 48, 935,506 inputs,
    # also agrees but takes about 30 s)
    count = 0
    for r in range(2, 24):
        units = [u for u in range(1, r) if gcd(u, r) == 1]
        for weights in product(units, repeat=3):
            expected = _outcome(reference_normalize_terminal, r, weights)
            unreduced = tuple(w + k * r for k, w in enumerate(weights, start=1))
            assert _outcome(normalize_terminal, r, weights) == expected
            assert _outcome(normalize_terminal, r, unreduced) == expected
            count += isinstance(expected, QuotientSingularity)
    assert count == 5383
    rejected = ((1, (1, 1, 1)), (0, (1, 2, 3)), (4, (2, 1, 1)), (6, (1, 5)), (9, (3, 1, 2)))
    for r, weights in rejected:
        expected = _outcome(reference_normalize_terminal, r, weights)
        assert isinstance(expected, str)
        assert _outcome(normalize_terminal, r, weights) == expected


def test_singular_locus_110():
    entries = singular_locus(family(110))
    by_label = {e.site.label: e for e in entries}
    assert set(by_label) == {"p2", "p4"}
    p4 = by_label["p4"]
    assert p4.site == Site((4,))
    assert p4.singularity.r == 8
    assert [(f"x{t}") for _, t in p4.tangent_candidates] == ["x2"]
    key = p4.tangent_candidates[0][0]
    assert key == (0, 0, 1, 0, 2)  # x4^2*x2
    assert dict(p4.singularity.local_weights) == {0: 1, 1: 3, 3: 7}
    p2 = by_label["p2"]
    assert p2.singularity.r == 5
    assert dict(p2.singularity.local_weights) == {1: 3, 3: 2, 4: 3}
    assert p2.singularity.per_variable_form == (1, 4, 1)
    assert p2.tangent_candidates[0] == ((1, 0, 4, 0, 0), 0)  # x2^4*x0, tangent x0


def test_singular_locus_100_stratum():
    entries = singular_locus(family(100))
    stratum = locate(family(100), "p2p4")
    assert stratum.site == Site((2, 4))
    assert stratum.site.label == "p2p4"
    assert stratum.count == 2
    assert stratum.singularity.r == 3
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


def test_stratum_without_a_key_of_positive_center_power_is_unresolved():
    # X_2 in P(1,1,1,2,2) is a linear cone: on p3p4 the only monomial x3^k*x4
    # has k = 0, and a bare x4 used to be taken as the key of a game
    record = FamilyRecord(weights=(1, 1, 1, 2, 2), degree=2)
    with pytest.raises(UnresolvedTangent, match=r"^X_2 ⊂ P\(1,1,1,2,2\): stratum p3p4 .* k >= 1"):
        singular_locus(record)


def test_a_hypersurface_outside_the_catalog_is_named_by_its_equation():
    record = FamilyRecord(weights=(1, 1, 1, 1, 2), degree=5)
    assert record.id is None and record.name == "X_5 ⊂ P(1,1,1,1,2)"
    assert family(100).name == "family 100"
    with pytest.raises(KeyError) as err:
        locate(record, "p9")
    assert err.value.args == ("X_5 ⊂ P(1,1,1,1,2) has no singular site 'p9'",)


@pytest.mark.parametrize(
    "weights,degree,message",
    [
        ((1, 1, 1, 2), 3, "expected 5 ambient weights, got 4"),
        ((1, 1, 1, 1, 2, 2), 4, "expected 5 ambient weights, got 6"),
        ((0, 1, 1, 2, 3), 5, "weights must be positive"),
        ((-9, 1, 1, 2, 3), 4, "weights must be positive"),
        ((1, 1, 1, 2, 3), 0, "degree must be positive"),
    ],
    ids=["four-weights", "six-weights", "zero-weight", "negative-weight", "zero-degree"],
)
def test_singular_locus_checks_the_shape_of_its_hypersurface(weights, degree, message):
    # fano_index's rules decide the shape: a NotTerminal (also a ValueError)
    # read off a weight of 0 would not pass
    with pytest.raises(ValueError) as err:
        singular_locus(FamilyRecord(weights=weights, degree=degree))
    assert type(err.value) is ValueError
    assert str(err.value) == message


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
    assert blow.singularity.r == 5
    assert blow.singularity.multiplier == 3
    # tangent weight agrees with the congruence value 3*3 mod 5 and with the
    # doubled weight of x4 (the monomial x4^2 realizes the minimum)
    assert blow.b[2] == (3 * 3) % 5 == 2 * blow.b[4]


def test_blowup_weights_110():
    rec = family(110)
    p4 = blowup_weights(rec, locate(rec, "p4"), "x2")
    assert p4.b == (3, 1, 7, 5, 0)
    assert p4.singularity.r == 8
    p2 = blowup_weights(rec, locate(rec, "p2"), "x0")
    assert p2.b == (2, 1, 0, 4, 1)
    assert p2.singularity.r == 5


def scanned_exclusions(support, center, tangent):
    # the definition as a scan of the support: the pure center power, and
    # x_c^k * x_j with k >= 1, j not the tangent and exponent 1 on x_j
    excluded = set()
    for mono in support:
        nonzero = [i for i, e in enumerate(mono) if e > 0]
        if nonzero == [center]:
            excluded.add(mono)
        elif len(nonzero) == 2 and center in nonzero:
            other = nonzero[0] if nonzero[1] == center else nonzero[1]
            if other != tangent and mono[other] == 1 and mono[center] >= 1:
                excluded.add(mono)
    return excluded


def brute_tangent_weight(rec, center, tangent, b):
    # naive re-derivation: minimal cost over support monomials avoiding the
    # tangent, after dropping pure center powers and other key monomials
    best = None
    excluded = scanned_exclusions(rec.support(), center, tangent)
    for mono in rec.support():
        if mono[tangent] != 0 or mono in excluded:
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
        sing = blow.singularity
        assert (v - sing.multiplier * rec.weights[i]) % sing.r == 0
        if i != tangent:
            assert 1 <= v <= sing.r - 1


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


def test_excluded_monomials_match_the_support_scan_on_every_game():
    games = 0
    for rec in load_catalog():
        for entry in singular_locus(rec):
            for _, tangent in entry.tangent_candidates:
                blow = blowup_weights(rec, entry, tangent)
                assert blow.excluded == scanned_exclusions(rec.support(), entry.center, tangent)
                assert blow.excluded <= rec.support()
                games += 1
    assert games == 87


def scanned_completion(weights, degree, center, monomial):
    # try every center exponent 0..d // w_c in turn
    for k in range(degree // weights[center] + 1):
        candidate = monomial[:center] + (k,) + monomial[center + 1 :]
        if weighted_degree(weights, candidate) == degree:
            return candidate
    return None


def seeded_candidates(count=3000, seed=3201):
    """Distinct well-formed candidates ``X_d ⊂ P(w)``: five weights <= 30 and
    Fano index 1..25, in the order drawn."""
    rng = random.Random(seed)
    drawn: dict[tuple, None] = {}
    while len(drawn) < count:
        weights = tuple(sorted(rng.randint(1, 30) for _ in range(5)))
        degree = sum(weights) - rng.randint(1, 25)
        if degree >= 1 and well_form_weights(weights) == weights:
            drawn[weights, degree] = None
    return [FamilyRecord(weights=w, degree=d) for w, d in drawn]


def test_center_completion_matches_a_scan_of_center_powers():
    outcomes = {True: 0, False: 0}
    for rec in load_catalog():
        w, d = rec.weights, rec.degree
        units = {tuple(int(l == j) for l in range(5)) for j in range(5)}
        for c in range(5):
            # the support with x_c set to 1, the zero monomial and each x_j
            seeds = {m[:c] + (0,) + m[c + 1 :] for m in rec.support()} | units | {(0,) * 5}
            for m in seeds:
                completed = center_completion(w, d, c, m)
                assert completed == scanned_completion(w, d, c, m)
                outcomes[completed is not None] += 1
            # off degree: a support monomial without x_c, times another variable
            for m in rec.support():
                for j in range(5):
                    if not m[c] and j != c:
                        bigger = m[:j] + (m[j] + 1,) + m[j + 1 :]
                        assert center_completion(w, d, c, bigger) is None
    assert outcomes[True] and outcomes[False]
    # every tangent candidate x_c^k*x_t is the completion of x_t with k >= 1
    index_one = [FamilyRecord(weights=w, degree=d) for w, d in INDEX_ONE]
    keys = 0
    for rec in [*load_catalog(), *index_one]:
        for entry in singular_locus(rec):
            c = entry.center
            for key, t in entry.tangent_candidates:
                unit = tuple(int(l == t) for l in range(5))
                assert key == center_completion(rec.weights, rec.degree, c, unit)
                assert key[c] >= 1
                keys += 1
    assert keys
    # the key rule is that completion when its center power is positive, and
    # None otherwise: no completion, or a bare x_t (center power 0)
    kinds = {"key": 0, "none": 0, "bare": 0}
    for rec in [*load_catalog(), *index_one, *seeded_candidates()]:
        w, d = rec.weights, rec.degree
        for c, t in product(range(5), repeat=2):
            if c != t:
                completed = center_completion(w, d, c, tuple(int(l == t) for l in range(5)))
                if completed is None:
                    outcome, expected = "none", None
                elif completed[c] == 0:
                    outcome, expected = "bare", None
                else:
                    outcome, expected = "key", completed
                assert singular._key(w, d, c, t) == expected
                kinds[outcome] += 1
    assert all(kinds.values())


def reference_singular_locus(rec):
    # singular_locus stated without singular._key or its table of outside
    # indices: each key is the center_completion of a unit monomial with a
    # positive center power, the three indices outside a pair are found by
    # filtering, and germs are normalized by the multiplier search
    fano_index(rec.weights, rec.degree)
    w, d = rec.weights, rec.degree
    units = [tuple(int(l == j) for l in range(5)) for j in range(5)]

    def key(center, tangent):
        completed = center_completion(w, d, center, units[tangent])
        return completed if completed is not None and completed[center] >= 1 else None

    def germ(r, pair):
        locals_ = tuple(l for l in range(5) if l not in pair)
        return reference_normalize_terminal(r, tuple(w[l] for l in locals_), locals_)

    entries = []
    for i in range(5):
        if w[i] == 1 or d % w[i] == 0:
            continue
        keys = tuple((key(i, j), j) for j in range(5) if j != i and key(i, j) is not None)
        if not keys:
            raise UnresolvedTangent(
                f"{rec.name}: vertex p{i} lies on the member but the support "
                f"has no monomial x{i}^k*x_j"
            )
        entries.append(SingularLocusEntry(Site((i,)), 1, keys, germ(w[i], (i, keys[0][1])), i))
    for i, j in combinations(range(5), 2):
        r = gcd(w[i], w[j])
        if r == 1:
            continue
        restricted = monomial_support((w[i], w[j]), d)
        if not restricted:
            raise NotTerminal(
                f"{rec.name}: stratum p{i}p{j} is contained in the member "
                "(one-dimensional singular locus, unsupported)"
            )
        if len(restricted) == 1:
            continue
        center = i if w[j] % w[i] == 0 else j if w[i] % w[j] == 0 else None
        candidates = ()
        if center is not None:
            tangent = i + j - center
            if key(center, tangent) is None:
                raise UnresolvedTangent(
                    f"{rec.name}: stratum p{i}p{j} lies on the member but the "
                    f"support has no monomial x{center}^k*x{tangent} with k >= 1"
                )
            candidates = ((key(center, tangent), tangent),)
        site = Site((i, j))
        entries.append(
            SingularLocusEntry(site, len(restricted) - 1, candidates, germ(r, (i, j)), center)
        )
    return tuple(entries)


def _locus_outcome(locus, rec):
    try:
        return "accepted", locus(rec)
    except ValueError as err:
        return type(err), str(err)


def test_singular_locus_matches_the_reference_on_seeded_candidates():
    # every candidate's entries, or its exception class and message, agree
    # with the reference; the seeded candidates reach each rejection, and the
    # families reach vertices and strata with and without a center
    verdicts = {}
    sites = set()
    index_one = [FamilyRecord(weights=w, degree=d) for w, d in INDEX_ONE]
    for rec in [*load_catalog(), *index_one, *seeded_candidates()]:
        verdict, expected = _locus_outcome(reference_singular_locus, rec)
        assert _locus_outcome(singular_locus, rec) == (verdict, expected)
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        if verdict == "accepted":
            sites.update((len(e.site.variables), e.center is None) for e in expected)
    assert set(verdicts) == {"accepted", NotTerminal, UnresolvedTangent}
    assert sites == {(1, False), (2, False), (2, True)}


@pytest.mark.parametrize("fid", [128, 130])
@pytest.mark.parametrize("tangent", [None, "x3", 1, "y9"])
def test_blowup_names_a_site_without_a_center_before_the_tangent(fid, tangent):
    # p1p3 has weights 4 and 6: neither divides the other
    rec = family(fid)
    entry = locate(rec, "p1p3")
    assert entry.center is None and entry.tangent_candidates == ()
    with pytest.raises(UnresolvedTangent, match="neither stratum weight divides the other"):
        blowup_weights(rec, entry, tangent)


@pytest.mark.parametrize("name", ["x²", "x٣", "x5", "x12"])
def test_tangent_names_take_ascii_digits_only(name):
    # str.isdigit accepts the first two and int() reads x٣ as x3; x5 and x12
    # are no ambient variable, so they are bad names, not indices
    rec = family(110)
    with pytest.raises(ValueError, match="bad variable name"):
        blowup_weights(rec, locate(rec, "p2"), name)


def test_blowup_reuses_the_site_normal_form_for_its_first_tangent():
    games = 0
    for rec in load_catalog():
        for entry in singular_locus(rec):
            for k, (_, tangent) in enumerate(entry.tangent_candidates):
                blow = blowup_weights(rec, entry, tangent)
                locals_ = tuple(l for l in range(5) if l not in (entry.center, tangent))
                fresh = normalize_terminal(
                    entry.singularity.r, tuple(rec.weights[l] for l in locals_), locals_
                )
                assert blow.singularity == fresh
                assert (blow.singularity is entry.singularity) == (k == 0)
                games += 1
    assert games == 87


def test_blowup_normalizes_only_for_the_other_tangents(monkeypatch):
    games = [
        (rec, entry, tangent)
        for rec in load_catalog()
        for entry in singular_locus(rec)
        for _, tangent in entry.tangent_candidates
    ]
    calls = []

    def counting(*args):
        calls.append(args)
        return normalize_terminal(*args)

    monkeypatch.setattr(singular, "normalize_terminal", counting)
    for game in games:
        blowup_weights(*game)
    assert (len(games), len(calls)) == (87, 21)


@pytest.mark.parametrize("catalog", ["index2", "index1"])
def test_kawamata_identity_on_every_basket(catalog):
    # -K.c2 = 24 - sum(r - 1/r) over the basket (Kawamata, "Boundedness of
    # Q-Fano threefolds", 1992); for X_d in P(a) of index i the left side is
    # i*d*(e2(a) - d*e1(a) + d^2)/prod(a), from c(X) = prod(1 + a_j H)/(1 + d H)
    records = (
        load_catalog()
        if catalog == "index2"
        else [FamilyRecord(weights=w, degree=d) for w, d in INDEX_ONE]
    )
    for rec in records:
        a, d = rec.weights, rec.degree
        e2 = sum(x * y for x, y in combinations(a, 2))
        k_c2 = Fraction(rec.index * d * (e2 - d * sum(a) + d * d), prod(a))
        basket = sum(
            e.count * (e.singularity.r - Fraction(1, e.singularity.r)) for e in singular_locus(rec)
        )
        assert k_c2 == 24 - basket, rec.name
    assert len(records) == {"index2": 35, "index1": 11}[catalog]
