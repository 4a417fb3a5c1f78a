from __future__ import annotations

import random
from functools import cmp_to_key
from math import gcd
from operator import itemgetter, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fano2ray.catalog import FamilyRecord, family, load_catalog
from fano2ray.linkengine import run_game
from fano2ray.singular import blowup_weights, locate, singular_locus
from fano2ray.toric2ray import (
    MONO_VARIABLES,
    DegenerateWall,
    LatticeError,
    NonHomogeneous,
    RankTwoModel,
    TransformedEquation,
    ZeroClass,
    _hnf_basis,
    _sort_columns,
    ambient_walk,
    build_model,
    det2,
    divisorial_target,
    match_recorded_grading,
    minus_k,
    mono_str,
    movable_position,
    needs_unprojection,
    restrict_walk,
    unproject,
    well_form_model,
)

from expected import INDEX_ONE, regrade, rows, values


def model_for(fid, point, tangent):
    rec = family(fid)
    entry = locate(rec, point)
    return build_model(rec, blowup_weights(rec, entry, tangent))


@pytest.fixture(scope="module")
def raw100():
    return model_for(100, "p3", "x2")


@pytest.fixture(scope="module")
def raw110p4():
    return model_for(110, "p4", "x2")


@pytest.fixture(scope="module")
def raw110p2():
    return model_for(110, "p2", "x0")


def test_build_model_100(raw100):
    assert raw100.column_map() == {
        "u": (0, -5),
        "y3": (5, 0),
        "y4": (9, 2),
        "y2": (3, 4),
        "y1": (2, 1),
        "y0": (1, 3),
    }
    assert raw100.center == "y3"
    eq = raw100.equations[0]
    assert eq.bidegree == (18, 4)


def test_build_model_110(raw110p4, raw110p2):
    assert raw110p4.labels == ("u", "y4", "y1", "y3", "y2", "y0")
    assert rows(raw110p4) == ((0, 8, 3, 7, 5, 1), (-8, 0, 1, 5, 7, 3))
    assert raw110p2.labels == ("u", "y2", "y4", "y1", "y3", "y0")
    assert rows(raw110p2) == ((0, 5, 8, 3, 7, 1), (-5, 0, 1, 1, 4, 2))


def test_build_model_rejects_an_empty_working_support():
    rec = family(100)
    blow = blowup_weights(rec, locate(rec, "p3"), "x2")
    with pytest.raises(NonHomogeneous, match="empty equation support"):
        build_model(rec, blow._replace(excluded=rec.support()))


def test_build_model_rejects_costs_off_the_congruence_class():
    # b = (3, 1, 4, 0, 2) mod r = 5 at 100 p3; one more on x0 breaks it
    rec = family(100)
    blow = blowup_weights(rec, locate(rec, "p3"), "x2")
    assert (blow.b, blow.singularity.r) == ((3, 1, 4, 0, 2), 5)
    with pytest.raises(NonHomogeneous, match="not congruent to the multiplicity 4 mod 5"):
        build_model(rec, blow._replace(b=(4, 1, 4, 0, 2)))


def test_build_model_rejects_a_monomial_of_another_degree():
    # x2^6*x3 has the cost of x2^6 (the center x3 costs 0) but degree 23
    class SkewedRecord(FamilyRecord):
        def support(self):
            return super().support() | {(0, 0, 6, 1, 0)}

    rec = family(100)
    blow = blowup_weights(rec, locate(rec, "p3"), "x2")
    with pytest.raises(NonHomogeneous, match=r"\(0, 0, 6, 1, 0\) is not of degree 18"):
        build_model(SkewedRecord(*rec), blow)


def test_columns_sorted_anticlockwise(raw100, raw110p4, raw110p2):
    for model in (raw100, raw110p4, raw110p2):
        vecs = [v for _, v in model.columns]
        assert model.columns[0][0] == "u"
        for a, b in zip(vecs, vecs[1:]):
            assert det2(a, b) > 0  # strictly anticlockwise


def test_well_form_model_100_exact(raw100):
    wf = well_form_model(raw100)
    assert wf.labels == ("u", "y3", "y4", "y1", "y2", "y0")
    assert rows(wf) == ((2, 1, 1, 0, -1, -1), (-5, 0, 2, 1, 4, 3))
    # lattice is primitive: the 2x2 minors are collectively coprime
    vecs = [v for _, v in wf.columns]
    minors = [det2(a, b) for i, a in enumerate(vecs) for b in vecs[i + 1 :]]
    assert gcd(*minors) == 1


def test_well_form_preserves_order_and_equations(raw110p4):
    wf = well_form_model(raw110p4)
    assert wf.labels == raw110p4.labels
    assert wf.equations[0].support == raw110p4.equations[0].support
    vecs = [v for _, v in wf.columns]
    minors = [det2(a, b) for i, a in enumerate(vecs) for b in vecs[i + 1 :]]
    assert gcd(*minors) == 1


def test_transform_is_proper(raw100):
    # some monomial is untouched by the exceptional coordinate
    assert any(m[MONO_VARIABLES.index("u")] == 0 for m in raw100.equations[0].support)
    # the key monomial x3^3*x2 survives as y3^3*y2 (exponents of u, y0..y4, y)
    assert (0, 0, 0, 1, 3, 0, 0) in raw100.equations[0].support


def test_ambient_walk_100(raw100):
    steps = ambient_walk(well_form_model(raw100))
    assert [s.wall for s in steps] == ["y4", "y1", "y2"]
    assert [s.ambient_kind for s in steps] == ["flip", "flip", "contraction"]
    flop = steps[1]
    assert values(flop.ambient_weights) == (2, 1, 1, -1, -1)
    assert steps[2].contracted == "y0"


def test_ambient_flip_weights_match_raw_determinants(raw110p4):
    # oracle: determinant pairing against the wall ray in the raw grading
    wall = dict(raw110p4.columns)["y3"]
    expected = {}
    for lab, vec in raw110p4.columns:
        if lab == "y3":
            continue
        expected[lab] = det2(vec, wall)
    g = gcd(*(abs(v) for v in expected.values()))
    expected = {lab: v // g for lab, v in expected.items()}
    step = next(s for s in ambient_walk(raw110p4) if s.wall == "y3")
    assert dict(step.ambient_weights) == expected
    assert values(step.ambient_weights) == (7, 5, 1, -3, -2)


@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
)
def test_flip_weights_invariant_under_regrading(a, b, swap_shear):
    # unimodular positive-determinant transforms leave local weights alone
    model = model_for(110, "p4", "x2")
    matrix = ((1, a), (0, 1)) if not swap_shear else ((1, 0), (b, 1))
    transformed = regrade(model, matrix)
    original = [(s.wall, s.ambient_weights) for s in ambient_walk(model)]
    moved = [(s.wall, s.ambient_weights) for s in ambient_walk(transformed)]
    assert original == moved


@given(st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)), max_size=6))
@example([(5, 0), (3, -2)])  # one vector off the x-axis, pointing down
def test_hnf_basis_spans_the_lattice_of_the_vectors(vectors):
    minors = [det2(u, v) for i, u in enumerate(vectors) for v in vectors[i + 1 :]]
    if not any(minors):
        with pytest.raises(LatticeError):
            _hnf_basis(vectors)
        return
    a, b, c = _hnf_basis(vectors)
    assert 0 <= b < a and c > 0
    assert c == gcd(*(y for _, y in vectors))
    assert a * c == gcd(*minors)
    # each vector is k*(B, C) plus a multiple of (A, 0); with A*C the index
    # of both lattices, the basis spans exactly the vectors' lattice
    for x, y in vectors:
        assert y % c == 0 and (x - y // c * b) % a == 0


def test_restrict_walk_100(raw100):
    steps = restrict_walk(well_form_model(raw100))
    assert [s.restricted_kind for s in steps] == ["iso", "flop", "divisorial"]
    assert steps[0].witnesses == ("y4^2",)
    assert steps[1].witnesses == ("u*y1^9",)
    assert values(steps[1].restricted_weights) == (1, 1, -1, -1)


def test_restrict_walk_110_p4(raw110p4):
    steps = restrict_walk(well_form_model(raw110p4))
    assert [s.restricted_kind for s in steps] == ["iso", "flip", "divisorial"]
    assert steps[0].witnesses == ("y1^7",)
    assert values(steps[1].restricted_weights) == (5, 1, -3, -2)
    assert steps[1].witnesses == ("u*y3^3",)


def test_restrict_walk_110_p2_unprojected(raw110p2):
    wf = well_form_model(raw110p2)
    pieces = needs_unprojection(wf)
    assert pieces is not None
    model = unproject(wf, pieces)
    steps = restrict_walk(model)
    assert [s.restricted_kind for s in steps] == ["iso", "iso", "flip", "divisorial"]
    assert values(steps[2].restricted_weights) == (8, 1, -3, -5)
    assert set(steps[2].witnesses) == {"u*y", "y2*y"}


def test_walls_are_computed_once_per_model():
    # a model keeps its walls; well-forming and unprojecting build new
    # models, which compute their own rather than reading the source's
    raw = model_for(110, "p2", "x0")
    assert raw.walls is raw.walls
    wf = well_form_model(raw)
    unprojected = unproject(wf, needs_unprojection(wf))
    for model in (wf, unprojected):
        groups, index_of = model.walls
        assert model.walls is not raw.walls and model.walls is model.walls
        assert [lab for wall in groups for lab in wall.labels] == list(model.labels)
        for lab, v in model.columns:
            assert det2(groups[index_of[lab]].direction, v) == 0
    assert "y" in unprojected.walls[1] and "y" not in raw.walls[1]


def test_divisorial_target_examples(raw100, raw110p4, raw110p2):
    t100 = divisorial_target(well_form_model(raw100), "y2")
    assert (t100.weights, t100.degrees) == ((1, 1, 1, 3, 5), (10,))
    t110 = divisorial_target(well_form_model(raw110p4), "y2")
    assert (t110.weights, t110.degrees) == ((1, 1, 1, 2, 3), (7,))
    wf = well_form_model(raw110p2)
    model = unproject(wf, needs_unprojection(wf))
    t = divisorial_target(model, "y3")
    assert (t.weights, t.degrees) == ((1, 1, 2, 2, 3, 5), (6, 7))


def test_divisorial_target_grading_independent(raw110p4):
    # absolute determinants: raw and well-formed gradings agree
    raw_target = divisorial_target(raw110p4, "y2")
    wf_target = divisorial_target(well_form_model(raw110p4), "y2")
    assert raw_target == wf_target
    sheared = divisorial_target(regrade(raw110p4, ((1, 2), (0, 1))), "y2")
    assert sheared == raw_target


def test_divisorial_target_rejects_non_contraction(raw100):
    with pytest.raises(DegenerateWall):
        divisorial_target(well_form_model(raw100), "y4")


def test_divisorial_target_rejects_weights_that_are_not_well_formed():
    # y3 is the one ray beyond the y2 wall; all target weights but the one of
    # u share the factor 2, so the well-formed weights would change the degree
    model = RankTwoModel(
        columns=_sort_columns(
            [("u", (0, -1)), ("y0", (2, 0)), ("y1", (4, 0)), ("y2", (1, 1)),
             ("y3", (1, 3)), ("y4", (-1, 1))]
        ),
        equations=(TransformedEquation(support=frozenset(), bidegree=(4, 0)),),
        center="y0",
    )
    message = (
        "target weights (1, 2, 4, 2, 4) well-form to (1, 1, 1, 2, 2); degree data would be stale"
    )
    with pytest.raises(LatticeError) as err:
        divisorial_target(model, "y3")
    assert str(err.value) == message
    with pytest.raises(LatticeError) as err:
        restrict_walk(model)
    assert str(err.value) == message
    with pytest.raises(DegenerateWall):
        divisorial_target(model, "y2")


def test_minus_k_examples(raw100):
    wf = well_form_model(raw100)
    # oracle: column sum (2,5) minus equation bidegree (2,4)
    assert tuple(map(sum, zip(*(v for _, v in wf.columns)))) == (2, 5)
    assert wf.equations[0].bidegree == (2, 4)
    assert minus_k(wf) == (0, 1)
    raw101 = model_for(101, "p2", "x3")
    assert minus_k(raw101) == (2, 1)


def test_movable_position_examples(raw100):
    wf = well_form_model(raw100)
    assert dict(wf.columns)["y3"] == (1, 0)
    assert dict(wf.columns)["y2"] == (-1, 4)
    assert movable_position(wf, (0, 1)) == "interior"
    raw101 = model_for(101, "p2", "x3")
    # (2,1) is the second-to-last ray itself
    assert dict(raw101.columns)["y1"] == (2, 1)
    assert movable_position(raw101, (2, 1)) == "boundary"
    assert movable_position(raw101, raw101.columns[1][1]) == "boundary"
    assert movable_position(raw101, (1, -1)) == "outside"
    with pytest.raises(ZeroClass):
        movable_position(raw101, (0, 0))


def test_flop_exactly_when_eliminated_weight_equals_excess():
    # over the distinguished games, the restriction is an Atiyah flop exactly
    # when the eliminated weights absorb the whole ambient weight sum
    for fid, point, tangent in [
        (100, "p3", "x2"),
        (101, "p3", "x0"),
        (102, "p3", "x2"),
        (103, "p3", "x2"),
        (110, "p4", "x2"),
    ]:
        model = well_form_model(model_for(fid, point, tangent))
        for step in restrict_walk(model):
            if step.restricted_kind not in ("flop", "flip"):
                continue
            ambient_sum = sum(values(step.ambient_weights))
            eliminated = ambient_sum - sum(values(step.restricted_weights))
            assert (step.restricted_kind == "flop") == (ambient_sum == eliminated)


def test_bihomogeneity_of_all_game_equations():
    cases = [
        (100, "p3", "x2"), (101, "p3", "x0"), (102, "p3", "x2"), (103, "p3", "x2"),
        (110, "p4", "x2"), (110, "p2", "x0"), (100, "p2p4", "x4"), (101, "p2", "x3"),
        (102, "p2", "x0"), (103, "p1", "x0"), (103, "p1", "x2"), (103, "p1", "x3"),
        (103, "p2", "x1"),
    ]
    for fid, point, tangent in cases:
        model = model_for(fid, point, tangent)
        stages = (
            model,
            well_form_model(model),
            regrade(model, ((1, 1), (0, 1))),
            regrade(model, ((2, 1), (1, 1))),
        )
        for stage in stages:
            cols = stage.column_map()
            for eq in stage.equations:
                degrees = {
                    tuple(
                        sum(e * cols[lab][i] for lab, e in zip(MONO_VARIABLES, m) if e)
                        for i in range(2)
                    )
                    for m in eq.support
                }
                assert degrees == {eq.bidegree}


def test_iso_scan_skips_only_equations_without_wall_monomials():
    # restrict_walk looks up monomials in the wall variables alone only in
    # an equation whose bidegree is a positive multiple of the wall
    # direction; a full scan at every flip wall of every game finds none in
    # the equations it skips
    games = found = skipped = 0
    for record in load_catalog():
        for entry in singular_locus(record):
            for _, tangent in entry.tangent_candidates:
                trace, _ = run_game(record, entry, tangent)
                games += 1
                model = trace.game_model
                for step in trace.steps:
                    if step.ambient_kind != "flip":
                        continue
                    x, y = model.column_map()[step.wall]
                    d = (x // gcd(x, y), y // gcd(x, y))
                    on_wall = [lab in step.wall_variables for lab in MONO_VARIABLES]
                    for eq in model.equations:
                        b = eq.bidegree
                        multiple = det2(b, d) == 0 and b[0] * d[0] + b[1] * d[1] > 0
                        hit = any(
                            any(m) and all(on or not e for on, e in zip(on_wall, m))
                            for m in eq.support
                        )
                        assert multiple or not hit, (record.id, entry.site.label, step.wall)
                        found += hit
                        skipped += not multiple
    assert games == 87
    assert found and skipped


@pytest.mark.parametrize("matrix", [((2, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (1, 1))])
def test_regrade_rejects_determinant_other_than_one(raw100, matrix):
    with pytest.raises(LatticeError, match="determinant one"):
        regrade(raw100, matrix)


def test_match_recorded_grading_recovers_a_regrading(raw110p4):
    target = regrade(raw110p4, ((2, 1), (1, 1))).column_map()
    assert match_recorded_grading(raw110p4, target) == target


def test_match_recorded_grading_rejects_label_mismatch(raw100):
    recorded = raw100.column_map()
    recorded["y"] = recorded.pop("y0")
    with pytest.raises(LatticeError, match="label mismatch"):
        match_recorded_grading(raw100, recorded)


def test_match_recorded_grading_rejects_non_integral_image():
    # the non-u columns force the map (x, y) -> (x/2, y/2), under which the
    # u-column (1, 1) has no integral image
    model = RankTwoModel(
        columns=(("u", (1, 1)), ("y0", (2, 0)), ("y1", (0, 2))), equations=(), center="y0"
    )
    recorded = {"u": (0, 0), "y0": (1, 0), "y1": (0, 1)}
    with pytest.raises(LatticeError, match="not integral"):
        match_recorded_grading(model, recorded)


# ---------------------------------------------------------------------------
# reference copies of the previous scans: the transformed equation with both
# row degrees recomputed for every monomial, the wall restrictions found by
# scanning every monomial once per flip wall, and the unprojection split
# built while the ideal membership is decided


def reference_equation(record, blow, columns):
    w, b, r = record.weights, blow.b, blow.singularity.r
    working = record.support() - blow.excluded
    cost = {m: sum(map(mul, m, b)) for m in working}
    mu = min(cost.values())
    support = []
    for m, k in cost.items():
        u, rem = divmod(k - mu, r)
        if rem:
            raise NonHomogeneous("not congruent")
        support.append((u, *m, 0))
    support = frozenset(support)
    row1, row2 = zip(*(columns.get(lab, (0, 0)) for lab in MONO_VARIABLES))
    degrees = {(sum(map(mul, m, row1)), sum(map(mul, m, row2))) for m in support}
    assert len(degrees) == 1
    assert not all(m[0] > 0 for m in support)
    return TransformedEquation(support=support, bidegree=degrees.pop())


def _factors(m):
    return tuple((lab, e) for lab, e in zip(MONO_VARIABLES, m) if e)


def reference_restrict_walk(model):
    groups, index_of = model.walls
    steps = []
    for step in ambient_walk(model):
        wall_gi = index_of[step.wall]
        if step.ambient_kind == "contraction":
            steps.append(
                step._replace(
                    restricted_kind="divisorial", target=divisorial_target(model, step.wall)
                )
            )
            continue
        off_wall = [
            i for i, lab in enumerate(MONO_VARIABLES) if lab not in step.wall_variables
        ]
        off = itemgetter(*off_wall)
        d = groups[wall_gi].direction
        iso_witness = None
        for eq in model.equations:
            b = eq.bidegree
            if det2(b, d) or b[0] * d[0] + b[1] * d[1] <= 0:
                continue
            found = [m for m in eq.support if not any(off(m)) and any(m)]
            if found:
                iso_witness = min(found, key=_factors)
                break
        if iso_witness is not None:
            steps.append(
                step._replace(restricted_kind="iso", witnesses=(mono_str(iso_witness),))
            )
            continue
        eliminated = []
        witnesses = []
        for eq in model.equations:
            linear = []
            for m in eq.support:
                exponents = off(m)
                if sum(exponents) != 1:
                    continue
                lab = MONO_VARIABLES[off_wall[exponents.index(1)]]
                if index_of[lab] < wall_gi and lab not in eliminated:
                    linear.append((lab, m))
            if not linear:
                eliminated = []
                break
            lab, m = min(linear, key=lambda pair: _factors(pair[1]))
            eliminated.append(lab)
            witnesses.append(mono_str(m))
        if eliminated:
            rest = tuple((lab, v) for lab, v in step.ambient_weights if lab not in eliminated)
            kind = "flop" if sorted(v for _, v in rest) == [-1, -1, 1, 1] else "flip"
            steps.append(
                step._replace(
                    restricted_kind=kind, restricted_weights=rest, witnesses=tuple(witnesses)
                )
            )
        else:
            steps.append(step._replace(restricted_kind="indeterminate"))
    return tuple(steps)


def reference_needs_unprojection(model):
    eq = model.equations[0]
    c = MONO_VARIABLES.index(model.center)
    rest = itemgetter(*(i for i in range(1, len(MONO_VARIABLES)) if i != c))
    piece_u = set()
    piece_center = set()
    for m in eq.support:
        if not any(rest(m)):
            return None
        if m[0]:
            piece_u.add((m[0] - 1, *m[1:]))
        elif m[c]:
            piece_center.add((*m[:c], m[c] - 1, *m[c + 1 :]))
        else:
            return None
    if not piece_u or not piece_center:
        return None
    return frozenset(piece_u), frozenset(piece_center)


def assert_bihomogeneous_and_proper(model):
    # every monomial of each equation has that equation's bidegree under the
    # model's columns, and u does not divide every monomial
    row1, row2 = zip(*(model.column_map().get(lab, (0, 0)) for lab in MONO_VARIABLES))
    for eq in model.equations:
        degrees = {(sum(map(mul, m, row1)), sum(map(mul, m, row2))) for m in eq.support}
        assert degrees == {eq.bidegree}
        assert not all(m[0] for m in eq.support)


def _all_games(records):
    for record in records:
        for entry in singular_locus(record):
            for _, tangent in entry.tangent_candidates:
                yield record, run_game(record, entry, tangent)[0]


def _index_one_records():
    return [FamilyRecord(weights=w, degree=d) for w, d in INDEX_ONE]


@pytest.mark.parametrize("catalog", ["index2", "index1"])
def test_lookups_match_the_reference_scans(catalog):
    # every game model, in its own grading and regraded by three unimodular
    # matrices, every raw equation, and the unprojection of every raw model
    # in its raw, well-formed and one regraded grading
    records = load_catalog() if catalog == "index2" else _index_one_records()
    games = unprojected = multi_variable_walls = 0
    for record, trace in _all_games(records):
        games += 1
        raw = build_model(record, trace.blowup)
        assert raw.equations == (
            reference_equation(record, trace.blowup, raw.column_map()),
        )
        for model in (raw, trace.well_formed, regrade(raw, ((2, 1), (1, 1)))):
            pieces = needs_unprojection(model)
            assert pieces == reference_needs_unprojection(model)
            if pieces is not None:
                assert_bihomogeneous_and_proper(unproject(model, pieces))
        unprojected += len(trace.game_model.equations) == 2
        multi_variable_walls += sum(
            step.ambient_kind == "flip" and len(step.wall_variables) > 1
            for step in trace.steps
        )
        for matrix in (((1, 0), (0, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1)), ((1, 0), (-3, 1))):
            model = regrade(trace.game_model, matrix)
            assert restrict_walk(model) == reference_restrict_walk(model)
    # the games reach two-equation models and flip walls of several variables,
    # where the wall monomials come from a support of the wall multiples
    expected = {"index2": (87, 9, 11), "index1": (59, 38, 21)}[catalog]
    assert (games, unprojected, multi_variable_walls) == expected


# ---------------------------------------------------------------------------
# reference copies of the comparator column order and of the transform loop
# that recomputed each cost and each degree per monomial


def reference_angle_cmp(ref):
    def sector(v):
        d = det2(ref, v)
        dot = ref[0] * v[0] + ref[1] * v[1]
        if d == 0:
            return 0 if dot > 0 else 2
        return 1 if d > 0 else 3

    def cmp(a, b):
        sa, sb = sector(a[1]), sector(b[1])
        if sa != sb:
            return -1 if sa < sb else 1
        d = det2(a[1], b[1])
        if d == 0:
            return 0
        return -1 if d > 0 else 1

    return cmp_to_key(cmp)


def reference_sort_columns(columns):
    columns = list(columns)
    return tuple(sorted(columns, key=reference_angle_cmp(dict(columns)["u"])))


def reference_build_model(record, blow):
    w, b, r, degree = record.weights, blow.b, blow.singularity.r, record.degree
    columns = reference_sort_columns(
        [("u", (0, -r))] + [(f"y{i}", (w[i], b[i])) for i in range(len(w))]
    )
    working = tuple(record.support() - blow.excluded)
    if not working:
        raise NonHomogeneous("empty equation support")
    costs = [sum(map(mul, m, b)) for m in working]
    mu = min(costs)
    support = []
    for m, k in zip(working, costs):
        u, rem = divmod(k - mu, r)
        if rem:
            raise NonHomogeneous(
                f"monomial cost {k} not congruent to the multiplicity {mu} mod {r}"
            )
        if sum(map(mul, m, w)) != degree:
            raise NonHomogeneous(f"monomial {m} is not of degree {degree}")
        support.append((u, *m, 0))
    if 0 not in map(itemgetter(0), support):
        raise NonHomogeneous("u divides every monomial (not a proper transform)")
    equation = TransformedEquation(support=frozenset(support), bidegree=(degree, mu))
    center = f"y{blow.center_entry.center}"
    return RankTwoModel(columns=columns, equations=(equation,), center=center)


def _outcome(build, record, blow):
    try:
        return build(record, blow)
    except NonHomogeneous as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("catalog", ["index2", "index1"])
def test_column_order_matches_the_comparator_on_every_game(catalog):
    # the unsorted columns that build_model and unproject sort, and the same
    # columns reversed
    records = load_catalog() if catalog == "index2" else _index_one_records()
    sorted_sets = 0
    for record, trace in _all_games(records):
        w, b, r = record.weights, trace.blowup.b, trace.blowup.singularity.r
        raw = [("u", (0, -r))] + [(f"y{i}", (w[i], b[i])) for i in range(len(w))]
        column_sets = [raw]
        if trace.unprojected:
            y = trace.raw_unprojected.column_map()["y"]
            column_sets.append(list(trace.raw.columns) + [("y", y)])
        for columns in column_sets:
            for cols in (columns, columns[::-1]):
                assert _sort_columns(cols) == reference_sort_columns(cols)
                sorted_sets += 1
    assert sorted_sets == {"index2": 2 * (87 + 9), "index1": 2 * (59 + 38)}[catalog]


def test_column_order_matches_the_comparator_on_random_columns():
    # the u-ray points anywhere; the other rays fall in all four sectors and
    # include multiples of the u-ray of both signs, multiples of each other
    # and repeated vectors
    rng = random.Random(20)
    sectors = set()
    parallel = anti_parallel = repeated = 0
    for _ in range(2500):
        ref = (0, 0)
        while ref == (0, 0):
            ref = (rng.randint(-6, 6), rng.randint(-6, 6))
        vectors = []
        for _ in range(rng.randint(1, 9)):
            kind = rng.random()
            if kind < 0.2:
                k = rng.choice([-3, -2, -1, 1, 2, 3])
                v = (k * ref[0], k * ref[1])
            elif kind < 0.4 and vectors:
                base = rng.choice(vectors)
                k = rng.choice([-2, -1, 1, 2, 3])
                v = (k * base[0], k * base[1])
            else:
                v = (0, 0)
                while v == (0, 0):
                    v = (rng.randint(-9, 9), rng.randint(-9, 9))
            vectors.append(v)
        columns = [(f"c{i}", v) for i, v in enumerate(vectors)]
        columns.insert(rng.randint(0, len(columns)), ("u", ref))
        assert _sort_columns(columns) == reference_sort_columns(columns)
        for v in vectors:
            d, dot = det2(ref, v), ref[0] * v[0] + ref[1] * v[1]
            sectors.add((0 if dot > 0 else 2) if d == 0 else (1 if d > 0 else 3))
        pairs = [(a, b) for i, a in enumerate(vectors) for b in vectors[i + 1 :]]
        parallel += any(det2(a, b) == 0 and a[0] * b[0] + a[1] * b[1] > 0 for a, b in pairs)
        anti_parallel += any(det2(a, b) == 0 and a[0] * b[0] + a[1] * b[1] < 0 for a, b in pairs)
        repeated += len(set(vectors)) < len(vectors)
    assert sectors == {0, 1, 2, 3}
    assert min(parallel, anti_parallel, repeated) > 100


def test_packed_degrees_match_the_reference_loop_for_any_sign_of_b():
    # b shifted by multiples of r (negative and large entries, still on the
    # congruence class) gives a model; arbitrary b mostly breaks the
    # congruence; an added monomial of the wrong degree is named either way
    class SkewedRecord(FamilyRecord):
        def support(self):
            return super().support() | {self.extra}

    rng = random.Random(13)
    models = 0
    messages = []
    for record, trace in _all_games(load_catalog()):
        blow = trace.blowup
        shifts = [
            [rng.randint(-40, 40) for _ in blow.b],
            [rng.choice([-1, 1]) * rng.randint(10**5, 10**7) for _ in blow.b],
        ]
        variants = [tuple(x + blow.singularity.r * k for x, k in zip(blow.b, s)) for s in shifts]
        variants.append(tuple(rng.randint(-60, 60) for _ in blow.b))
        variants.append(tuple(rng.randint(-(10**9), 10**9) for _ in blow.b))
        for b in variants:
            candidate = blow._replace(b=b)
            expected = _outcome(reference_build_model, record, candidate)
            assert _outcome(build_model, record, candidate) == expected
            if isinstance(expected, RankTwoModel):
                models += 1
            else:
                messages.append(expected[1])
        # a monomial of degree one more or one less, on a random exponent
        for delta in (1, -1):
            w = record.weights
            extra = [0] * 5
            extra[rng.randrange(5)] = (record.degree + delta) // min(w) or 1
            skewed = SkewedRecord(*record)
            skewed.extra = tuple(extra)
            if sum(map(mul, skewed.extra, w)) == record.degree:
                continue
            for b in (blow.b, variants[0]):
                candidate = blow._replace(b=b)
                expected = _outcome(reference_build_model, skewed, candidate)
                assert _outcome(build_model, skewed, candidate) == expected
                messages.append(expected[1])
    assert models >= 2 * 87
    congruence = sum("not congruent" in m for m in messages)
    degree = sum("is not of degree" in m for m in messages)
    assert congruence + degree == len(messages)
    assert min(congruence, degree) > 50


def _site_signatures(record, order=tuple(range(5))):
    """Every game of ``record`` up to the order of its variables, keyed by
    site: variable ``k`` of ``record`` is variable ``order[k]`` of the
    reference.  A stratum is keyed by its site, not by (site, tangent): at an
    equal-weight stratum the order picks which variable is the centre."""
    signatures = {}
    for entry in singular_locus(record):
        games = []
        for _, tangent in entry.tangent_candidates:
            trace, outcome = run_game(record, entry, tangent)
            steps = tuple(
                (
                    s.ambient_kind,
                    s.restricted_kind,
                    sorted(w for _, w in s.ambient_weights),
                    sorted(w for _, w in s.restricted_weights or ()),
                    len(s.witnesses),
                )
                for s in trace.steps
            )
            blowup = sorted(trace.blowup.b)
            games.append((outcome.kind, outcome.position, trace.unprojected, blowup, steps))
        site = tuple(sorted(order[v] for v in entry.site.variables))
        signatures[site] = (entry.count, entry.singularity.r, sorted(games))
    return signatures


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.integers(96, 130).map(lambda fid: (family(fid).weights, family(fid).degree)),
        st.sampled_from(INDEX_ONE),
    ),
    st.permutations(range(5)),
)
def test_games_do_not_depend_on_the_order_of_the_variables(hypersurface, order):
    # 100 sampled (family, order) pairs over the 35 and the 11 index-1
    # families; the weights of variable k are those of variable order[k]
    weights, degree = hypersurface
    permuted = FamilyRecord(weights=tuple(weights[v] for v in order), degree=degree)
    reference = _site_signatures(FamilyRecord(weights=weights, degree=degree))
    assert _site_signatures(permuted, order) == reference
