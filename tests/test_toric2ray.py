from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano2ray.catalog import family
from fano2ray.linkengine import needs_unprojection, unproject
from fano2ray.singular import blowup_weights, locate
from fano2ray.toric2ray import (
    MONO_VARIABLES,
    DegenerateWall,
    ZeroClass,
    ambient_walk,
    build_model,
    det2,
    divisorial_target,
    minus_k,
    movable_position,
    regrade,
    restrict_walk,
    well_form_model,
)


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
    assert raw110p4.rows() == ((0, 8, 3, 7, 5, 1), (-8, 0, 1, 5, 7, 3))
    assert raw110p2.labels == ("u", "y2", "y4", "y1", "y3", "y0")
    assert raw110p2.rows() == ((0, 5, 8, 3, 7, 1), (-5, 0, 1, 1, 4, 2))


def test_columns_sorted_anticlockwise(raw100, raw110p4, raw110p2):
    for model in (raw100, raw110p4, raw110p2):
        vecs = [v for _, v in model.columns]
        assert model.columns[0][0] == "u"
        for a, b in zip(vecs, vecs[1:]):
            assert det2(a, b) > 0  # strictly anticlockwise


def test_well_form_model_100_exact(raw100):
    wf = well_form_model(raw100)
    assert wf.labels == ("u", "y3", "y4", "y1", "y2", "y0")
    assert wf.rows() == ((2, 1, 1, 0, -1, -1), (-5, 0, 2, 1, 4, 3))
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
    assert flop.weight_values() == (2, 1, 1, -1, -1)
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
    assert step.weight_values() == (7, 5, 1, -3, -2)


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


def test_restrict_walk_100(raw100):
    steps = restrict_walk(well_form_model(raw100))
    assert [s.restricted_kind for s in steps] == ["iso", "flop", "divisorial"]
    assert steps[0].witnesses == ("y4^2",)
    assert steps[1].witnesses == ("u*y1^9",)
    assert steps[1].restricted_values() == (1, 1, -1, -1)


def test_restrict_walk_110_p4(raw110p4):
    steps = restrict_walk(well_form_model(raw110p4))
    assert [s.restricted_kind for s in steps] == ["iso", "flip", "divisorial"]
    assert steps[0].witnesses == ("y1^7",)
    assert steps[1].restricted_values() == (5, 1, -3, -2)
    assert steps[1].witnesses == ("u*y3^3",)


def test_restrict_walk_110_p2_unprojected(raw110p2):
    wf = well_form_model(raw110p2)
    pieces = needs_unprojection(wf)
    assert pieces is not None
    model = unproject(wf, pieces)
    steps = restrict_walk(model)
    assert [s.restricted_kind for s in steps] == ["iso", "iso", "flip", "divisorial"]
    assert steps[2].restricted_values() == (8, 1, -3, -5)
    assert set(steps[2].witnesses) == {"u*y", "y2*y"}


def test_divisorial_target_examples(raw100, raw110p4, raw110p2):
    t100 = divisorial_target(well_form_model(raw100), "y2")
    assert (t100.weights, t100.degrees, t100.contracted) == ((1, 1, 1, 3, 5), (10,), "y0")
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
            ambient_sum = sum(step.weight_values())
            eliminated = sum(step.weight_values()) - sum(step.restricted_values())
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
        for stage in (model, well_form_model(model)):
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
