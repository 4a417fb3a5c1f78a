"""Acceptance suite: one test per criterion, everything exact, total under 5s.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from fano2ray.catalog import (
    SOLID_CANDIDATES,
    anticanonical_cube,
    family,
    fano_index,
    load_catalog,
)
from fano2ray.cli import Command, run, serialize
from fano2ray.exclusion import fibration_witness, smooth_point_test
from fano2ray.linkengine import run_game, verify_tables
from fano2ray.singular import blowup_weights, locate, normalize_terminal
from fano2ray.toric2ray import (
    MONO_VARIABLES,
    ambient_walk,
    build_model,
    minus_k,
    movable_position,
    regrade,
    well_form_model,
)

_T0 = time.perf_counter()


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS  {text}")


def _game(fid, point, tangent):
    rec = family(fid)
    return run_game(rec, locate(rec, point), tangent)


def test_criterion_01_catalog_replay():
    records = load_catalog()
    assert len(records) == 35
    for r in records:
        assert fano_index(r.weights, r.degree) == r.index
    _report(1, "35 records load and every recomputed index matches")


def test_criterion_02_curve_test_exact_cubes():
    expected = {
        100: Fraction(8, 15),
        101: Fraction(8, 21),
        102: Fraction(8, 35),
        103: Fraction(8, 165),
        110: Fraction(27, 40),
    }
    for fid, value in expected.items():
        cube = anticanonical_cube(family(fid))
        assert cube == value
        assert cube < 1
    _report(2, "anticanonical cubes equal 8/15, 8/21, 8/35, 8/165, 27/40, all < 1")


def test_criterion_03_non_solidity_partition():
    witnessed = set()
    for r in load_catalog():
        w = fibration_witness(r)
        if w is None:
            continue
        witnessed.add(r.id)
        assert w.fibre_canonical_degree < 0
    assert witnessed == set(range(96, 131)) - set(SOLID_CANDIDATES)
    assert len(witnessed) == 30
    _report(3, "exactly 30 families carry a fibration witness, negative fibre degree")


def test_criterion_04_smooth_point_test():
    rep = smooth_point_test(family(110), 15)
    assert rep.test_value == Fraction(27, 8) and rep.certified
    rep = smooth_point_test(family(103), 165)
    assert rep.test_value == Fraction(4) and rep.certified
    for fid in (100, 101, 102):
        rep = smooth_point_test(family(fid))
        assert rep.test_value == Fraction(8)
        assert not rep.certified
    deviations = verify_tables().deviations
    flagged = {d.family for d in deviations if d.kind == "smooth_point_bound"}
    assert flagged == {100, 101, 102}
    _report(4, "smooth-point values 27/8, 4 certified; 100-102 give 8, flagged")


def test_criterion_05_kawamata_normalizations():
    assert normalize_terminal(5, (1, 2, 4)).per_variable_form == (3, 1, 2)
    assert normalize_terminal(5, (3, 2, 3)).per_variable_form == (1, 4, 1)
    assert normalize_terminal(8, (1, 3, 7)).per_variable_form == (3, 1, 5)
    deviations = verify_tables().deviations
    assert any(
        d.kind == "kawamata_format" and d.recorded == "1/8(3,2,5)" and d.derived == "1/8(3,1,5)"
        for d in deviations
    )
    _report(5, "(3,1,2), (1,4,1), (3,1,5) with the recorded (3,2,5) as a deviation")


def test_criterion_06_well_formed_matrix_family_100():
    rec = family(100)
    model = well_form_model(build_model(rec, blowup_weights(rec, locate(rec, "p3"), "x2")))
    assert model.labels == ("u", "y3", "y4", "y1", "y2", "y0")
    assert model.rows() == ((2, 1, 1, 0, -1, -1), (-5, 0, 2, 1, 4, 3))
    _report(6, "family 100 well-forms to (2,1,1,0,-1,-1 / -5,0,2,1,4,3)")


def test_criterion_07_bihomogeneity_and_u_column():
    games = [
        (100, "p3", "x2"), (101, "p3", "x0"), (102, "p3", "x2"), (103, "p3", "x2"),
        (110, "p4", "x2"), (110, "p2", "x0"), (100, "p2p4", "x4"), (101, "p2", "x3"),
        (102, "p2", "x0"), (103, "p1", "x0"), (103, "p1", "x2"), (103, "p1", "x3"),
        (103, "p2", "x1"),
    ]
    for fid, point, tangent in games:
        trace, _ = _game(fid, point, tangent)
        for model in (trace.raw, trace.well_formed, trace.game_model):
            cols = model.column_map()
            for eq in model.equations:
                for m in eq.support:
                    deg = tuple(
                        sum(e * cols[lab][i] for lab, e in zip(MONO_VARIABLES, m) if e)
                        for i in range(2)
                    )
                    assert deg == eq.bidegree
    deviations = verify_tables().deviations
    assert any(
        d.kind == "grading_u_column" and d.recorded == "(3, 21)" and d.derived == "(3, 16)"
        for d in deviations
    )
    _report(7, "all equations bihomogeneous; 110/p2 u-column forced to (3,16) vs 21")


def test_criterion_08_link_targets():
    expected = {
        (100, "p3", "x2"): ((1, 1, 1, 3, 5), (10,)),
        (101, "p3", "x0"): ((1, 1, 1, 4, 6), (12,)),
        (102, "p3", "x2"): ((1, 1, 2, 4, 7), (14,)),
        (103, "p3", "x2"): ((1, 1, 3, 7, 11), (22,)),
        (110, "p4", "x2"): ((1, 1, 1, 2, 3), (7,)),
        (110, "p2", "x0"): ((1, 1, 2, 2, 3, 5), (6, 7)),
    }
    for (fid, point, tangent), (weights, degrees) in expected.items():
        trace, outcome = _game(fid, point, tangent)
        assert outcome.kind == "elementary_link", (fid, point)
        assert outcome.model.weights == weights
        assert outcome.model.degrees == degrees
        assert trace.steps[-1].restricted_kind == "divisorial"
        assert trace.unprojected == ((fid, point) == (110, "p2"))
    _report(8, "all six link games end on the exact recorded Fano models")


def test_criterion_09_game_step_shapes():
    trace, _ = _game(100, "p3", "x2")
    assert [s.restricted_kind for s in trace.steps] == ["iso", "flop", "divisorial"]
    assert trace.steps[1].restricted_values() == (1, 1, -1, -1)
    trace, _ = _game(110, "p4", "x2")
    assert any(
        s.restricted_kind == "flip" and s.restricted_values() == (5, 1, -3, -2)
        for s in trace.steps
    )
    trace, _ = _game(110, "p2", "x0")
    kinds = [s.restricted_kind for s in trace.steps]
    assert kinds[:2] == ["iso", "iso"]
    assert trace.steps[2].restricted_kind == "flip"
    assert trace.steps[2].restricted_values() == (8, 1, -3, -5)
    _report(9, "traces show Flop(1,1,-1,-1), Flip(5,1,-3,-2), Flip(8,1,-3,-5) after two isos")


def test_criterion_10_exclusion_verdicts():
    expected = {
        (100, "p2p4", "x4"): "bad_link",
        (101, "p2", "x3"): "bad_link",
        (102, "p2", "x0"): "bad_link",
        (103, "p1", "x3"): "no_link",
        (103, "p1", "x2"): "bad_link",
        (103, "p1", "x0"): "no_link",
        (103, "p2", "x1"): "bad_link",
    }
    for (fid, point, tangent), verdict in expected.items():
        trace, outcome = _game(fid, point, tangent)
        assert outcome.kind == verdict, (fid, point, tangent)
        position = movable_position(trace.game_model, minus_k(trace.game_model))
        assert position == {"bad_link": "boundary", "no_link": "outside"}[verdict]
    # family 101: the anticanonical class is exactly the movable-cone boundary ray
    rec = family(101)
    raw = build_model(rec, blowup_weights(rec, locate(rec, "p2"), "x3"))
    assert minus_k(raw) == (2, 1)
    assert raw.columns[-2] == ("y1", (2, 1))
    assert movable_position(raw, (2, 1)) == "boundary"
    _report(10, "all seven exclusion verdicts reproduced; 101 sits on the boundary at (2,1)")


def test_criterion_11_property_suite():
    # flip weights invariant under unimodular regrading
    rec = family(110)
    model = build_model(rec, blowup_weights(rec, locate(rec, "p4"), "x2"))
    for matrix in (((1, 1), (0, 1)), ((1, 0), (2, 1)), ((2, 1), (1, 1))):
        assert [s.ambient_weights for s in ambient_walk(model)] == [
            s.ambient_weights for s in ambient_walk(regrade(model, matrix))
        ]
    # divisorial target independent of grading and sign conventions
    from fano2ray.toric2ray import divisorial_target

    t_raw = divisorial_target(model, "y2")
    t_wf = divisorial_target(well_form_model(model), "y2")
    t_sheared = divisorial_target(regrade(model, ((1, 3), (0, 1))), "y2")
    assert t_raw == t_wf == t_sheared
    # json round-trip
    import json

    _, report = run(Command(verb="verify", format="json"))
    assert json.loads(serialize(report, "json")) == report
    # smooth-point monotonicity: certified at h implies certified below h
    for h in range(1, 16):
        assert smooth_point_test(family(110), h).certified
    assert not smooth_point_test(family(110), 18).certified
    _report(11, "flip-weight invariance, target invariance, json round-trip, monotonicity")


def test_total_runtime_under_five_seconds():
    elapsed = time.perf_counter() - _T0
    assert elapsed < 5.0, f"acceptance suite took {elapsed:.2f}s"
    print(f"ACCEPTANCE total runtime {elapsed:.2f}s (< 5s)")
