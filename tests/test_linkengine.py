from __future__ import annotations

import pytest

from fano2ray import linkengine
from fano2ray.catalog import family, load_catalog
from fano2ray.linkengine import (
    FanoModel,
    needs_unprojection,
    run_game,
    unproject,
    verify_tables,
)
from fano2ray.singular import blowup_weights, locate, singular_locus
from fano2ray.toric2ray import MONO_VARIABLES, build_model, well_form_model


def raw_model(fid, point, tangent):
    rec = family(fid)
    return build_model(rec, blowup_weights(rec, locate(rec, point), tangent))


def vec(**exponents):
    return tuple(exponents.get(lab, 0) for lab in MONO_VARIABLES)


def test_needs_unprojection_110_p2():
    model = raw_model(110, "p2", "x0")
    pieces = needs_unprojection(model)
    assert pieces is not None
    # g = u*(y1^7 + u*y3^3 + ...) + y2*(y4^2 + y2^3*y0 + ...)
    assert vec(y1=7) in pieces.piece_u
    assert vec(u=1, y3=3) in pieces.piece_u
    assert vec(y4=2) in pieces.piece_center
    assert vec(y2=3, y0=1) in pieces.piece_center
    assert pieces.weight == (16, 7)


def test_needs_unprojection_false_for_100():
    model = raw_model(100, "p3", "x2")
    assert needs_unprojection(model) is None
    # y4^2 is in neither factor of the irrelevant ideal
    assert vec(y4=2) in model.equations[0].support


def test_needs_unprojection_false_on_pure_wall_power():
    # a pure power of a variable outside (u, center) escapes both factors
    model = raw_model(110, "p4", "x2")
    assert vec(y1=7) in model.equations[0].support
    assert needs_unprojection(model) is None


def test_unproject_110_p2_weights_and_degrees():
    model = raw_model(110, "p2", "x0")
    pieces = needs_unprojection(model)
    unprojected = unproject(model, pieces)
    assert unprojected.column_map()["y"] == (16, 7)
    assert unprojected.labels == ("u", "y2", "y4", "y1", "y", "y3", "y0")
    assert [eq.bidegree for eq in unprojected.equations] == [(21, 7), (16, 2)]


def test_unproject_elimination_roundtrip():
    # substituting y = B/u into y*y_c + A recovers g up to the factor u:
    # supports satisfy  y_c*B  union  u*A  ==  support(g)
    model = raw_model(110, "p2", "x0")
    pieces = needs_unprojection(model)

    def times(m, lab):
        i = MONO_VARIABLES.index(lab)
        return (*m[:i], m[i] + 1, *m[i + 1 :])

    rebuilt = {times(m, "u") for m in pieces.piece_u} | {
        times(m, model.center) for m in pieces.piece_center
    }
    assert rebuilt == set(model.equations[0].support)


def test_run_game_100_distinguished():
    rec = family(100)
    trace, outcome = run_game(rec, locate(rec, "p3"), "x2")
    assert [s.restricted_kind for s in trace.steps] == ["iso", "flop", "divisorial"]
    assert outcome.kind == "elementary_link"
    assert outcome.model.weights == (1, 1, 1, 3, 5)
    assert outcome.model.degrees == (10,)
    assert outcome.model.label == "cE6"
    assert outcome.position == "interior"
    assert not trace.unprojected


def test_run_game_110_p4():
    rec = family(110)
    trace, outcome = run_game(rec, locate(rec, "p4"), "x2")
    kinds = [s.restricted_kind for s in trace.steps]
    assert kinds == ["iso", "flip", "divisorial"]
    flip = trace.steps[1]
    assert flip.restricted_values() == (5, 1, -3, -2)
    assert outcome.model.weights == (1, 1, 1, 2, 3)
    assert outcome.model.degrees == (7,)
    assert outcome.model.label == "cE7"


def test_run_game_101_third_point_bad_link():
    rec = family(101)
    trace, outcome = run_game(rec, locate(rec, "p2"), "x0")
    assert outcome.kind == "bad_link"
    assert outcome.position == "boundary"
    assert outcome.model is None


def test_run_game_trace_narratives():
    # non-iso step shapes of the six link games
    expected = {
        (100, "p3", "x2"): ["flop", "divisorial"],
        (101, "p3", "x0"): ["flop", "divisorial"],
        (102, "p3", "x2"): ["flop", "divisorial"],
        (103, "p3", "x2"): ["flop", "divisorial"],
        (110, "p4", "x2"): ["flip", "divisorial"],
        (110, "p2", "x0"): ["flip", "divisorial"],
    }
    for (fid, point, tangent), shape in expected.items():
        rec = family(fid)
        trace, outcome = run_game(rec, locate(rec, point), tangent)
        non_iso = [s.restricted_kind for s in trace.steps if s.restricted_kind != "iso"]
        assert non_iso == shape, (fid, point)
        iso_count = len(trace.steps) - len(non_iso)
        assert iso_count == (2 if (fid, point) == (110, "p2") else 1)
        assert outcome.kind == "elementary_link"


def test_run_game_outcome_follows_position():
    games = [
        (100, "p2p4", "x4", "bad_link"),
        (102, "p2", "x0", "bad_link"),
        (103, "p1", "x3", "no_link"),
        (103, "p1", "x2", "bad_link"),
        (103, "p1", "x0", "no_link"),
        (103, "p2", "x1", "bad_link"),
    ]
    for fid, point, tangent, verdict in games:
        rec = family(fid)
        trace, outcome = run_game(rec, locate(rec, point), tangent)
        assert outcome.kind == verdict, (fid, point)
        expected_pos = {"bad_link": "boundary", "no_link": "outside"}[verdict]
        assert outcome.position == expected_pos
        # divisorial step is unique and final
        kinds = [s.restricted_kind for s in trace.steps]
        assert kinds.count("divisorial") == 1 and kinds[-1] == "divisorial"


def test_run_game_fibration_ending_outside_classified_families():
    # family 108's quotient point walks onto a two-ray boundary: the game
    # ends in a fibration rather than a divisorial contraction
    rec = family(108)
    trace, outcome = run_game(rec, locate(rec, "p4"), "x1")
    assert outcome.kind == "fibration"
    assert outcome.position == "interior"
    assert outcome.model is None
    assert all(s.restricted_kind != "divisorial" for s in trace.steps)


def test_fano_model_adjunction_guard():
    with pytest.raises(ValueError):
        FanoModel(weights=(1, 1, 1, 2, 5), degrees=(10,))


def test_elementary_links_satisfy_adjunction():
    for fid, point, tangent in [
        (100, "p3", "x2"),
        (101, "p3", "x0"),
        (102, "p3", "x2"),
        (103, "p3", "x2"),
        (110, "p4", "x2"),
        (110, "p2", "x0"),
    ]:
        rec = family(fid)
        _, outcome = run_game(rec, locate(rec, point), tangent)
        assert sum(outcome.model.degrees) < sum(outcome.model.weights)


def test_verify_tables_matches_everything():
    report = verify_tables()
    assert report.ok
    assert all(r["matched"] for r in report.link_rows)
    assert len(report.link_rows) == 6
    assert all(r["matched"] for r in report.exclusion_rows)
    assert len(report.exclusion_rows) == 7
    assert all(r["matched"] for r in report.matrix_rows)
    assert len(report.matrix_rows) == 7


def test_verify_tables_deviations():
    report = verify_tables()
    found = {(d.kind, d.family, d.recorded, d.derived) for d in report.deviations}
    assert ("kawamata_format", 110, "1/8(3,2,5)", "1/8(3,1,5)") in found
    assert ("grading_u_column", 110, "(3, 21)", "(3, 16)") in found
    assert ("key_monomial_degree", 101, "x2^3*x4", "x0*x2^7|x2^5*x3") in found
    assert ("key_monomial_degree", 103, "x1^13*x0", "x0*x1^12") in found
    assert ("key_monomial_degree", 100, "x4*x2^2", "x2^3*x4") in found
    kinds = {d.kind for d in report.deviations}
    assert {"blowup_row_label", "singularity_type", "ambient_header"} <= kinds


def test_verify_tables_idempotent():
    first = verify_tables()
    second = verify_tables()
    assert first.deviations == second.deviations
    assert first.link_rows == second.link_rows
    assert first.exclusion_rows == second.exclusion_rows


def test_verify_tables_builds_each_game_once(monkeypatch):
    calls = []

    def counting_build_model(*args):
        calls.append(args)
        return build_model(*args)

    monkeypatch.setattr(linkengine, "build_model", counting_build_model)
    verify_tables()
    # 6 link games and 7 exclusion games; the matrices reuse the link games
    assert len(calls) == 13


def test_game_model_is_well_formed_unprojection_on_every_unprojected_game():
    unprojected = 0
    for rec in load_catalog():
        for entry in singular_locus(rec):
            for _, tangent in entry.tangent_candidates:
                trace, _ = run_game(rec, entry, tangent)
                if not trace.unprojected:
                    assert trace.game_model == trace.well_formed
                    continue
                unprojected += 1
                raw_pieces = needs_unprojection(trace.raw)
                assert trace.raw_unprojected == unproject(trace.raw, raw_pieces)
                assert trace.game_model == well_form_model(trace.raw_unprojected)
                # unprojecting commutes with well-forming, equations included
                wf_pieces = needs_unprojection(trace.well_formed)
                assert trace.game_model == unproject(trace.well_formed, wf_pieces)
    assert unprojected == 9
