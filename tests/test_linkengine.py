from __future__ import annotations

import re
from collections import Counter

import pytest

from fano2ray import cli, exclusion, linkengine
from fano2ray.catalog import MATRIX_STAGES, FamilyRecord, family, load_catalog
from fano2ray.linkengine import GameTrace, run_game, verify_tables
from fano2ray.singular import blowup_weights, locate, singular_locus
from fano2ray.toric2ray import (
    MONO_VARIABLES,
    build_model,
    needs_unprojection,
    restrict_walk,
    unproject,
    well_form_model,
)

from expected import INDEX_ONE, data_copy, values


def raw_model(fid, point, tangent):
    rec = family(fid)
    return build_model(rec, blowup_weights(rec, locate(rec, point), tangent))


def vec(**exponents):
    return tuple(exponents.get(lab, 0) for lab in MONO_VARIABLES)


def test_needs_unprojection_110_p2():
    model = raw_model(110, "p2", "x0")
    piece_u, piece_center = needs_unprojection(model)
    # g = u*(y1^7 + u*y3^3 + ...) + y2*(y4^2 + y2^3*y0 + ...)
    assert vec(y1=7) in piece_u
    assert vec(u=1, y3=3) in piece_u
    assert vec(y4=2) in piece_center
    assert vec(y2=3, y0=1) in piece_center


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
    piece_u, piece_center = needs_unprojection(model)

    def times(m, lab):
        i = MONO_VARIABLES.index(lab)
        return (*m[:i], m[i] + 1, *m[i + 1 :])

    rebuilt = {times(m, "u") for m in piece_u} | {times(m, model.center) for m in piece_center}
    assert rebuilt == set(model.equations[0].support)


def test_run_game_100_distinguished():
    rec = family(100)
    trace, outcome = run_game(rec, locate(rec, "p3"), "x2")
    assert [s.restricted_kind for s in trace.steps] == ["iso", "flop", "divisorial"]
    assert outcome.kind == "elementary_link"
    assert outcome.model.weights == (1, 1, 1, 3, 5)
    assert outcome.model.degrees == (10,)
    assert outcome.position == "interior"
    assert not trace.unprojected


def test_run_game_rejects_non_integer_tangent():
    # the tangent 2.7 used to run the x2 game
    rec = family(100)
    entry = locate(rec, "p3")
    with pytest.raises(TypeError):
        run_game(rec, entry, 2.7)
    assert run_game(rec, entry, 2) == run_game(rec, entry, "x2")


def test_run_game_110_p4():
    rec = family(110)
    trace, outcome = run_game(rec, locate(rec, "p4"), "x2")
    kinds = [s.restricted_kind for s in trace.steps]
    assert kinds == ["iso", "flip", "divisorial"]
    flip = trace.steps[1]
    assert values(flip.restricted_weights) == (5, 1, -3, -2)
    assert outcome.model.weights == (1, 1, 1, 2, 3)
    assert outcome.model.degrees == (7,)


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


def test_fano_model_adjunction_guard(monkeypatch):
    # the no_link 103 p1 x3 contracts to Z_10 in P(1,1,1,2,5), which fails
    # adjunction; run_game refuses it as the end model of an elementary link
    rec = family(103)
    trace, outcome = run_game(rec, locate(rec, "p1"), "x3")
    bad = trace.final_target
    assert outcome.kind == "no_link" and outcome.model is None
    assert (bad.weights, bad.degrees) == ((1, 1, 1, 2, 5), (10,))

    def walk_to_bad_target(model):
        steps = restrict_walk(model)
        return (*steps[:-1], steps[-1]._replace(target=bad))

    monkeypatch.setattr(linkengine, "restrict_walk", walk_to_bad_target)
    rec = family(100)
    message = "Z_(10,) in P(1, 1, 1, 2, 5) fails the Fano adjunction bound"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_game(rec, locate(rec, "p3"), "x2")


def test_elementary_links_satisfy_adjunction():
    # every elementary link of the 87 games
    links = 0
    for rec in load_catalog():
        for entry in singular_locus(rec):
            for _, tangent in entry.tangent_candidates:
                trace, outcome = run_game(rec, entry, tangent)
                if outcome.kind != "elementary_link":
                    continue
                assert sum(outcome.model.degrees) < sum(outcome.model.weights)
                assert outcome.model is trace.final_target
                links += 1
    assert links == 55


def test_games_of_a_bare_hypersurface_equal_the_catalog_games():
    # the core reads no catalog field: every game run from the weights and
    # the degree alone equals, trace and outcome, the game of the catalog row
    games = 0
    for rec in load_catalog():
        bare = FamilyRecord(weights=rec.weights, degree=rec.degree)
        entries = singular_locus(bare)
        assert entries == singular_locus(rec)
        for entry in entries:
            for _, tangent in entry.tangent_candidates:
                assert run_game(bare, entry, tangent) == run_game(rec, entry, tangent)
                games += 1
    assert games == 87


@pytest.mark.parametrize("catalog", ["index2", "index1"])
def test_only_the_last_step_contracts_a_divisor(catalog):
    # a wall is a contraction only when one ray lies beyond it, which only
    # the last interior wall can have, and only a contraction carries a
    # target: so a divisorial step is unique and last, with no check in
    # run_game
    records = (
        load_catalog()
        if catalog == "index2"
        else [FamilyRecord(weights=w, degree=d) for w, d in INDEX_ONE]
    )
    games = targets = 0
    for rec in records:
        for entry in singular_locus(rec):
            for _, tangent in entry.tangent_candidates:
                steps = run_game(rec, entry, tangent)[0].steps
                assert not any(step.target for step in steps[:-1])
                for step in steps:
                    assert (step.target is None) == (step.contracted is None)
                games += 1
                targets += bool(steps and steps[-1].target)
    assert (games, targets) == {"index2": (87, 64), "index1": (59, 34)}[catalog]


def test_an_end_model_has_one_degree_per_equation_of_the_game_model():
    # the link table records no construction: an end model's degree count
    # states it, since a link ends in codimension 2 exactly when its game
    # was unprojected
    games = links = 0
    records = [*load_catalog(), *(FamilyRecord(weights=w, degree=d) for w, d in INDEX_ONE)]
    for rec in records:
        for entry in singular_locus(rec):
            for _, tangent in entry.tangent_candidates:
                trace, outcome = run_game(rec, entry, tangent)
                if trace.final_target:
                    assert len(trace.final_target.degrees) == len(trace.game_model.equations)
                if outcome.kind == "elementary_link":
                    assert (len(outcome.model.degrees) == 2) == trace.unprojected
                    links += 1
                games += 1
    assert (games, links) == (146, 73)


def test_verify_tables_matches_everything():
    report = verify_tables()
    assert report.ok
    assert all(r["matched"] for r in report.rows["links"])
    assert len(report.rows["links"]) == 6
    assert all(r["matched"] for r in report.rows["exclusions"])
    assert len(report.rows["exclusions"]) == 7
    assert all(r["matched"] for r in report.rows["matrices"])
    assert len(report.rows["matrices"]) == 7


def test_every_matrix_stage_reads_a_trace_field():
    assert tuple(linkengine._STAGE_FIELDS) == MATRIX_STAGES
    assert set(linkengine._STAGE_FIELDS.values()) <= set(GameTrace._fields)


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
    assert first.rows == second.rows
    assert first.deviations == second.deviations
    assert first.failures == second.failures
    assert first.solidity == second.solidity
    assert first.links_confirmed == second.links_confirmed


def test_verify_tables_builds_each_game_once(monkeypatch):
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[f"{module.__name__}.{name}"] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(linkengine, "singular_locus")
    counting(linkengine, "build_model")
    counting(exclusion, "fibration_witness")
    counting(linkengine, "solidity_summary")
    counting(exclusion, "solidity_summary")
    # one singular locus for each of the 5 recorded families; 6 link games and
    # 7 exclusion games, the matrices reusing the link games; one fibration
    # witness per family, all from the one solidity summary
    once = {
        "fano2ray.linkengine.singular_locus": 5,
        "fano2ray.linkengine.build_model": 13,
        "fano2ray.exclusion.fibration_witness": 35,
        "fano2ray.linkengine.solidity_summary": 1,
    }
    verify_tables()
    assert calls == once
    # the CLI renders the report of verify_tables and checks nothing itself
    calls.clear()
    assert cli.run(cli.Command(verb="verify", format="json"))[0] == 0
    assert calls == once


def test_a_row_naming_the_first_tangent_reuses_the_game(tmp_path, monkeypatch):
    # the exclusion row 102 p2 x0 names the site's first tangent candidate,
    # the game a matrix row at 102 p2 refers to: the two rows share one game
    data = data_copy(tmp_path, monkeypatch)
    with open(data / "reference_matrices.txt", "a", encoding="utf-8") as f:
        f.write("102 p2 raw u,y2,y3,y4,y1,y0 0,5,7,13,2,1 -5,0,1,4,1,3\n")
    builds = []
    original = linkengine.build_model
    monkeypatch.setattr(
        linkengine, "build_model", lambda *args: builds.append(args) or original(*args)
    )
    report = verify_tables()
    assert report.ok
    assert len(report.rows["matrices"]) == 8 and report.rows["matrices"][-1]["matched"]
    assert len(builds) == 13
    assert [(rec.id, blow.tangent) for rec, blow in builds].count((102, 0)) == 1


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
