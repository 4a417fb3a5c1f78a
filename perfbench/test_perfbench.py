"""Tests of the benchmark's own pieces: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fano2ray  # noqa: E402
import fano2ray.cli  # noqa: E402
from fano2ray import catalog, linkengine, singular, toric2ray  # noqa: E402
from fano2ray.catalog import load_catalog, monomial_support, well_form_weights  # noqa: E402

import workloads  # noqa: E402
from inputs import candidate_stream, is_well_formed, support_count  # noqa: E402
from tracing import TRACED, Tracer, layer_metrics, per_function, self_times  # noqa: E402


@pytest.mark.parametrize(
    "weights, degree",
    [
        ((1, 1, 1, 1, 1), 4),
        ((1, 1, 2, 3, 5), 10),
        ((1, 1, 3, 7, 11), 22),
        ((2, 3, 5, 7, 11), 1),
        ((3, 4, 5, 6, 20), 0),
        ((1, 2, 3, 5, 19), 57),
    ],
)
def test_support_count_matches_monomial_support(weights, degree):
    assert support_count(weights, degree) == len(monomial_support(weights, degree))


def test_support_count_of_negative_degree_is_zero():
    assert support_count((1, 2, 3, 4, 5), -1) == 0


def test_well_formed_check_agrees_with_catalog():
    for weights in itertools.combinations_with_replacement(range(1, 9), 5):
        assert is_well_formed(weights) == (well_form_weights(weights) == weights), weights


def test_candidate_stream_is_deterministic_and_valid():
    first = list(itertools.islice(candidate_stream(1), 300))
    assert first == list(itertools.islice(candidate_stream(1), 300))
    assert first != list(itertools.islice(candidate_stream(2), 300))
    assert len(set(first)) == len(first)
    for weights, degree in first:
        assert max(weights) <= 20 and well_form_weights(weights) == weights
        assert 2 <= sum(weights) - degree <= 20 and degree >= 1


def test_self_times_on_a_hand_built_tree():
    spans = [
        ["root", 0, 100, None],
        ["a", 10, 40, 0],
        ["a.child", 15, 25, 1],
        ["a.child", 30, 32, 1],
        ["b", 50, 80, 0],
        ["other_root", 120, 130, None],
    ]
    assert self_times(spans) == [100 - 30 - 30, 30 - 10 - 2, 10, 2, 30, 10]


def test_per_function_sums_calls_and_self_time():
    spans = [
        ["m.f", 0, 50, None],
        ["m.g", 10, 20, 0],
        ["m.g", 30, 45, 0],
        ["m.f", 60, 70, None],
    ]
    assert per_function(spans) == {"m.f": (2, 25 + 10), "m.g": (2, 25)}


def _bindings(original):
    return [
        (name, attr)
        for name, mod in sys.modules.items()
        if name == "fano2ray" or name.startswith("fano2ray.")
        for attr, value in vars(mod).items()
        if value is original
    ]


def test_tracer_installs_everywhere_and_uninstalls_cleanly():
    originals = {
        name: getattr(sys.modules["fano2ray." + name.split(".")[0]], name.split(".")[1])
        for name in TRACED
    }
    bound = {name: _bindings(fn) for name, fn in originals.items()}
    assert ("fano2ray.linkengine", "build_model") in bound["toric2ray.build_model"]
    assert ("fano2ray.cli", "singular_locus") in bound["singular.singular_locus"]

    tracer = Tracer()
    with tracer:
        for name, fn in originals.items():
            assert _bindings(fn) == [], f"{name} still bound unwrapped"
        assert linkengine.build_model.__wrapped__ is originals["toric2ray.build_model"]
        records = load_catalog()
        workloads.sweep_pass(records, {})
    for name, fn in originals.items():
        assert _bindings(fn) == bound[name], f"{name} not restored"
    assert fano2ray.run_game is originals["linkengine.run_game"]
    assert catalog.monomial_support is originals["catalog.monomial_support"]
    assert toric2ray.build_model is linkengine.build_model is originals["toric2ray.build_model"]

    layers = layer_metrics(tracer, 0)
    assert layers["linkengine.run_game.calls"] == 87
    assert layers["toric2ray.build_model.calls"] == 87
    assert layers["toric2ray.restrict_walk.calls"] == 87
    assert layers["singular.singular_locus.calls"] == 35
    assert layers["linkengine.builds_per_game"] == 1.0
    assert sum(layers[f"{m}.share"] for m in ("catalog", "singular", "toric2ray",
                                               "linkengine", "exclusion", "cli")) == pytest.approx(1)


def test_tracer_counts_raised_calls_and_keeps_the_exception():
    record = catalog.FamilyRecord(
        id=0, weights=(1, 2, 3, 4, 5), degree=7, rational=False,
        expected=catalog.FamilyExpectations(),
    )
    tracer = Tracer(names=("singular.singular_locus",))
    with tracer, pytest.raises(singular.NotTerminal):
        singular.singular_locus(record)
    assert tracer.raised == {"singular.singular_locus": 1}
    assert tracer.spans[0][0] == "singular.singular_locus" and tracer.spans[0][2] > 0
    assert singular.singular_locus is fano2ray.singular_locus


def test_checks_pass_on_the_current_package():
    records = load_catalog()
    _, op_ns, games = workloads.sweep_pass(records, {})
    attempted, failed, errors, info = workloads.check_sweep(games, {})
    assert (attempted, failed, errors) == (87, 0, [])
    assert len(op_ns) == 87
    job = {"candidates": list(itertools.islice(candidate_stream(3), 200))}
    _, _, outcomes = workloads.scan_pass(records, job)
    assert workloads.check_scan(outcomes, job)[:3] == (200, 0, [])
    _, _, results = workloads.verify_pass(records, {})
    assert workloads.check_verify(results, {})[:3] == (1, 0, [])


def test_checks_flag_wrong_outputs():
    games = [(110, "p2", 0, ValueError("boom"))]
    attempted, failed, errors, _ = workloads.check_sweep(games, {})
    assert (attempted, failed) == (1, 1) and len(errors) == 3  # raise, count, missing links
    outcomes = [((1, 1, 1, 1, 1), 4, 71, None), ((1, 1, 1, 1, 2), 3, None, KeyError("x"))]
    assert workloads.check_scan(outcomes, {})[:2] == (2, 2)
    assert workloads.check_verify({"status": 1, "output": ""}, {})[:2] == (1, 1)
