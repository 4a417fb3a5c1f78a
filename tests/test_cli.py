from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fano2ray
from fano2ray.cli import Command, main, run, serialize


def test_verify_json_roundtrip_and_status():
    status, report = run(Command(verb="verify", format="json"))
    assert status == 0
    text = serialize(report, "json")
    assert json.loads(text) == report
    assert report["deviations"]
    assert report["ok"]


def test_game_markdown_mentions_end_model():
    status, report = run(Command(verb="game", family=110, point="p2", tangent="x0"))
    assert status == 0
    text = serialize(report, "markdown")
    assert "Z_{6,7} ⊂ P(1,1,2,2,3,5)" in text
    assert "unprojection" in text


def test_analyze_smooth_family():
    status, report = run(Command(verb="analyze", family=96))
    assert status == 0
    assert report["smooth"] is True
    assert report["singular_locus"] == []
    assert "smooth hypersurface" in serialize(report, "markdown")


def test_catalog_reports_35_rows():
    status, report = run(Command(verb="catalog"))
    assert status == 0
    assert report["count"] == 35
    text = serialize(report, "markdown")
    assert "X_18 ⊂ P(1,2,3,5,9)" in text


def test_exclude_json_values():
    status, report = run(Command(verb="exclude", family=110))
    assert status == 0
    assert report["smooth_point"]["test_value"] == {"num": 27, "den": 8}
    assert report["smooth_point"]["certified"] is True
    assert report["curve"]["test_value"] == {"num": 27, "den": 40}
    assert report["fibration"] is None
    status, report = run(Command(verb="exclude", family=122))
    assert report["fibration"]["degrees"] == [14, 6]


def test_markdown_and_json_share_numeric_content():
    _, report = run(Command(verb="exclude", family=110))
    md = serialize(report, "markdown")
    assert "27/8" in md and "27/40" in md


def test_empty_report_serializes_minimally():
    assert json.loads(serialize({}, "json")) == {}


def test_game_requires_point():
    with pytest.raises(SystemExit):
        run(Command(verb="game", family=110))


def test_game_tangent_inferred_when_unique():
    status, report = run(Command(verb="game", family=110, point="p4"))
    assert status == 0
    assert report["tangent"] == "x2"


def test_game_multi_tangent_needs_flag(capsys):
    code = main(["game", "103", "--point", "p1"])
    assert code == 1
    assert "tangent" in capsys.readouterr().err


def test_main_verify_exit_zero(capsys):
    code = main(["verify", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert {d["kind"] for d in doc["deviations"]} >= {
        "kawamata_format",
        "grading_u_column",
        "key_monomial_degree",
    }


def test_main_usage_error_status(capsys):
    with pytest.raises(SystemExit) as err:
        main(["game"])  # missing family and --point
    assert err.value.code == 2


def test_main_bad_family(capsys):
    code = main(["analyze", "7"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["game", "100", "--point", "p9"], "family 100 has no singular site 'p9'"),
        (["analyze", "131"], "no family 131; ids run 96..130"),
    ],
    ids=["unknown-site", "unknown-family"],
)
def test_main_prints_lookup_errors_unquoted(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_markdown_sections():
    _, report = run(Command(verb="verify"))
    md = serialize(report, "markdown")
    assert "links: 6/6 matched" in md
    assert "exclusions: 7/7 matched" in md
    assert "deviations" in md
    assert md.rstrip().endswith("OK")


GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify.json"


def test_verify_json_matches_golden(capsys):
    assert main(["verify", "--format", "json"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == GOLDEN_VERIFY.read_bytes()


def test_game_json_independent_of_hash_seed():
    # iso witnesses are picked from sets of labelled tuples, whose iteration
    # order follows the string hash seed
    src = str(Path(fano2ray.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fano2ray.cli", "game", "113", "--point", "p4",
             "--tangent", "x0", "--format", "json"],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
