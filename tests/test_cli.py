from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fano2ray
from expected import hand_written_parser
from fano2ray.catalog import load_catalog
from fano2ray.cli import Command, _read_plain, build_parser, main, run, serialize
from fano2ray import linkengine, singular
from fano2ray.linkengine import verify_tables
from fano2ray.singular import singular_locus


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


@pytest.mark.parametrize(
    "command",
    [
        Command(verb="analyze"),
        Command(verb="exclude"),
        Command(verb="game", point="p4"),
        Command(verb="game", family=110),
        Command(verb="bogus", family=110),
    ],
    ids=[
        "analyze-without-family",
        "exclude-without-family",
        "game-without-family",
        "game-without-point",
        "unknown-verb",
    ],
)
def test_game_requires_point(command):
    # run rejects what the grammar rejects, with the usage status
    with pytest.raises(SystemExit) as err:
        run(command)
    assert err.value.code == 2


def test_game_tangent_inferred_when_unique():
    status, report = run(Command(verb="game", family=110, point="p4"))
    assert status == 0
    assert report["tangent"] == "x2"


def test_game_report_labels_exactly_the_recorded_links():
    # run_game returns no recorded value: the game verb attaches a link's
    # recorded singularity label, and of the 55 elementary links of the 87
    # games exactly the six recorded ones carry one
    recorded = {
        (rec.id, exp.point): exp.label for rec in load_catalog() for exp in rec.expected.links
    }
    games, labels = 0, {}
    for rec in load_catalog():
        for entry in singular_locus(rec):
            for _, t in entry.tangent_candidates:
                point = entry.site.label
                command = Command(verb="game", family=rec.id, point=point, tangent=f"x{t}")
                status, report = run(command)
                assert status == 0
                games += 1
                target = report["outcome"]["target"]
                assert (target is not None) == (report["outcome"]["kind"] == "elementary_link")
                if target is not None:
                    labels[rec.id, point, t] = target["label"]
    assert (games, len(labels)) == (87, 55)
    labelled = [((fid, point), label) for (fid, point, _), label in labels.items() if label]
    assert len(labelled) == len(recorded) == 6
    assert dict(labelled) == recorded


@pytest.mark.parametrize("tangent", ["x2", None])
def test_game_locates_its_site_once(monkeypatch, tangent):
    # `run` locates the site to infer the tangent; the report reuses that
    # entry instead of computing the singular locus again
    calls = []

    def counting_singular_locus(record):
        calls.append(record.id)
        return singular_locus(record)

    monkeypatch.setattr(singular, "singular_locus", counting_singular_locus)
    status, report = run(Command(verb="game", family=110, point="p4", tangent=tangent))
    assert status == 0
    assert report["point"] == "p4"
    assert calls == [110]


def test_game_multi_tangent_needs_flag(capsys):
    code = main(["game", "103", "--point", "p1"])
    assert code == 1
    assert "tangent" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["128", "130"])
@pytest.mark.parametrize("tangent", [[], ["--tangent", "x3"]], ids=["inferred", "x3"])
def test_game_at_a_site_without_a_center_names_the_reason(capsys, family, tangent):
    # p1p3 has weights 4 and 6, so it has no graded centering and no tangent
    assert main(["game", family, "--point", "p1p3", *tangent]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: p1p3 of family {family}: neither stratum weight divides the other, "
        "so no graded centering exists\n"
    )


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


def _parser_and_verbs(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from action.choices.values()


GAME_USAGE = {
    "60": (
        "usage: fano2ray game [-h] --point POINT\n"
        "                     [--tangent TANGENT]\n"
        "                     [--format {markdown,json}]\n"
        "                     family\n"
    ),
    "80": (
        "usage: fano2ray game [-h] --point POINT [--tangent TANGENT]\n"
        "                     [--format {markdown,json}]\n"
        "                     family\n"
    ),
    "200": (
        "usage: fano2ray game [-h] --point POINT [--tangent TANGENT] "
        "[--format {markdown,json}] family\n"
    ),
}


@pytest.mark.parametrize("columns", ["60", "80", "200"])
def test_help_wraps_at_the_width_of_columns(monkeypatch, capsys, columns):
    monkeypatch.setenv("COLUMNS", columns)
    helps = [p.format_help() for p in _parser_and_verbs(build_parser())]
    # the same text as the parser written out by hand gives with argparse's
    # own formatter, which reads COLUMNS through shutil.get_terminal_size
    reference = [p.format_help() for p in _parser_and_verbs(hand_written_parser())]
    assert len(helps) == 6
    assert helps == reference
    with pytest.raises(SystemExit):
        main(["game", "--help"])
    assert capsys.readouterr().out.startswith(GAME_USAGE[columns])


#: Command lines as the README and CI write them.
PLAIN_LINES = [
    ["catalog"],
    ["analyze", "103"],
    ["game", "110", "--point", "p2", "--tangent", "x0"],
    ["game", "103", "--point", "p1", "--tangent", "x2"],
    ["exclude", "110"],
    ["verify", "--format", "json"],
    ["verify"],
]


@pytest.mark.parametrize("argv", PLAIN_LINES, ids=" ".join)
def test_plain_lines_are_read_without_a_parser(argv):
    command = _read_plain(argv)
    assert command is not None
    assert command == Command(**vars(build_parser().parse_args(argv)))


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["verify", "-h"],
        ["verify", "--form", "json"],
        ["verify", "--format=json"],
        ["verify", "--format", "json", "--format", "json"],
        ["verify", "--format", "md"],
        ["verify", "--format"],
        ["verify", "--", "--format", "json"],
        ["verify", "100"],
        ["analyze"],
        ["analyze", "+5"],
        ["analyze", "-5"],
        ["analyze", "٣"],
        ["analyze", "100", "100"],
        ["game", "100"],
        ["game", "100", "--point", "--tangent", "x2"],
    ],
    ids=repr,
)
def test_other_lines_are_left_to_argparse(argv):
    assert _read_plain(argv) is None


def test_a_family_int_cannot_read_is_left_to_argparse(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() reads any number of digits")
    argv = ["analyze", "9" * (limit + 1)]
    assert _read_plain(argv) is None
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


ARGV_TOKENS = (
    "catalog", "analyze", "game", "exclude", "verify",
    "100", "007", "٣", "-5", "+5", "",
    "--format", "--form", "--format=json", "json", "markdown", "md",
    "--point", "--poi", "p3", "--tangent", "x2",
    "--", "-h",
)
#: Options with values a plain line may give them.
PLAIN_OPTIONS = (
    ("--format", "json"), ("--format", "markdown"), ("--point", "p3"), ("--tangent", "x2"),
)


@st.composite
def argvs(draw):
    """Lines of ``ARGV_TOKENS``: half drawn token by token, half a verb with
    at most one family and distinct options, in any order, into which one
    token may be inserted."""
    token = st.sampled_from(ARGV_TOKENS)
    if draw(st.booleans()):
        return draw(st.lists(token, max_size=8))
    family = draw(st.sampled_from([(), ("100",), ("007",)]))
    options = draw(st.lists(st.sampled_from(PLAIN_OPTIONS), max_size=3, unique_by=lambda o: o[0]))
    pieces = draw(st.permutations([family, *options]))
    argv = [draw(st.sampled_from(ARGV_TOKENS[:5])), *(t for piece in pieces for t in piece)]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(token))
    return argv


# about one line in ten is plain
@settings(max_examples=500)
@given(argvs())
def test_plain_reader_agrees_with_argparse(argv):
    command = _read_plain(argv)
    if command is None:
        return
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        pytest.fail(f"argparse rejects the plain line {argv!r} (exit {err.code})")
    assert command == Command(**vars(args))


def test_plain_verify_imports_no_argparse():
    # in a fresh interpreter: this module imports argparse itself
    src = str(Path(fano2ray.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import io, sys\n"
        "import fano2ray.cli\n"
        "sys.stdout = io.StringIO()\n"
        "statuses = [fano2ray.cli.main(['verify', '--format', 'json'])]\n"
        "sys.argv[1:] = ['verify']\n"  # as the console script calls it
        "statuses.append(fano2ray.cli.main())\n"
        "sys.stdout = sys.__stdout__\n"
        "print(statuses, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "[0, 0] []\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "fano2ray.cli", "--help"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: fano2ray [-h] {catalog,analyze,game,exclude,verify}")


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


@pytest.mark.parametrize("tangent", ["x²", "x٣", "x00", "x01", "x5", "x12"])
def test_main_rejects_tangent_names_with_non_ascii_digits(capsys, tangent):
    # a tangent name is one of x0..x4; x5 and beyond are bad names, not indices
    assert main(["game", "110", "--point", "p2", "--tangent", tangent]) == 1
    assert capsys.readouterr().err == f"error: bad variable name {tangent!r}\n"


@pytest.mark.parametrize(
    "row,edited,failure",
    [
        (
            "100 p3 3,1,2 cE6 1,1,1,3,5 ",
            "100 p3 3,1,2 cE6 1,1,1,3,6 ",
            "family 100 p3: expected Z_{10} ⊂ P(1,1,1,3,6)",
        ),
        (
            "100 p3 3,1,2 cE6 1,1,1,3,5 10 hypersurface\n",
            "",
            "families without a fibration witness [100, 101, 102, 103, 110] != "
            "families with a recorded link [101, 102, 103, 110]",
        ),
    ],
    ids=["wrong-target", "missing-link-row"],
)
def test_verify_reports_a_wrong_recorded_target(
    tmp_path, monkeypatch, capsys, row, edited, failure
):
    data = tmp_path / "data"
    shutil.copytree(Path(fano2ray.__file__).parent / "data", data)
    targets = data / "link_targets.txt"
    text = targets.read_text(encoding="utf-8")
    assert text.count(row) == 1
    targets.write_text(text.replace(row, edited), encoding="utf-8")
    monkeypatch.setenv("FANO2RAY_DATA", str(data))

    assert main(["verify", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["solidity"]["links_confirmed"] is False
    assert len(doc["failures"]) == 1
    assert doc["failures"][0].startswith(failure)
    # the library gives the same verdict as the CLI
    report = verify_tables()
    assert not report.ok
    assert report.failures == doc["failures"]


@pytest.mark.parametrize(
    "edited",
    [
        "100 p3 wellformed u,y3,y4,y1,y2 2,1,1,0,-1 -5,0,2,1,4\n",
        "100 p3 wellformed u,y3,y4,y1,y2,y 2,1,1,0,-1,-1 -5,0,2,1,4,3\n",
    ],
    ids=["dropped-y0", "y-for-y0"],
)
def test_verify_reports_a_wrong_recorded_matrix_label(tmp_path, monkeypatch, capsys, edited):
    # a well-formed matrix whose labels differ from the model's is a failure
    # row, not a match (a dropped column) or a bare lookup error (a renamed one)
    data = tmp_path / "data"
    shutil.copytree(Path(fano2ray.__file__).parent / "data", data)
    matrices = data / "reference_matrices.txt"
    row = "100 p3 wellformed u,y3,y4,y1,y2,y0 2,1,1,0,-1,-1 -5,0,2,1,4,3\n"
    text = matrices.read_text(encoding="utf-8")
    assert text.count(row) == 1
    matrices.write_text(text.replace(row, edited), encoding="utf-8")
    monkeypatch.setenv("FANO2RAY_DATA", str(data))

    assert main(["verify", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert (doc["matrices"]["matched"], doc["matrices"]["total"]) == (6, 7)
    assert len(doc["failures"]) == 1
    assert doc["failures"][0].startswith("family 100 p3 wellformed: label mismatch")
    report = verify_tables()
    assert not report.ok
    assert report.failures == doc["failures"]


@pytest.mark.parametrize(
    "row",
    [
        "100 p3 unprojected u,y3,y4,y2,y1,y0 0,5,9,3,2,1 -5,0,2,4,1,3",
        "100 p3 wellformed_unprojected u,y3,y4,y1,y2,y0 2,1,1,0,-1,-1 -5,0,2,1,4,3",
    ],
    ids=["unprojected", "wellformed-unprojected"],
)
def test_verify_reports_a_recorded_matrix_of_a_missing_stage(tmp_path, monkeypatch, capsys, row):
    # the game at 100 p3 needs no unprojection: a recorded unprojected matrix
    # used to crash verify with an AttributeError on None, and a well-formed
    # unprojected one matched the well-formed model
    data = tmp_path / "data"
    shutil.copytree(Path(fano2ray.__file__).parent / "data", data)
    matrices = data / "reference_matrices.txt"
    with open(matrices, "a", encoding="utf-8") as f:
        f.write(row + "\n")
    monkeypatch.setenv("FANO2RAY_DATA", str(data))

    assert main(["verify", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert (doc["matrices"]["matched"], doc["matrices"]["total"]) == (7, 8)
    stage = row.split()[2]
    assert doc["failures"] == [f"family 100 p3 {stage}: the game has no such model"]
    report = verify_tables()
    assert not report.ok
    assert report.failures == doc["failures"]


@pytest.mark.parametrize(
    "row,edited,failure",
    [
        (
            "103 p1 x3 1 1,1,1 x1^9*x4 -3u,0y1,2y4,1y2,4y3,1y0 = no_link",
            "103 p1 x3 1 1,1,1 x1^9*x4 -3u,0y1,2y4,1y2,4y3,1y0 = bad_link",
            "family 103 p1 tangent x3: expected bad_link, got no_link",
        ),
        (
            "102 p2 x0 1 2,2,3",
            "102 p2 x0 2 2,2,3",
            "family 102 p2: point count 1 != recorded 2",
        ),
        (
            "-5u,0y2,1y3,4y4,8y(21),1y1,3y0 = bad_link",
            "-5u,0y2,1y3,4y4,8y(21),1y1,3y0 -5u,0y2,1y3,4y4,8y(21),1y1,4y0 bad_link",
            "family 102 p2 tangent x0: blow-up row -5u,0y2,1y3,4y4,8y(21),1y1,3y0 != "
            "recorded -5u,0y2,1y3,4y4,8y(21),1y1,4y0",
        ),
        (
            "102 p2 x0 1 2,2,3 x2^5*x0 ",
            "102 p2 x0 1 2,2,3 x2^3*x0^11 ",
            "family 102 p2: recorded key x2^3*x0^11 is degree-consistent but not in "
            "the support data",
        ),
    ],
    ids=["verdict", "point-count", "corrected-blowup", "key-not-in-support"],
)
def test_verify_reports_a_wrong_recorded_exclusion(
    tmp_path, monkeypatch, capsys, row, edited, failure
):
    data = tmp_path / "data"
    shutil.copytree(Path(fano2ray.__file__).parent / "data", data)
    exclusions = data / "exclusions.txt"
    text = exclusions.read_text(encoding="utf-8")
    assert text.count(row) == 1
    exclusions.write_text(text.replace(row, edited), encoding="utf-8")
    monkeypatch.setenv("FANO2RAY_DATA", str(data))

    assert main(["verify", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["failures"] == [failure]
    report = verify_tables()
    assert not report.ok
    assert report.failures == doc["failures"]


@pytest.mark.parametrize(
    "name,row,edited,failures,section,fields,markdown_row",
    [
        (
            "link_targets.txt",
            "100 p3 3,1,2 ",
            "100 p9 3,1,2 ",
            ["family 100 p9: family 100 has no singular site 'p9'"],
            "links",
            {"family": 100, "point": "p9", "computed": None, "unprojected": None},
            "| 100 | p9 (cE6) | - | False |",
        ),
        (
            "exclusions.txt",
            "101 p2 x3 ",
            "101 p2 x2 ",
            ["family 101 p2 tangent x2: x2 is not a tangent candidate at p2 of family 101"],
            "exclusions",
            {"family": 101, "site": "p2", "tangent": "x2", "count": None, "minus_k": None},
            "| 101 | p2 | x2 | - | False |",
        ),
        (
            "link_targets.txt",
            "110 p2 1,4,1 cE7/2 1,1,2,2,3,5 6,7 unprojection\n",
            "110 p2 1,4,1 cE7/2 1,1,2,2,3,5 6,7 unprojection\n"
            "128 p1p3 1,1,1 cE6 1,1,1,3,5 10 hypersurface\n",
            [
                "family 128 p1p3: p1p3 of family 128: neither stratum weight divides the "
                "other, so no graded centering exists",
                "families without a fibration witness [100, 101, 102, 103, 110] != "
                "families with a recorded link [100, 101, 102, 103, 110, 128]",
            ],
            "links",
            {"family": 128, "point": "p1p3", "computed": None, "unprojected": None},
            "| 128 | p1p3 (cE6) | - | False |",
        ),
        (
            "reference_matrices.txt",
            "110 p4 raw ",
            "110 p9 raw ",
            ["family 110 p9 raw: family 110 has no singular site 'p9'"],
            "matrices",
            {"family": 110, "point": "p9", "stage": "raw", "method": None},
            "- matrices: 6/7 matched",
        ),
    ],
    ids=["unknown-site", "not-a-tangent", "site-without-a-center", "matrix-at-an-unknown-site"],
)
def test_verify_reports_a_recorded_game_that_cannot_run(
    tmp_path, monkeypatch, capsys, name, row, edited, failures, section, fields, markdown_row
):
    # a row whose game cannot run is a failure row like any other: verify
    # prints its whole document, in both formats, and nothing on stderr
    data = tmp_path / "data"
    shutil.copytree(Path(fano2ray.__file__).parent / "data", data)
    table = data / name
    text = table.read_text(encoding="utf-8")
    assert text.count(row) == 1
    table.write_text(text.replace(row, edited), encoding="utf-8")
    monkeypatch.setenv("FANO2RAY_DATA", str(data))

    assert main(["verify", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["ok"] is False
    assert doc["failures"] == failures
    failed = [r for r in doc[section]["rows"] if not r["matched"]]
    assert len(failed) == 1 and failed[0].items() >= fields.items()
    assert doc[section]["total"] - doc[section]["matched"] == 1
    # the failure row has the keys of the table's computed rows
    assert {frozenset(r) for r in doc[section]["rows"]} == {frozenset(failed[0])}

    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    bullets = "".join(f"- {f}\n" for f in failures)
    assert captured.out.endswith(f"\n## failures\n{bullets}\nFAILED\n")
    # a null computed field prints as "-", as every missing value does
    assert "| None |" not in captured.out
    assert f"\n{markdown_row}\n" in captured.out
    report = verify_tables()
    assert not report.ok
    assert report.failures == failures


def test_verify_reports_each_row_of_a_family_whose_locus_raises(tmp_path, monkeypatch, capsys):
    # X_17 in P(1,2,3,6,7) is well-formed and of index 2, but its vertex p1
    # is not terminal: the locus raises once, and each of the four rows at
    # family 100 is one failure
    data = tmp_path / "data"
    shutil.copytree(Path(fano2ray.__file__).parent / "data", data)
    families = data / "families.txt"
    text = families.read_text(encoding="utf-8")
    assert text.count("100 1,2,3,5,9 18 no -\n") == 1
    families.write_text(
        text.replace("100 1,2,3,5,9 18 no -\n", "100 1,2,3,6,7 17 no -\n"), encoding="utf-8"
    )
    monkeypatch.setenv("FANO2RAY_DATA", str(data))
    loci = []
    original = singular.singular_locus

    def counting(record):
        loci.append(record.id)
        return original(record)

    # the replay's binding, and the one locate calls
    monkeypatch.setattr(singular, "singular_locus", counting)
    monkeypatch.setattr(linkengine, "singular_locus", counting)

    assert main(["verify", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["ok"] is False
    reason = "local weight 0 shares a factor with r=2"
    assert doc["failures"] == [
        f"family 100 {row}: {reason}"
        for row in ("p3", "p2p4 tangent x4", "p3 raw", "p3 wellformed")
    ]
    assert [(doc[s]["matched"], doc[s]["total"]) for s in ("links", "exclusions", "matrices")] == [
        (5, 6),
        (6, 7),
        (5, 7),
    ]
    assert doc["solidity"]["links_confirmed"] is False
    assert loci.count(100) == 1
    # each failure row has the keys of its table's computed rows
    for section in ("links", "exclusions", "matrices"):
        keys = {frozenset(r) for r in doc[section]["rows"] if r["matched"]}
        failed = [frozenset(r) for r in doc[section]["rows"] if not r["matched"]]
        assert len(keys) == 1 and failed and set(failed) == keys


def test_verify_markdown_sections():
    _, report = run(Command(verb="verify"))
    md = serialize(report, "markdown")
    assert "links: 6/6 matched" in md
    assert "exclusions: 7/7 matched" in md
    assert "deviations" in md
    assert md.rstrip().endswith("OK")


GOLDEN = Path(__file__).parent / "golden"


def test_verify_json_matches_golden(capsys):
    assert main(["verify", "--format", "json"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "verify.json").read_bytes()


def test_verify_markdown_matches_golden(capsys):
    # markdown is the default format
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "verify.md").read_bytes()


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["verify", "--form", "json"], "verify.json"),
        (["verify", "--format=json"], "verify.json"),
        (["verify", "--format", "json", "--format", "markdown"], "verify.md"),
    ],
    ids=["abbreviated", "equals-sign", "repeated"],
)
def test_main_reads_other_lines_as_argparse_does(capsys, argv, golden):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()


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
