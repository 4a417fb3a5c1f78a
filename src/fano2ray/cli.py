"""Command-line front end.

Verbs: ``catalog`` (replay the family table), ``analyze`` (singular locus of
one family), ``game`` (one 2-ray game from a chosen point and tangent),
``exclude`` (numerical tests and fibration witness), ``verify`` (render the
report of :func:`fano2ray.linkengine.verify_tables`, which replays all
reference tables plus the solidity cross-check; exit status 0 iff its report
is ok).  Every verb renders either markdown or a stable JSON document;
exact rationals serialize as ``{"num": ..., "den": ...}`` pairs, never as
decimals.  A plain command line (a verb, then its family and exactly spelled
options) is read directly; ``--help``, abbreviations and malformed lines go
through argparse, which is imported only then, with unchanged output.
"""

from __future__ import annotations

import sys

from . import exclusion, linkengine
from ._records import Record
from .catalog import FamilyRecord, family, load_catalog, monomial_str
from .singular import locate, singular_locus
from .toric2ray import DivisorialTarget, RankTwoModel

USAGE_ERROR = 2

_FORMATS = ("markdown", "json")


class Command(Record):
    verb: str
    family: int | None = None
    point: str | None = None
    tangent: str | None = None
    format: str = "markdown"


def _frac(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _frac_str(value: dict) -> str:
    if value["den"] == 1:
        return str(value["num"])
    return f"{value['num']}/{value['den']}"


def _columns(model: RankTwoModel) -> list:
    return [[lab, [v[0], v[1]]] for lab, v in model.columns]


def _end_model(model: DivisorialTarget | None, **extra) -> dict | None:
    if model is None:
        return None
    return {
        "weights": list(model.weights),
        "degrees": list(model.degrees),
        "display": str(model),
        **extra,
    }


# ---------------------------------------------------------------------------
# report builders (plain JSON-safe dictionaries)


def _family_fields(record: FamilyRecord) -> dict:
    """The catalog row of one family, shared by ``catalog`` and ``analyze``."""
    return {
        "family": record.id,
        "weights": list(record.weights),
        "degree": record.degree,
        "index": record.index,
        "rational": record.rational,
    }


def _catalog_report(command: Command) -> tuple[int, dict]:
    rows = [_family_fields(r) for r in load_catalog()]
    return 0, {"verb": "catalog", "count": len(rows), "families": rows}


def _analyze_report(command: Command) -> tuple[int, dict]:
    record = family(command.family)
    sites = []
    for entry in singular_locus(record):
        sites.append(
            {
                "site": entry.site.label,
                "count": entry.count,
                "r": entry.singularity.r,
                "local_weights": [[f"x{i}", w] for i, w in entry.singularity.local_weights],
                "multiplier": entry.singularity.multiplier,
                "kawamata_form": list(entry.singularity.kawamata_form),
                "tangents": [
                    {"key": monomial_str(key), "variable": f"x{t}"}
                    for key, t in entry.tangent_candidates
                ],
            }
        )
    return 0, {
        "verb": "analyze", **_family_fields(record), "singular_locus": sites, "smooth": not sites
    }


def _step_dict(step) -> dict:
    return {
        "wall": step.wall,
        "ambient": {
            "kind": step.ambient_kind,
            "weights": [[lab, w] for lab, w in step.ambient_weights],
            "contracted": step.contracted,
        },
        "restricted": {
            "kind": step.restricted_kind,
            "weights": [[lab, w] for lab, w in step.restricted_weights]
            if step.restricted_weights
            else None,
            "witnesses": list(step.witnesses),
        },
        "target": _end_model(step.target, contracted=step.contracted),
    }


def _game_report(command: Command) -> tuple[int, dict]:
    record = family(command.family)
    entry = locate(record, command.point)
    tangent = command.tangent
    # without a center the blow-up raises before it reads the tangent
    if tangent is None and entry.center is not None:
        if len(entry.tangent_candidates) != 1:
            raise ValueError(f"{command.point} has several tangent candidates; pass --tangent")
        tangent = f"x{entry.tangent_candidates[0][1]}"
    trace, outcome = linkengine.run_game(record, entry, tangent)
    # the recorded singularity label of a link from this point, if any
    label = next((e.label for e in record.expected.links if e.point == entry.site.label), None)
    return 0, {
        "verb": "game",
        "family": record.id,
        "point": entry.site.label,
        "tangent": tangent,
        "unprojected": trace.unprojected,
        "models": {
            "raw": _columns(trace.raw),
            "well_formed": _columns(trace.well_formed),
            "game": _columns(trace.game_model),
        },
        "trace": [_step_dict(s) for s in trace.steps],
        "minus_k": list(outcome.minus_k),
        "position": outcome.position,
        "outcome": {
            "kind": outcome.kind,
            "target": _end_model(outcome.model, label=label),
            "warnings": list(outcome.warnings),
        },
    }


def _exclude_report(command: Command) -> tuple[int, dict]:
    record = family(command.family)
    smooth = exclusion.smooth_point_test(record)
    curve = exclusion.curve_test(record)
    witness = exclusion.fibration_witness(record)
    out = {
        "verb": "exclude",
        "family": record.id,
        "smooth_point": {
            "h_degree": smooth.h_degree,
            "test_value": _frac(smooth.test_value),
            "threshold": _frac(smooth.threshold),
            "certified": smooth.certified,
            "notes": list(smooth.notes),
        },
        "curve": {
            "test_value": _frac(curve.test_value),
            "threshold": _frac(curve.threshold),
            "certified": curve.certified,
        },
        "fibration": None,
    }
    if witness is not None:
        out["fibration"] = {
            "target": list(witness.target),
            "kind": witness.kind,
            "ambient": list(witness.ambient),
            "degrees": list(witness.degrees),
            "fibre_canonical_degree": witness.fibre_canonical_degree,
            "pencil": witness.pencil,
        }
    return 0, out


def _verify_report(command: Command) -> tuple[int, dict]:
    report = linkengine.verify_tables()
    out = {
        "verb": "verify",
        "solidity": {
            "witnessed": list(report.solidity.witnessed),
            "witness_less": list(report.solidity.witness_less),
            "links_confirmed": report.links_confirmed,
        },
        "deviations": [d._asdict() for d in report.deviations],
        "failures": list(report.failures),
        "ok": report.ok,
    }
    for section, rows in report.rows.items():
        out[section] = {
            "rows": rows,
            "matched": sum(r["matched"] for r in rows),
            "total": len(rows),
        }
    return (0 if report.ok else 1), out


#: The command-line grammar, for :func:`run`, :func:`build_parser` and
#: :func:`_read_plain`: for each verb its help, its report builder (from the
#: :class:`Command` to the exit status and the report), whether it takes a
#: ``family``, and its options besides ``--format`` as ``(option, help, required)``.
_GRAMMAR = {
    "catalog": ("replay the family table", _catalog_report, False, ()),
    "analyze": ("singular locus of one family", _analyze_report, True, ()),
    "game": (
        "run one 2-ray game",
        _game_report,
        True,
        (
            ("--point", "site label, e.g. p3 or p2p4", True),
            ("--tangent", "tangent variable, e.g. x2", False),
        ),
    ),
    "exclude": ("numerical tests and fibration witness", _exclude_report, True, ()),
    "verify": ("replay all reference tables", _verify_report, False, ()),
}


def _complete(command: Command) -> bool:
    """Whether the command's verb is in :data:`_GRAMMAR` and the command has
    the family and every required option that the verb takes there."""
    if command.verb not in _GRAMMAR:
        return False
    _, _, takes_family, options = _GRAMMAR[command.verb]
    needed = (["family"] if takes_family else []) + [o[2:] for o, _, req in options if req]
    return all(getattr(command, name) is not None for name in needed)


def run(command: Command) -> tuple[int, dict]:
    """Execute one command; returns (exit status, JSON-safe report dict)."""
    if not _complete(command):
        raise SystemExit(USAGE_ERROR)
    return _GRAMMAR[command.verb][1](command)


# ---------------------------------------------------------------------------
# rendering


def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    out += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return out


def _render_markdown(report: dict) -> str:
    verb = report["verb"]
    lines: list[str] = []
    if verb == "catalog":
        lines.append(f"# Fano hypersurface families of index >= 2 ({report['count']})")
        lines += _md_table(
            ["no.", "hypersurface", "index", "rational"],
            [
                [
                    r["family"],
                    f"X_{r['degree']} ⊂ P({','.join(map(str, r['weights']))})",
                    r["index"],
                    "Yes" if r["rational"] else "No",
                ]
                for r in report["families"]
            ],
        )
    elif verb == "analyze":
        ws = ",".join(map(str, report["weights"]))
        lines.append(
            f"# family {report['family']}: X_{report['degree']} ⊂ P({ws}), "
            f"index {report['index']}"
        )
        if report["smooth"]:
            lines.append("")
            lines.append("General member is a smooth hypersurface (empty singular locus).")
        else:
            rows = []
            for s in report["singular_locus"]:
                residues = ",".join(str(w) for _, w in s["local_weights"])
                form = ",".join(map(str, s["kawamata_form"]))
                tangents = "; ".join(
                    f"{t['key']} (tangent {t['variable']})" for t in s["tangents"]
                )
                rows.append(
                    [
                        s["site"],
                        f"{s['count']} x 1/{s['r']}({residues})",
                        f"1/{s['r']}({form}), multiplier {s['multiplier']}",
                        tangents or "-",
                    ]
                )
            lines += _md_table(["site", "singularity", "normalized", "key monomials"], rows)
    elif verb == "game":
        lines.append(
            f"# family {report['family']}, point {report['point']}, "
            f"tangent {report['tangent']}"
        )
        if report["unprojected"]:
            lines.append("")
            lines.append("The equation sits in the irrelevant ideal: unprojection applied.")
        rows = []
        for s in report["trace"]:
            amb = s["ambient"]["kind"]
            if amb == "flip":
                amb += "(" + ",".join(str(w) for _, w in s["ambient"]["weights"]) + ")"
            else:
                amb += f" of {{{s['ambient']['contracted']}=0}}"
            res = s["restricted"]["kind"]
            if s["restricted"]["weights"]:
                res += "(" + ",".join(str(w) for _, w in s["restricted"]["weights"]) + ")"
            if s["target"]:
                res += " to " + s["target"]["display"]
            rows.append([s["wall"], amb, res, ", ".join(s["restricted"]["witnesses"]) or "-"])
        lines += _md_table(["wall", "ambient", "restricted", "witnesses"], rows)
        mk = ",".join(map(str, report["minus_k"]))
        lines.append("")
        lines.append(f"Anticanonical class ({mk}) is {report['position']} for the movable cone.")
        outcome = report["outcome"]
        for w in outcome["warnings"]:
            lines.append(f"Warning: {w}")
        if outcome["target"]:
            label = outcome["target"]["label"]
            suffix = f" ({label})" if label else ""
            lines.append(f"Outcome: {outcome['kind']}: {outcome['target']['display']}{suffix}")
        else:
            lines.append(f"Outcome: {outcome['kind']}")
    elif verb == "exclude":
        lines.append(f"# family {report['family']}: numerical exclusion data")
        sp = report["smooth_point"]
        cv = report["curve"]
        lines += _md_table(
            ["test", "value", "threshold", "certified"],
            [
                [
                    f"smooth point (h={sp['h_degree']})",
                    _frac_str(sp["test_value"]),
                    _frac_str(sp["threshold"]),
                    sp["certified"],
                ],
                ["curve", _frac_str(cv["test_value"]), _frac_str(cv["threshold"]), cv["certified"]],
            ],
        )
        for note in sp["notes"]:
            lines.append(f"- {note}")
        fib = report["fibration"]
        lines.append("")
        if fib is None:
            lines.append("No fibration witness: a0*a1 >= index (solid candidate).")
        else:
            degs = ",".join(map(str, fib["degrees"]))
            ws = ",".join(map(str, fib["ambient"]))
            lines.append(
                f"Fibration witness over P({fib['target'][0]},{fib['target'][1]}): "
                f"{fib['kind']} of degree(s) {degs} in P({ws}), fibre canonical degree "
                f"{fib['fibre_canonical_degree']}."
            )
    elif verb == "verify":
        lines.append("# verification report")
        for section in ("links", "exclusions", "matrices"):
            sec = report[section]
            lines.append(f"- {section}: {sec['matched']}/{sec['total']} matched")
        sol = report["solidity"]
        lines.append(
            f"- solidity: {len(sol['witnessed'])} witnessed, witness-less "
            f"{{{','.join(map(str, sol['witness_less']))}}}, links confirmed: "
            f"{sol['links_confirmed']}"
        )
        lines.append("")
        lines.append("## link targets")
        lines += _md_table(
            ["no.", "singularity", "new model", "matched"],
            [
                [r["family"], f"{r['point']} ({r['label']})", r["computed"] or "-", r["matched"]]
                for r in report["links"]["rows"]
            ],
        )
        lines.append("")
        lines.append("## exclusion games")
        lines += _md_table(
            ["no.", "site", "tangent", "verdict", "matched"],
            [
                [r["family"], r["site"], r["tangent"], r["computed_verdict"] or "-", r["matched"]]
                for r in report["exclusions"]["rows"]
            ],
        )
        lines.append("")
        lines.append("## deviations (recorded vs derived)")
        lines += _md_table(
            ["kind", "family", "site", "recorded", "derived"],
            [
                [d["kind"], d["family"] or "-", d["site"], d["recorded"], d["derived"]]
                for d in report["deviations"]
            ],
        )
        if report["failures"]:
            lines.append("")
            lines.append("## failures")
            lines += [f"- {f}" for f in report["failures"]]
        lines.append("")
        lines.append("OK" if report["ok"] else "FAILED")
    return "\n".join(lines) + "\n"


def serialize(report: dict, fmt: str) -> str:
    """Render a report dict as markdown or as a JSON document."""
    if fmt == "json":
        import json

        return json.dumps(report, indent=2, sort_keys=True)
    return _render_markdown(report)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    # imported here, not at the top: a plain command line is read without a
    # parser (see _read_plain), and argparse's first message lookup imports
    # gettext and locale, which together cost more than the rest of a cold
    # start's parsing
    import argparse

    parser = argparse.ArgumentParser(
        prog="fano2ray",
        description="Birational analysis of the index >= 2 Fano threefold hypersurfaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (verb_help, _, takes_family, options) in _GRAMMAR.items():
        p = sub.add_parser(verb, help=verb_help)
        if takes_family:
            p.add_argument("family", type=int)
        for option, option_help, required in options:
            p.add_argument(option, required=required, help=option_help)
        p.add_argument("--format", choices=_FORMATS, default="markdown", dest="format")
    return parser


def _read_plain(argv: list[str]) -> Command | None:
    """The command of a plain command line, or ``None`` for any other.

    Plain is a verb of :data:`_GRAMMAR` first; then each option spelled
    exactly, at most once, with a value that does not start with ``-``;
    ``--format`` one of :data:`_FORMATS`; the family as one ASCII-decimal
    token exactly when the verb takes one; and every required option.
    argparse reads such a line to the same command.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, _, takes_family, options = _GRAMMAR[argv[0]]
    allowed = ("--format", *(option for option, _, _ in options))
    fields = {"verb": argv[0]}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in allowed:
            value = next(tokens, "-")  # a missing value declines the line too
            if value.startswith("-") or token[2:] in fields:
                return None
            fields[token[2:]] = value
        elif takes_family and "family" not in fields and token.isascii() and token.isdecimal():
            try:
                fields["family"] = int(token)
            except ValueError:  # more digits than int() converts
                return None
        else:
            return None
    if fields.get("format", "markdown") not in _FORMATS:
        return None
    command = Command(**fields)
    return command if _complete(command) else None


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = _read_plain(argv)
    if command is None:
        # help, abbreviations and usage errors (exit 2) are argparse's
        command = Command(**vars(build_parser().parse_args(argv)))
    try:
        status, report = run(command)
    except (KeyError, ValueError, OSError) as err:
        # str() of a KeyError is the repr of its message
        message = err.args[0] if isinstance(err, KeyError) else err
        print(f"error: {message}", file=sys.stderr)
        return 1
    sys.stdout.write(serialize(report, command.format))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
