"""Command-line front end.

Verbs: ``catalog`` (replay the family table), ``analyze`` (singular locus of
one family), ``game`` (one 2-ray game from a chosen point and tangent),
``exclude`` (numerical tests and fibration witness), ``verify`` (replay all
reference tables plus the solidity cross-check; exit status 0 iff everything
matches).  Every verb renders either markdown or a stable JSON document;
exact rationals serialize as ``{"num": ..., "den": ...}`` pairs, never as
decimals.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import catalog as cat
from . import exclusion, linkengine
from .catalog import ambient_monomial_str, family, load_catalog
from .singular import locate, singular_locus
from .toric2ray import RankTwoModel

USAGE_ERROR = 2


@dataclass(frozen=True)
class Command:
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


# ---------------------------------------------------------------------------
# report builders (plain JSON-safe dictionaries)


def _catalog_report() -> dict:
    rows = []
    for r in load_catalog():
        rows.append(
            {
                "family": r.id,
                "weights": list(r.weights),
                "degree": r.degree,
                "index": r.index,
                "rational": r.rational,
            }
        )
    return {"verb": "catalog", "count": len(rows), "families": rows}


def _analyze_report(record: cat.FamilyRecord) -> dict:
    sites = []
    for entry in singular_locus(record):
        sites.append(
            {
                "site": entry.site.label,
                "count": entry.count,
                "r": entry.r,
                "local_weights": [[f"x{i}", w] for i, w in entry.singularity.local_weights],
                "multiplier": entry.singularity.multiplier,
                "kawamata_form": list(entry.singularity.kawamata_form),
                "tangents": [
                    {"key": ambient_monomial_str(key), "variable": f"x{t}"}
                    for key, t in entry.tangent_candidates
                ],
            }
        )
    return {
        "verb": "analyze",
        "family": record.id,
        "weights": list(record.weights),
        "degree": record.degree,
        "index": record.index,
        "rational": record.rational,
        "singular_locus": sites,
        "smooth": not sites,
    }


def _step_dict(step) -> dict:
    out = {
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
        "target": None,
    }
    if step.target is not None:
        out["target"] = {
            "weights": list(step.target.weights),
            "degrees": list(step.target.degrees),
            "contracted": step.target.contracted,
            "display": str(step.target),
        }
    return out


def _game_report(record: cat.FamilyRecord, point: str, tangent: str) -> dict:
    entry = locate(record, point)
    trace, outcome = linkengine.run_game(record, entry, tangent)
    return {
        "verb": "game",
        "family": record.id,
        "point": point,
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
            "target": {
                "weights": list(outcome.model.weights),
                "degrees": list(outcome.model.degrees),
                "label": outcome.model.label,
                "display": str(outcome.model),
            }
            if outcome.model
            else None,
            "warnings": list(outcome.warnings),
        },
    }


def _exclude_report(record: cat.FamilyRecord) -> dict:
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
    return out


def _verify_report() -> tuple[int, dict]:
    try:
        report = linkengine.verify_tables()
    except linkengine.VerificationFailure as err:
        report = err.report
    summary = exclusion.solidity_summary()
    links_confirmed = all(row["matched"] for row in report.link_rows) and set(
        summary.witness_less
    ) == {row["family"] for row in report.link_rows}
    out = {
        "verb": "verify",
        "catalog": {
            "count": report.catalog_count,
            "index_mismatches": list(report.index_mismatches),
        },
        "solidity": {
            "witnessed": list(summary.witnessed),
            "witness_less": list(summary.witness_less),
            "links_confirmed": links_confirmed,
        },
        "deviations": [asdict(d) for d in report.deviations],
        "failures": list(report.failures),
        "ok": report.ok and links_confirmed,
    }
    for section, rows in (
        ("links", report.link_rows),
        ("exclusions", report.exclusion_rows),
        ("matrices", report.matrix_rows),
    ):
        out[section] = {
            "rows": rows,
            "matched": sum(r["matched"] for r in rows),
            "total": len(rows),
        }
    return (0 if out["ok"] else 1), out


def run(command: Command) -> tuple[int, dict]:
    """Execute one command; returns (exit status, JSON-safe report dict)."""
    if command.verb in ("analyze", "game", "exclude") and command.family is None:
        raise SystemExit(USAGE_ERROR)
    if command.verb == "game" and command.point is None:
        raise SystemExit(USAGE_ERROR)
    if command.verb == "catalog":
        return 0, _catalog_report()
    if command.verb == "analyze":
        return 0, _analyze_report(family(command.family))
    if command.verb == "game":
        record = family(command.family)
        entry = locate(record, command.point)
        tangent = command.tangent
        if tangent is None:
            if len(entry.tangent_candidates) != 1:
                raise ValueError(
                    f"{command.point} has several tangent candidates; pass --tangent"
                )
            tangent = f"x{entry.tangent_candidates[0][1]}"
        return 0, _game_report(record, command.point, tangent)
    if command.verb == "exclude":
        return 0, _exclude_report(family(command.family))
    if command.verb == "verify":
        return _verify_report()
    raise SystemExit(USAGE_ERROR)


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
                [r["family"], f"{r['point']} ({r['label']})", r["computed"], r["matched"]]
                for r in report["links"]["rows"]
            ],
        )
        lines.append("")
        lines.append("## exclusion games")
        lines += _md_table(
            ["no.", "site", "tangent", "verdict", "matched"],
            [
                [r["family"], r["site"], r["tangent"], r["computed_verdict"], r["matched"]]
                for r in report["exclusions"]["rows"]
            ],
        )
        lines.append("")
        lines.append("## deviations (recorded vs derived)")
        lines += _md_table(
            ["kind", "family", "site", "recorded", "derived"],
            [
                [d["kind"], d["family"] if d["family"] else "-", d["site"], d["recorded"], d["derived"]]
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
        return json.dumps(report, indent=2, sort_keys=True)
    return _render_markdown(report)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fano2ray",
        description="Birational analysis of the index >= 2 Fano threefold hypersurfaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("markdown", "json"), default="markdown", dest="format"
        )

    add_format(sub.add_parser("catalog", help="replay the family table"))
    p = sub.add_parser("analyze", help="singular locus of one family")
    p.add_argument("family", type=int)
    add_format(p)
    p = sub.add_parser("game", help="run one 2-ray game")
    p.add_argument("family", type=int)
    p.add_argument("--point", required=True, help="site label, e.g. p3 or p2p4")
    p.add_argument("--tangent", help="tangent variable, e.g. x2")
    add_format(p)
    p = sub.add_parser("exclude", help="numerical tests and fibration witness")
    p.add_argument("family", type=int)
    add_format(p)
    add_format(sub.add_parser("verify", help="replay all reference tables"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = Command(
        verb=args.verb,
        family=getattr(args, "family", None),
        point=getattr(args, "point", None),
        tangent=getattr(args, "tangent", None),
        format=args.format,
    )
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
