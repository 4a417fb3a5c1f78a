"""One pass of each workload, and the checks that define a failed op.

A pass function runs inside the child after set-up and returns
``(run_ns, op_ns, results)``; only the calls into fano2ray are inside the
timed region.  A check function reads ``results`` after timing and returns
``(attempted, failed, errors, info)``: ``errors`` lists what failed (it is
non-empty exactly when the pass is not correct) and ``info`` is reported but
gates nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from collections import Counter
from statistics import median
from time import perf_counter_ns

from inputs import PAPER_LINKS, support_count

SWEEP_GAMES = 87
OUTCOME_KINDS = ("elementary_link", "bad_link", "no_link", "fibration")
_MODEL_RE = re.compile(r"^Z_\{([\d,]+)\} ⊂ P\(([\d,]+)\)$")
_PAPER_SITES = {(fam, point): link for fam, point, *link in PAPER_LINKS}


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


# ---------------------------------------------------------------------------
# verify: the paper's reproduction as users run it


def verify_pass(records, job):
    from fano2ray import cli

    out = io.StringIO()
    start = perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main(["verify", "--format", "json"])
    except Exception as err:  # an op that raises is a failed op, not a crash
        status = f"raised {type(err).__name__}: {err}"
    elapsed = perf_counter_ns() - start
    return elapsed, [elapsed], {"status": status, "output": out.getvalue()}


def check_verify(results, job):
    errors = []
    status = results["status"]
    doc = None
    if status != 0:
        errors.append(f"verify exited with {status!r}")
    else:
        try:
            doc = json.loads(results["output"])
        except ValueError as err:
            errors.append(f"verify output is not JSON: {err}")
    if doc is not None:
        if doc.get("ok") is not True:
            errors.append("verify reports ok = false")
        for part, total in (("links", 6), ("exclusions", 7), ("matrices", 7)):
            got = (doc[part]["matched"], doc[part]["total"])
            if got != (total, total):
                errors.append(f"{part}: matched {got[0]} of {got[1]}, expected {total}/{total}")
        computed = set()
        for row in doc["links"]["rows"]:
            m = _MODEL_RE.match(row["computed"])
            if m is None:
                errors.append(f"link row {row['family']} {row['point']}: {row['computed']!r}")
                continue
            computed.add(
                (row["family"], row["point"], _ints(m[1]), _ints(m[2]), row["unprojected"])
            )
        if computed != set(PAPER_LINKS):
            errors.append(f"link rows differ from the paper table: {sorted(computed)}")
    info = {
        "output_bytes": len(results["output"].encode("utf-8")),
        "deviations": len(doc["deviations"]) if doc else None,
    }
    return 1, int(bool(errors)), errors, info


# ---------------------------------------------------------------------------
# sweep: every game of the 35 families


def sweep_pass(records, job):
    from fano2ray import linkengine, singular

    op_ns = []
    games = []
    start = perf_counter_ns()
    for record in records:
        for entry in singular.singular_locus(record):
            for _, tangent in entry.tangent_candidates:
                t0 = perf_counter_ns()
                try:
                    result = linkengine.run_game(record, entry, tangent)
                except Exception as err:
                    result = err
                op_ns.append(perf_counter_ns() - t0)
                games.append((record.id, entry.site.label, tangent, result))
    return perf_counter_ns() - start, op_ns, games


def _game_row(fam, site, tangent, result):
    if isinstance(result, Exception):
        return (fam, site, tangent, f"raised {type(result).__name__}", None, None, None)
    trace, outcome = result
    model = outcome.model
    return (
        fam,
        site,
        tangent,
        outcome.kind,
        (model.degrees, model.weights) if model is not None else None,
        outcome.position,
        trace.unprojected,
    )


def check_sweep(games, job):
    errors = []
    failed = 0
    rows = [_game_row(*game) for game in games]
    if len(rows) != SWEEP_GAMES:
        errors.append(f"{len(rows)} games, expected {SWEEP_GAMES}")
    seen_paper = set()
    for fam, site, tangent, kind, model, _, unprojected in rows:
        why = None
        if kind not in OUTCOME_KINDS:
            why = kind
        elif kind == "elementary_link" and model is None:
            why = "elementary_link without a model"
        elif (fam, site) in _PAPER_SITES:
            seen_paper.add((fam, site))
            degrees, weights, via_unprojection = _PAPER_SITES[fam, site]
            if (kind, model, unprojected) != (
                "elementary_link",
                (degrees, weights),
                via_unprojection,
            ):
                why = f"{kind} {model} differs from the paper's link"
        if why is not None:
            failed += 1
            errors.append(f"game {fam} {site} x{tangent}: {why}")
    missing = set(_PAPER_SITES) - seen_paper
    if missing:
        errors.append(f"paper links missing from the sweep: {sorted(missing)}")
    table = "\n".join(repr(row) for row in sorted(rows, key=repr))
    info = {
        "histogram": dict(Counter(row[3] for row in rows).most_common()),
        "digest": hashlib.sha256(table.encode("utf-8")).hexdigest()[:16],
    }
    return len(rows), failed, errors, info


# ---------------------------------------------------------------------------
# scan: distinct candidate hypersurfaces, the shape of a catalog derivation


def scan_pass(records, job):
    from fano2ray import catalog, singular

    candidates = [(tuple(w), d) for w, d in job["candidates"]]
    no_expectations = catalog.FamilyExpectations()
    op_ns = []
    outcomes = []
    start = perf_counter_ns()
    for weights, degree in candidates:
        t0 = perf_counter_ns()
        size = None
        try:
            size = len(catalog.monomial_support(weights, degree))
            record = catalog.FamilyRecord(
                id=0, weights=weights, degree=degree, rational=False, expected=no_expectations
            )
            singular.singular_locus(record)
            error = None
        except Exception as err:
            error = err
        op_ns.append(perf_counter_ns() - t0)
        outcomes.append((weights, degree, size, error))
    return perf_counter_ns() - start, op_ns, outcomes


def check_scan(outcomes, job):
    errors = []
    failed = 0
    verdicts = Counter()
    sizes = []
    for weights, degree, size, error in outcomes:
        why = None
        if error is not None:
            cls = type(error)
            verdicts[cls.__name__] += 1
            if cls.__module__.split(".")[0] != "fano2ray":
                why = f"untyped {cls.__module__}.{cls.__name__}: {error}"
        else:
            verdicts["accepted"] += 1
        if why is None and size != support_count(weights, degree):
            why = f"support size {size} != generating-function count"
        if size is not None:
            sizes.append(size)
        if why is not None:
            failed += 1
            errors.append(f"candidate {weights} degree {degree}: {why}")
    info = {
        "verdicts": dict(verdicts.most_common()),
        "support_median": median(sizes) if sizes else None,
        "support_max": max(sizes, default=None),
    }
    return len(outcomes), failed, errors, info


PASSES = {"verify": verify_pass, "sweep": sweep_pass, "scan": scan_pass}
CHECKS = {"verify": check_verify, "sweep": check_sweep, "scan": check_scan}
