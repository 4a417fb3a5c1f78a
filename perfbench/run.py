"""Benchmark of fano2ray: cold passes of three workloads, one fresh child each.

Usage::

    python3 perfbench/run.py --workload verify|sweep|scan|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Load model: a closed loop with one caller.
This script starts one fresh ``python3 -S perfbench/child.py`` at a time,
with ``FANO2RAY_DATA`` unset so the bundled data is measured, waits for its
JSON reply, and starts the next until ``--seconds`` have passed.  One untimed
warm-up child first writes the package's bytecode cache.

Each child also times a fixed pure-Python reference loop before set-up,
between set-up and the pass, and after the pass.  The machine this was built
on changes speed by up to 1.8x in phases of seconds to minutes, so every
time the benchmark reports is scaled to a nominal speed: set-up time is
multiplied by ``REFERENCE_S`` over the mean of the two loop times around
set-up, and pass, op and per-layer times by ``REFERENCE_S`` over the mean of
the two around the pass.  The unscaled medians are printed as well.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
traced and untraced children alternate and the per-layer metrics are
printed, including ``trace.overhead_ratio`` (traced over untraced median
``run_s``).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is 0 when the run completed, even if checks failed (``correct`` is
then false); it is 2 when the package cannot be run at all.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import candidate_stream

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("verify", "sweep", "scan")
#: Candidates per scan pass: about as long a pass as a sweep.
SCAN_BATCH = 500
#: Ops a crashed child would have attempted.
OPS_PER_PASS = {"verify": 1, "sweep": 87, "scan": SCAN_BATCH}
MIN_PASSES = 3
#: Reference-loop time at the nominal speed (its median in the slow phases
#: of the machine described in README.md).
REFERENCE_S = 0.0125
CHILD_TIMEOUT_S = 120
#: Unset in the child: measure the bundled data and the checkout's package,
#: imported from bytecode (written by the warm-up child) as an installed
#: package is.
CHILD_ENV_UNSET = ("FANO2RAY_DATA", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The package cannot be run at all; no result is printed."""


def per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def jobs(workload: str, seed: int):
    """The inputs of each successive pass."""
    if workload != "scan":
        return itertools.repeat({})
    stream = candidate_stream(seed)
    return ({"candidates": list(itertools.islice(stream, SCAN_BATCH))} for _ in itertools.count())


def run_child(workload: str, traced: bool, job: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_UNSET}
    cmd = [sys.executable, "-S", str(HERE / "child.py"), str(SRC), workload, str(int(traced))]
    try:
        proc = subprocess.run(
            cmd,
            input=json.dumps(job).encode(),
            capture_output=True,
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return {"crashed": f"child exited {proc.returncode}: " + " | ".join(tail)}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"crashed": f"child printed no JSON: {lines[-1][:200]}"}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes until ``seconds`` have passed; return the aggregated result."""
    if not (SRC / "fano2ray" / "__init__.py").is_file():
        raise BenchError(f"no fano2ray package under {SRC}")
    inputs = jobs(workload, seed)
    first = next(inputs)
    warm = run_child(workload, False, first)
    if "crashed" in warm:
        raise BenchError(f"warm-up child failed: {warm['crashed']}")

    plain, traced, errors = [], [], []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    job = first
    for k in itertools.count():
        if k >= MIN_PASSES and time.monotonic() >= deadline:
            break
        if k:
            job = next(inputs)
        tracing = trace and k % 2 == 0
        if tracing and not traced:
            job = dict(job, keep_spans=True)
        reply = run_child(workload, tracing, job)
        if "crashed" in reply:
            attempted += OPS_PER_PASS[workload]
            failed += OPS_PER_PASS[workload]
            errors.append(reply["crashed"])
            continue
        attempted += reply["attempted"]
        failed += reply["failed"]
        errors.extend(reply["errors"])
        (traced if tracing else plain).append(reply)
    if not plain or (trace and not traced):
        raise BenchError("no pass completed: " + "; ".join(errors[:3]))

    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(plain) + len(traced),
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "info": plain[0]["info"],
    }
    for r in plain + traced:
        before, between, after = r["reference_s"]
        r["setup_scale"] = 2 * REFERENCE_S / (before + between)
        r["scale"] = 2 * REFERENCE_S / (between + after)
    result["raw"] = {
        "reference_s": statistics.median(ref for r in plain for ref in r["reference_s"]),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "run_s": statistics.median(r["run_s"] for r in plain),
    }
    if trace:
        units = per_layer_units()
        metrics = {
            name: statistics.median(
                r["layers"][name] * (r["scale"] if units[name] == "ms" else 1) for r in traced
            )
            for name in units
            if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = statistics.median(
            r["run_s"] * r["scale"] for r in traced
        ) / statistics.median(r["run_s"] * r["scale"] for r in plain)
        result["samples"] = {"traced_passes": len(traced), "untraced_passes": len(plain)}
        result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        result["spans"] = traced[0]["spans"]
    else:
        ops_ms = [ns / 1e6 * r["scale"] for r in plain for ns in r["op_ns"]]
        values = {
            "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in plain),
            "run_s": statistics.median(r["run_s"] * r["scale"] for r in plain),
            "op_ms_p50": statistics.median(ops_ms),
            "op_ms_p90": statistics.quantiles(ops_ms, n=10)[8],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        result["samples"] = {"passes": len(plain), "ops": len(ops_ms)}
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return result


def report(result: dict) -> None:
    """Human-readable lines: every metric with its unit, then what was checked."""
    samples = ", ".join(f"{k} {v}" for k, v in result["samples"].items())
    print(f"== {result['workload']} (seed {result['seed']}; {samples})")
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':42s} {ratio:>14.6g} ({result['failed']} of {result['attempted']} ops)")
    raw = ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items())
    print(f"  unscaled medians of the untraced passes: {raw}")
    for key, value in result["info"].items():
        print(f"  {key}: {value}")
    for err in result["errors"]:
        print(f"  FAILED: {err}")


def write_out(result: dict, trace: bool) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-trace{int(trace)}-seed{result['seed']}"
    spans = result.pop("spans", None)
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans), encoding="utf-8")
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = []
    try:
        for name in names:
            for trace in traces:
                result = measure(name, args.seed, args.seconds, trace)
                write_out(result, trace)
                report(result)
                results.append(result)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
