"""One cold pass of one workload, in a fresh interpreter.

Usage: ``python3 -S child.py <src-dir> <workload> <trace 0|1>``, with the job
as JSON on stdin.  Prints one JSON line: set-up and pass times, the
reference-loop times before set-up, between set-up and the pass and after
it, per-op latencies, peak RSS, the check results and, when traced, the
per-layer metrics.  Only ``sys`` and ``time`` are imported before set-up is
timed, so that set-up pays for every module the package pulls in.
"""

import sys
import time

REFERENCE_ITERATIONS = 10000


def reference_loop() -> int:
    """Time a fixed pure-Python loop: the machine's speed at this moment.

    The loop frees what it allocates as it goes, so it never triggers the
    cyclic garbage collector, and its time does not depend on what the
    package keeps alive.
    """
    start = time.perf_counter_ns()
    table = {}
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        table[key] = table.get(key, 0) + i
        acc += (i * 31) % 17
    return time.perf_counter_ns() - start


def main() -> int:
    src, workload, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    job_bytes = sys.stdin.buffer.read()
    sys.path.insert(0, src)
    reference_ns = [reference_loop()]

    start = time.perf_counter()
    import fano2ray
    import fano2ray.cli

    if traced:
        from tracing import Tracer, layer_metrics, per_function

        tracer = Tracer()
        tracer.install()
    records = fano2ray.catalog.load_catalog()
    setup_s = time.perf_counter() - start

    import json
    import os
    import resource

    import workloads

    if os.path.dirname(os.path.abspath(fano2ray.__file__)) != os.path.join(
        os.path.abspath(src), "fano2ray"
    ):
        print(f"fano2ray imported from {fano2ray.__file__}, not {src}", file=sys.stderr)
        return 2
    job = json.loads(job_bytes)
    if traced:
        load_ns = per_function(tracer.spans)["catalog.load_catalog"][1]
        tracer.reset()
    reference_ns.append(reference_loop())
    try:
        run_ns, op_ns, results = workloads.PASSES[workload](records, job)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if traced:
            tracer.uninstall()
    reference_ns.append(reference_loop())
    attempted, failed, errors, info = workloads.CHECKS[workload](results, job)
    reply = {
        "reference_s": [ns / 1e9 for ns in reference_ns],
        "setup_s": setup_s,
        "run_s": run_ns / 1e9,
        "op_ns": op_ns,
        "peak_rss_mb": rss_kb / 1024,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "info": info,
    }
    if traced:
        reply["layers"] = layer_metrics(tracer, load_ns)
        if job.get("keep_spans"):
            reply["spans"] = tracer.spans
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
