"""Run one workload in this process and print its raw measurements as one
JSON line.  Started by run.py with `src/` on PYTHONPATH; not meant to be
run by hand, though it can be:

    PYTHONPATH=src python3 perfbench/worker.py --workload pointwise_2d --seed 1 --seconds 20 --trace 0

With --setup-only it imports subrep, builds the workload's inputs, prints
`ready` and exits; run.py times that from a fresh interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

OUT = Path(__file__).resolve().parent / "out"


def run_rounds(workload, seconds: float, tracer) -> dict:
    """Whole rounds until the next one would overrun `seconds`, at least one.
    A traced run makes exactly `workload.trace_rounds` rounds instead, so its
    counts repeat exactly from run to run."""
    times, payloads = [], []  # times: (label, seconds) per request
    attempted = failed = samples = rounds = 0
    start = time.perf_counter()
    while True:
        for i, req in enumerate(workload.requests(rounds)):
            if tracer is not None:
                tracer.round, tracer.request = rounds, i
            with tracer.span("request", root=True) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                raw = _call(req)
                times.append((req.label, time.perf_counter() - t0))
            outcome = None if isinstance(raw, Exception) else workload.outcome(req.label, raw)
            attempted += 1
            if outcome is None or not outcome.ok:
                failed += 1
                continue
            samples += outcome.samples
            payloads.append((req.label, outcome.payload))
        rounds += 1
        elapsed = time.perf_counter() - start
        if tracer is not None:
            if rounds >= workload.trace_rounds:
                break
        elif elapsed * (rounds + 1) / rounds > seconds:
            break
    wall = time.perf_counter() - start
    return {"attempted": attempted, "failed": failed, "samples": samples, "rounds": rounds,
            "wall_s": wall, "request_times": times, "payloads": payloads}


def _call(req):
    try:
        return req.call()
    except Exception as exc:  # a failed request is counted, not fatal
        return exc


def peak_rss_mb(who: str) -> float:
    flag = resource.RUSAGE_SELF if who == "self" else resource.RUSAGE_CHILDREN
    return resource.getrusage(flag).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out_dir = OUT / "reports" / args.workload
    workload = workloads.make(args.workload, args.seed, out_dir, trace=bool(args.trace))
    if args.setup_only:
        workload.requests(0)
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    res = run_rounds(workload, args.seconds, tracer)
    rss = peak_rss_mb(workload.rusage_who)
    result = {k: res[k] for k in ("attempted", "failed", "samples", "rounds", "wall_s")}
    result["request_s"] = statistics.median(t for _, t in res["request_times"])
    result["request_times"] = res["request_times"]
    result["samples_per_s"] = res["samples"] / res["wall_s"]
    result["peak_rss_mb"] = rss
    if tracer is not None:
        # Metrics and the span file come first: the output checks below call
        # subrep again and must not land in any round.
        result["layers"] = tracing.layer_metrics(tracer)
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.json")
        tracer.spans = []
    errors = workload.verify(res["payloads"]) if res["payloads"] else ["no request succeeded"]
    result["errors"] = errors
    result["correct"] = not errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
