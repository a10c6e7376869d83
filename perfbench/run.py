"""Benchmark of subrep: one workload, one seed, one run.

    python3 perfbench/run.py --workload pointwise_2d --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from `src/`
through PYTHONPATH, because nothing is installed.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A copy goes to perfbench/out/results/.  The work runs in a fresh
worker process; this script only times set-up, starts the worker and
collects its result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # the whole run, set-up included


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    # SUBREP_THREADS overrides --threads in `subrep run`; the benchmark sets
    # the thread count itself.
    env.pop("SUBREP_THREADS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # At most two busy threads on a 2-core machine: no BLAS pools on top.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _wait(proc: subprocess.Popen, timeout: float) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and anything it started
        proc.communicate()
        raise


def time_setup(args, env: dict, deadline: float) -> list:
    """Wall time from a fresh interpreter until the first request is ready,
    SETUP_REPEATS times after one unmeasured warm-up."""
    if args.workload == "batch_cli":
        cmd = [sys.executable, "-m", "subrep.cli", "list-checks"]
    else:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        if args.workload == "batch_cli":
            out, err = _wait(proc, deadline - time.monotonic())
            elapsed = time.perf_counter() - t0
            ok = proc.returncode == 0 and "bbm_limit" in out
        else:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            out, err = _wait(proc, deadline - time.monotonic())
            ok = line.strip() == "ready" and proc.returncode == 0
        if not ok:
            raise RuntimeError(f"set-up run failed ({proc.returncode}): {err.strip()[-2000:]}")
        if i:
            times.append(elapsed)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "subrep" / "__init__.py").is_file():
        print(f"perfbench: no subrep package under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    try:
        setup = [] if args.trace else time_setup(args, env, deadline)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        out, err = _wait(proc, deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} overran {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited {proc.returncode}: {err.strip()[-4000:]}", file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])
    for msg in raw["errors"]:
        print(f"perfbench: output check failed: {msg}", file=sys.stderr)

    if args.trace:
        metrics = raw["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "request_s": {"value": raw["request_s"], "unit": "s"},
            "samples_per_s": {"value": raw["samples_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": raw["correct"], "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    print(f"perfbench: {args.workload} seed {args.seed}: {raw['rounds']} rounds, "
          f"{raw['attempted']} requests ({raw['failed']} failed) in {raw['wall_s']:.2f} s, "
          f"request_s {raw['request_s']:.4f}, setup runs {[round(t, 4) for t in setup]}",
          file=sys.stderr)
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = dict(result, rounds=raw["rounds"], wall_s=raw["wall_s"], request_s=raw["request_s"],
                  setup_runs=setup, request_times=raw["request_times"], errors=raw["errors"])
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
