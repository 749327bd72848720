#!/usr/bin/env python3
"""relmodes benchmark.

    python3 bench/run.py --workload {molniya,generic,survey} --seed N
                         --seconds S --trace {0,1}

Runs one workload process (worker.py) with numeric-library threads pinned
to one and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; setup_s is the median over SETUP_RUNS
set-ups, each timed from the start of a fresh interpreter to the moment
it would issue its first timed operation (the last of them is the
measured workload process itself). With --trace 1 a separate traced
process reports the per-layer metrics and writes its spans under
bench/traces/.

Exits non-zero, printing no result, when a process fails or the program
cannot be imported.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("molniya", "generic", "survey")
SETUP_RUNS = 3
TIMEOUT_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def start_worker(args, extra, deadline):
    """Run worker.py to completion; returns (spawn time, parsed last line)."""
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    spawned = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("benchmark: workload process timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"benchmark: workload process exited {proc.returncode}")
    # pass on the benchmark's own reports, not the program's log lines
    for line in err.splitlines():
        if line.startswith(("check:", "failed:", "warm-up")):
            print(line, file=sys.stderr)
    return spawned, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "relmodes")):
        raise SystemExit(f"benchmark: no relmodes sources under {ROOT}/src")

    deadline = monotonic() + TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            spawned, probe = start_worker(args, ["--setup-only"], deadline)
            setups.append(probe["ready_at"] - spawned)
    spawned, result = start_worker(args, [], deadline)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["ready_at"] - spawned)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
