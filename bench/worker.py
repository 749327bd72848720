"""Workload process of the relmodes benchmark; run.py starts it.

One client, closed loop: the process sets up (imports, input generation,
one untimed warm-up call of each operation) and then runs whole rounds
until the timed operations have used the requested seconds. A round
issues, for every chief of the workload, the five CLI commands in-process
through relmodes.cli.main and one library reconstruct. Outputs are
checked and deleted after each round, outside the timed region.

Prints one JSON line: correct, attempted, failed, metrics, and the
CLOCK_MONOTONIC reading at which set-up ended.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

import checks
from oracle import Orbit, Reference, kepler_theta
from tracing import TARGETS, Tracer
from workloads import deputy_inputs, grid_size, make_workload

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(BENCH, "runs")
TRACES = os.path.join(BENCH, "traces")

CLI_OPS = ("decompose", "modes", "sweep", "validate", "floquet_num")
OPS = CLI_OPS + ("reconstruct",)
WARMUP_ROUND = 999999  # seeds the warm-up inputs apart from every timed round


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_relmodes():
    """relmodes from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import relmodes
    import relmodes.cli
    where = os.path.dirname(os.path.abspath(relmodes.__file__))
    if where != os.path.join(SRC, "relmodes"):
        raise ImportError(f"relmodes imported from {where}, not {SRC}")
    return relmodes


class Chief:
    """One chief of the workload: its config block, the program's chief
    object, the reconstruct time grid and (lazily) the reference."""

    def __init__(self, rm, cfg, workload):
        self.cfg = cfg
        self.orbit = Orbit.from_config(cfg)
        self.chief = rm.io.chief_from_config(cfg)
        n = grid_size(workload.periods)
        self.recon_t = np.linspace(0.0, workload.periods * self.orbit.period, n)
        self.recon_theta = kepler_theta(self.orbit, self.recon_t)
        self.span = max(workload.periods, 1.0)
        self._ref = None

    @property
    def ref(self):
        if self._ref is None:
            self._ref = Reference(self.orbit, self.span)
        return self._ref


class Bench:
    def __init__(self, rm, workload, seed, run_dir):
        self.rm = rm
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.chiefs = [Chief(rm, cfg, workload) for cfg in workload.chiefs]
        self.times = {op: [] for op in OPS}
        self.samples = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []   # operations that raised or exited non-zero
        self.errors = []     # check failures of operations that ran

    # -- requests ---------------------------------------------------------

    def prepare(self, round_index, k):
        """Write the request config and build the reconstruct input."""
        chief = self.chiefs[k]
        inputs = deputy_inputs(self.seed, round_index, k, chief.orbit.n)
        base = os.path.join(self.run_dir, f"r{round_index}", f"c{k}")
        os.makedirs(base)
        cfg_path = os.path.join(base, "request.json")
        with open(cfg_path, "w") as fh:
            json.dump({"orbit": chief.cfg,
                       "state0": inputs["state0"].tolist(),
                       "x0_km": float(inputs["anchor"][0]),
                       "y0_km": float(inputs["anchor"][1]),
                       "xdot0_list_kmps": inputs["xdot0_list"]}, fh)
        inputs["constants"] = self.rm.modal_constants(
            chief.chief, inputs["recon_state0"], "cartesian")
        inputs["cfg"] = cfg_path
        inputs["base"] = base
        return inputs

    def argv(self, op, req):
        w = self.workload
        out = ["--config", req["cfg"], "--out", os.path.join(req["base"], op)]
        if op == "decompose":
            return ["decompose", *out, "--rep", "cart", "--periods", str(w.periods)]
        if op == "modes":
            return ["modes", *out, "--rep", "sph", "--periods", str(w.modes_periods)]
        if op == "sweep":
            return ["sweep", *out, "--periods", str(w.periods)]
        if op == "validate":
            return ["validate", *out]
        return ["floquet-num", *out, "--plant", "cartesian-keplerian"]

    def issue(self, k, req):
        """The six timed operations of one request; returns CLI exit codes
        and the reconstructed states."""
        rm = self.rm
        codes = {}
        for op in CLI_OPS:
            argv = self.argv(op, req)
            start = time.perf_counter()
            try:
                codes[op] = rm.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a failed operation, counted below
                codes[op] = repr(exc)
            self.times[op].append(time.perf_counter() - start)
        chief = self.chiefs[k]
        start = time.perf_counter()
        try:
            states = rm.reconstruct(chief.chief, req["constants"],
                                    chief.recon_theta, "cartesian")
        except Exception as exc:
            states = None
            codes["reconstruct"] = repr(exc)
        elapsed = time.perf_counter() - start
        self.times["reconstruct"].append(elapsed)
        if states is not None:
            self.samples += len(states)
        return codes, states

    def check(self, k, req, codes, states):
        """Count failures; collect check messages for those that ran."""
        chief = self.chiefs[k]
        ref = chief.ref
        w = self.workload
        rows = grid_size(w.periods)
        base = req["base"]
        self.attempted += len(OPS)
        checkers = {
            "decompose": lambda: checks.check_decompose(
                os.path.join(base, "decompose"), req["state0"], ref, rows),
            "modes": lambda: checks.check_modes(
                os.path.join(base, "modes"), w.modes_periods,
                chief.orbit.n),
            "sweep": lambda: checks.check_sweep(
                os.path.join(base, "sweep"), req["anchor"],
                req["xdot0_list"], ref, rows),
            "validate": lambda: checks.check_validate(
                os.path.join(base, "validate"), codes["validate"]),
            "floquet_num": lambda: checks.check_floquet(
                os.path.join(base, "floquet_num"), ref),
            "reconstruct": lambda: checks.check_reconstruct(
                states, req["recon_state0"], chief.recon_t, ref),
        }
        for op in OPS:
            code = codes.get(op, 0)
            # validate exits 1 when a suite fails: that is a check failure
            if not (code == 0 or (op == "validate" and code == 1)):
                self.failed += 1
                self.failures.append(f"chief {k} {op}: {code}")
                continue
            try:
                msgs = checkers[op]()
            except Exception as exc:  # unreadable or malformed output
                msgs = [f"{op}: output not checkable: {exc!r}"]
            self.errors += [f"chief {k} {msg}" for msg in msgs]

    # -- rounds -----------------------------------------------------------

    def warm_up(self):
        """One untimed call of each operation on the first chief."""
        req = self.prepare(WARMUP_ROUND, 0)
        codes, _ = self.issue(0, req)
        for op in OPS:
            self.times[op].clear()
        self.samples = 0
        return codes

    def round(self, index, tracer=None):
        """One whole round; returns the seconds its timed operations took."""
        requests = [self.prepare(index, k) for k in range(len(self.chiefs))]
        before = sum(sum(t) for t in self.times.values())
        results = []
        if tracer is not None:
            tracer.install()
        try:
            for k, req in enumerate(requests):
                results.append(self.issue(k, req))
        finally:
            if tracer is not None:
                tracer.uninstall()
        timed = sum(sum(t) for t in self.times.values()) - before
        for k, (req, (codes, states)) in enumerate(zip(requests, results)):
            self.check(k, req, codes, states)
        # delete while the files are still only in the page cache: once
        # written back, each unlink costs milliseconds
        shutil.rmtree(os.path.join(self.run_dir, f"r{index}"))
        return timed


def lower_quartile(values):
    """Timing statistic of the benchmark. Shared cloud CPUs can switch
    between a fast and a much slower state every second or so (1.8x on a
    2-vCPU AMD EPYC guest, measured), in shares that drift from run to
    run; the lower quartile of many calls stays on the fast state where
    the median can flip between the two."""
    return float(np.percentile(values, 25))


def end_to_end(bench):
    q = {op: lower_quartile(t) for op, t in bench.times.items()}
    per_call = bench.samples / len(bench.times["reconstruct"])
    return {
        "decompose_s": (q["decompose"], "s"),
        "modes_s": (q["modes"], "s"),
        "sweep_s": (q["sweep"], "s"),
        "validate_s": (q["validate"], "s"),
        "floquet_num_s": (q["floquet_num"], "s"),
        "reconstruct_samples_per_s": (per_call / q["reconstruct"], "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, rounds, untraced, traced):
    """Counts of the first traced round (they repeat exactly); busy and
    self milliseconds per round, lower quartile over traced rounds."""
    first = rounds[0]
    metrics = {}
    for _, _, name, kinds in TARGETS:
        for kind in kinds:
            if kind == "calls":
                metrics[f"{name}.calls"] = (first[name][0], "count")
            else:
                col = 1 if kind == "ms" else 2
                metrics[f"{name}.{kind}"] = (
                    1e3 * lower_quartile([r[name][col] for r in rounds]), "ms")
    overhead = lower_quartile(traced) / lower_quartile(untraced) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def write_trace(tracer, rounds, workload, seed, overhead_pct):
    os.makedirs(TRACES, exist_ok=True)
    path = os.path.join(TRACES, f"{workload}-{seed}.json")
    per_round = [{name: {"calls": c, "busy_ms": 1e3 * b, "self_ms": 1e3 * s}
                  for name, (c, b, s) in r.items()} for r in rounds]
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "overhead_pct": overhead_pct, "absent": tracer.absent,
                   "rounds": per_round, "spans": tracer.span_table()}, fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    rm = import_relmodes()
    workload = make_workload(args.workload)
    run_dir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    bench = Bench(rm, workload, args.seed, run_dir)
    try:
        warm_codes = bench.warm_up()
        ready_at = monotonic()
        shutil.rmtree(os.path.join(run_dir, f"r{WARMUP_ROUND}"))
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}))
            return 0
        if any(code != 0 for code in warm_codes.values()):
            print(f"warm-up failed: {warm_codes}", file=sys.stderr)

        tracer = Tracer() if args.trace else None
        measured = 0.0
        index = 0
        untraced, traced, layer_rounds = [], [], []
        while True:
            if tracer is None:
                measured += bench.round(index)
            elif index % 2 == 0:
                untraced.append(bench.round(index))
                measured += untraced[-1]
            else:
                tracer.keep_spans = not layer_rounds
                before = tracer.snapshot()
                traced.append(bench.round(index, tracer))
                layer_rounds.append(Tracer.delta(before, tracer.snapshot()))
                measured += traced[-1]
            index += 1
            if measured >= args.seconds and (tracer is None or traced):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for msg in bench.failures[:20]:
        print(f"failed: {msg}", file=sys.stderr)
    for msg in bench.errors[:20]:
        print(f"check: {msg}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(bench)
    else:
        metrics = per_layer(tracer, layer_rounds, untraced, traced)
        write_trace(tracer, layer_rounds, args.workload, args.seed,
                    metrics["trace.overhead_pct"][0])
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ready_at": ready_at,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
