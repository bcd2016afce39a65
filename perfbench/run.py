"""Solver benchmark: parse and solve generated programs, check every
answer, report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the solver is imported from its
`src/`.  The loop is closed and single-threaded: one parse+solve at a
time.  Timed rounds run in worker processes started one after the other
(`--worker`).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from oracle import CheckFailed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# The timed window is split over this many worker processes, run one
# after the other; each takes IMPORTS_PER_WORKER samples of setup_s.
WORKERS = 8
IMPORTS_PER_WORKER = 2
# Set iteration order decides where the verifier's early exits fall, so
# every run uses one hash seed and the work counts repeat exactly.
HASH_SEED = "0"
IMPORT_TIMER = ("import time\n"
                "start = time.perf_counter()\n"
                "import unasp\n"
                "print(time.perf_counter() - start)\n")


class Tally:
    """Operations attempted and failed; an operation fails when it raises
    or when its check rejects the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rejected = 0

    def run(self, unasp, op):
        """Parse and solve one operation; returns (seconds, report or
        None).  The check runs after the clock stops."""
        self.attempted += 1
        gc.collect()    # every operation starts from the same heap
        start = time.perf_counter()
        try:
            report = unasp.solve(unasp.parse_program(op.text), op.config)
        except Exception as exc:  # a solver fault is a failed operation
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return elapsed, None
        elapsed = time.perf_counter() - start
        try:
            op.check(report)
        except CheckFailed as exc:
            self.failed += 1
            self.rejected += 1
            print(f"{op.name}: check failed: {exc}", file=sys.stderr)
        return elapsed, report


def import_seconds():
    """Time to import the solver in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT,
                         env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def peak_alloc_mb(unasp, ops, tally):
    """Largest tracemalloc peak of one parse+solve, in a pass of its own."""
    peak = 0
    for op in ops:
        tracemalloc.start()
        try:
            tally.run(unasp, op)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1e6


def timed_rounds(unasp, ops, seconds, imports_wanted, tally):
    """Whole rounds (parse+solve of every operation once) until `seconds`
    have passed; at least one.  Successive rounds run on successive CPUs
    of the process's affinity set.  Returns each operation's fastest time
    and `imports_wanted` import times, taken at even intervals over the
    same window so that they see the same machine as the solves do."""
    fastest = [float("inf")] * len(ops)
    imports = []
    start = time.perf_counter()
    deadline = start + seconds
    due = seconds / imports_wanted

    def import_when_due():
        while (len(imports) < imports_wanted
               and time.perf_counter() >= start + len(imports) * due):
            imports.append(import_seconds())

    cpus = sorted(os.sched_getaffinity(0))
    rounds = 0
    try:
        while not rounds or time.perf_counter() < deadline:
            # the host can slow one vCPU and not the other
            os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
            for i, op in enumerate(ops):
                import_when_due()
                fastest[i] = min(fastest[i], tally.run(unasp, op)[0])
            rounds += 1
    finally:
        os.sched_setaffinity(0, cpus)
    while len(imports) < imports_wanted:
        imports.append(import_seconds())
    return fastest, imports


def worker_rounds(args, tally):
    """Timed rounds in WORKERS fresh interpreters, one after the other,
    each for an equal share of `args.seconds`.  A process keeps much the
    same speed for as long as it lives, so one process would measure one
    draw of it.  Returns each operation's fastest time over all workers
    and every import time."""
    fastest, imports = None, []
    for _ in range(WORKERS):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--seconds",
             repr(args.seconds / WORKERS), "--worker"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
            check=True)
        sys.stderr.write(out.stderr)
        part = json.loads(out.stdout.strip().splitlines()[-1])
        fastest = (part["fastest"] if fastest is None else
                   [min(a, b) for a, b in zip(fastest, part["fastest"])])
        imports += part["imports"]
        tally.attempted += part["attempted"]
        tally.failed += part["failed"]
        tally.rejected += part["rejected"]
    return fastest, imports


def traced_rounds(unasp, ops, seconds, tally, trace_path):
    """Per-layer metrics: medians over traced rounds of the per-round
    sums.  Spans of every round are written to trace_path."""
    tracer = spans.Tracer()
    per_round, dumped = [], []
    tracer.install(unasp)
    try:
        deadline = time.perf_counter() + seconds
        while not per_round or time.perf_counter() < deadline:
            tracer.reset()
            for op in ops:
                tracer.op = op.name
                tally.run(unasp, op)
            per_round.append(tracer.layer_metrics())
            dumped.append(_dump(tracer))
    finally:
        tracer.uninstall()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({"rounds": dumped}))
    return {name: statistics.median(r[name] for r in per_round)
            for name in per_round[0]}


def _dump(tracer):
    return {
        "spans": [{"name": s[0], "op": s[1], "parent": s[2],
                   "start": s[3], "end": s[4], "bookkeeping": s[5],
                   "self": self_s}
                  for s, self_s in tracer.self_times()],
        "counts": dict(tracer.counts),
    }


def load_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main():
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append the result, tagged with workload and "
                             "seed, to this JSON-lines file")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "unasp" / "__init__.py").is_file():
        sys.exit(f"no solver sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import unasp
    if Path(unasp.__file__).resolve().parent != SRC / "unasp":
        sys.exit(f"imported unasp from {unasp.__file__}, not from {SRC}")

    units = load_units()
    ops = workloads.build(args.workload, args.seed, unasp, ROOT)
    tally = Tally()
    if args.worker:
        fastest, imports = timed_rounds(unasp, ops, args.seconds,
                                        IMPORTS_PER_WORKER, tally)
        print(json.dumps({"fastest": fastest, "imports": imports,
                          **vars(tally)}))
        return
    if args.trace:
        trace_path = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        values = traced_rounds(unasp, ops, args.seconds, tally, trace_path)
    else:
        values = {"peak_alloc_mb": peak_alloc_mb(unasp, ops, tally)}
        fastest, imports = worker_rounds(args, tally)
        values["round_s"] = sum(fastest)
        # this process's import compiled the byte code before any sample
        values["setup_s"] = statistics.median(imports)
    result = {
        "correct": not tally.rejected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    if args.out:
        with args.out.open("a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
