"""Scaling on acyclic programs: parse and solve seconds (best of 3),
microseconds per atom for the two together, the tracemalloc peak of one
parse+solve, the solve split by stage, and the cyclic collector's part,
for `chain` programs of growing size, each with the collector on and
with it off.

    PYTHONPATH=src python3 tools/scale.py [--max-size 64000]

The programs come from the benchmark's generator,
`perfbench/workloads.chain_text`, each drawn from
`random.Random("chain:1:0")`, at 1,000, 4,000 and 16,000 atoms; the
64,000-atom row, which takes about a minute, runs only when
`--max-size` asks for it.  The solver is whichever `unasp` the
interpreter imports, so pointing PYTHONPATH at the `src/` of two
revisions compares them.  Every solve must end `ok`.

Columns past `peak_mb`:
- `ground` … `verify`: seconds of each stage of one more solve, timed by
  wrapping what `solver.solve` looks up at run time: `solver.ground`,
  `solver.transform_program`, `solver.mi_fixpoint`,
  `solver.component_pass` and `semantics.is_answer_set`;
- `gcs` and `gc_s`: the collections that start from the start of the
  parse to the end of the solve (counted through `gc.callbacks`) and the
  seconds they take, from the best run;
- `young_s`: a young-generation collection (`gc.collect(0)`) right after
  the solve, best of 3.  With the collector on, it is the collection
  that `parse_program` and `solve` defer by pausing the collector.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import unasp  # noqa: E402
from unasp import semantics, solver  # noqa: E402
from workloads import chain_text  # noqa: E402

SIZES = (1000, 4000, 16000, 64000)
REPEATS = 3
# (column, module, attribute) of each stage `solver.solve` looks up
STAGES = (
    ("ground", solver, "ground"),
    ("transform", solver, "transform_program"),
    ("mi", solver, "mi_fixpoint"),
    ("pass", solver, "component_pass"),
    ("verify", semantics, "is_answer_set"),
)


class Collections:
    """The number and seconds of the collections that start while it
    is on, through `gc.callbacks`."""

    def __init__(self):
        self.on = False
        self.count = 0
        self.seconds = 0.0
        self._start = None

    def __call__(self, phase, info):
        if not self.on:
            return
        if phase == "start":
            self.count += 1
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self._start = None


def parse_and_solve(text, collections):
    """(parse seconds, solve seconds, collections started inside them,
    their seconds, seconds of a young collection after the solve) of one
    run, from a collected heap."""
    gc.collect()
    collections.count, collections.seconds = 0, 0.0
    collections.on = True
    start = time.perf_counter()
    program = unasp.parse_program(text)
    parsed = time.perf_counter()
    report = unasp.solve(program)
    solved = time.perf_counter()
    collections.on = False
    gc.collect(0)
    young = time.perf_counter() - solved
    if report.status != "ok":
        raise SystemExit(f"solve ended {report.status}")
    return (parsed - start, solved - parsed, collections.count,
            collections.seconds, young)


def stage_seconds(text):
    """Seconds of each stage of one solve of text, in STAGES order."""
    program = unasp.parse_program(text)
    spent = dict.fromkeys((column for column, _, _ in STAGES), 0.0)
    originals = [(module, attr, getattr(module, attr))
                 for _, module, attr in STAGES]

    def clocked(column, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[column] += time.perf_counter() - start
        return timed

    for (column, _, _), (module, attr, fn) in zip(STAGES, originals):
        setattr(module, attr, clocked(column, fn))
    try:
        gc.collect()
        unasp.solve(program)
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    return list(spent.values())


def measure(text, collector, collections):
    """The row of one program with the cyclic collector on or off: best
    parse and solve seconds of REPEATS runs with the collections of the
    best, the best young collection, the peak MB of one more run under
    tracemalloc, and the stage seconds of one more; the collector is
    left as it was."""
    was_enabled = gc.isenabled()
    try:
        (gc.enable if collector else gc.disable)()
        runs = [parse_and_solve(text, collections) for _ in range(REPEATS)]
        tracemalloc.start()
        try:
            parse_and_solve(text, collections)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stages = stage_seconds(text)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    best = min(runs, key=lambda run: run[0] + run[1])
    parse_s, solve_s, _, _, young_s = (min(column) for column in zip(*runs))
    return parse_s, solve_s, peak / 1e6, stages, best[2], best[3], young_s


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, choices=SIZES,
                        default=16000,
                        help="largest program, in atoms (default 16000)")
    args = parser.parse_args()
    print(f"{'atoms':>6} {'gc':>3} {'parse_s':>8} {'solve_s':>8} "
          f"{'us/atom':>8} {'peak_mb':>8} "
          + " ".join(f"{column:>9}" for column, _, _ in STAGES)
          + f" {'gcs':>4} {'gc_s':>7} {'young_s':>8}")
    collections = Collections()
    gc.callbacks.append(collections)
    for n in SIZES:
        if n > args.max_size:
            break
        text = chain_text(n, random.Random("chain:1:0"))
        for collector in (True, False):
            parse_s, solve_s, peak_mb, stages, gcs, gc_s, young_s = \
                measure(text, collector, collections)
            print(f"{n:>6} {'on' if collector else 'off':>3} "
                  f"{parse_s:>8.4f} {solve_s:>8.4f} "
                  f"{(parse_s + solve_s) / n * 1e6:>8.1f} {peak_mb:>8.2f} "
                  + " ".join(f"{s:>9.4f}" for s in stages)
                  + f" {gcs:>4} {gc_s:>7.4f} {young_s:>8.5f}",
                  flush=True)


if __name__ == "__main__":
    main()
