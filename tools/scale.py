"""Scaling on acyclic programs: parse and solve seconds (best of 3),
microseconds per atom for the two together, and the tracemalloc peak of
one parse+solve, for `chain` programs of growing size, each with the
cyclic garbage collector on and with it off.

    PYTHONPATH=src python3 tools/scale.py [--max-size 64000]

The programs come from the benchmark's generator,
`perfbench/workloads.chain_text`, each drawn from
`random.Random("chain:1:0")`, at 1,000, 4,000 and 16,000 atoms; the
64,000-atom row, which takes about a minute, runs only when
`--max-size` asks for it.  The solver is whichever `unasp` the
interpreter imports, so pointing PYTHONPATH at the `src/` of two
revisions compares them.  Every solve must end `ok`.
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
from workloads import chain_text  # noqa: E402

SIZES = (1000, 4000, 16000, 64000)
REPEATS = 3


def parse_and_solve(text):
    """(parse seconds, solve seconds) of one run, from a collected heap."""
    gc.collect()
    start = time.perf_counter()
    program = unasp.parse_program(text)
    parsed = time.perf_counter()
    report = unasp.solve(program)
    solved = time.perf_counter()
    if report.status != "ok":
        raise SystemExit(f"solve ended {report.status}")
    return parsed - start, solved - parsed


def measure(text, collector):
    """Best parse and solve seconds of REPEATS runs, and the peak MB of
    one more under tracemalloc, with the cyclic collector on or off; the
    collector is left as it was."""
    was_enabled = gc.isenabled()
    try:
        (gc.enable if collector else gc.disable)()
        runs = [parse_and_solve(text) for _ in range(REPEATS)]
        tracemalloc.start()
        try:
            parse_and_solve(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    parse_s, solve_s = (min(column) for column in zip(*runs))
    return parse_s, solve_s, peak / 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, choices=SIZES,
                        default=16000,
                        help="largest program, in atoms (default 16000)")
    args = parser.parse_args()
    print(f"{'atoms':>6} {'gc':>3} {'parse_s':>8} {'solve_s':>8} "
          f"{'us/atom':>8} {'peak_mb':>8}")
    for n in SIZES:
        if n > args.max_size:
            break
        text = chain_text(n, random.Random("chain:1:0"))
        for collector in (True, False):
            parse_s, solve_s, peak_mb = measure(text, collector)
            print(f"{n:>6} {'on' if collector else 'off':>3} "
                  f"{parse_s:>8.4f} {solve_s:>8.4f} "
                  f"{(parse_s + solve_s) / n * 1e6:>8.1f} {peak_mb:>8.2f}",
                  flush=True)


if __name__ == "__main__":
    main()
