"""Answer-identity corpus: solve a fixed set of programs and print, one
canonical JSON line per solve, the status, the answer sets (the repr of
every bound) and the diagnostics.  For a program of at most
`semantics.GRID_MAX_ATOMS` atoms, where the verifier runs the grid
oracle, the line also holds `grid_verdicts`: the `unasp check` verdict
(`is_answer_set` with no candidates, at `answer_tol`) of every
candidate the component pass gives, so the grid is pinned directly and
not only through the answer sets `solve` keeps.

    PYTHONPATH=src python3 tools/answer_corpus.py > answers.jsonl

The solver is whichever `unasp` the interpreter imports, so pointing
PYTHONPATH at the `src/` of two revisions and diffing the two outputs
shows whether a change left every answer as it was.  The corpus:

- `programs/*.unasp` under the default configuration,
  `NmiConfig(eps=1e-6)` with seeds 0, 0.25, 0.75, 1, and
  `NmiConfig(eps=1e-9, n_b=3)`;
- every operation of the benchmark's workloads at seeds 1 and 2, built by
  `perfbench/workloads.build`;
- transitive closure over rings of 8 and 9 constants (9 overflows the
  cycle cap);
- 400 seeded random programs of 1-4 atoms and 1-5 rules.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import unasp  # noqa: E402
from unasp import semantics, solver  # noqa: E402
import workloads  # noqa: E402

RANDOM_PROGRAMS = 400


def configs():
    return {
        "default": unasp.SolverConfig(),
        "eps1e-6-seeds": unasp.SolverConfig(
            nmi=unasp.NmiConfig(eps=1e-6), seeds=[0.0, 0.25, 0.75, 1.0]),
        "eps1e-9-nb3": unasp.SolverConfig(
            nmi=unasp.NmiConfig(eps=1e-9, n_b=3)),
    }


def _interval(rng):
    lo, hi = sorted(round(rng.random(), 2) for _ in range(2))
    return f"[{lo},{hi}]"


def random_text(rng):
    """A program over 1-4 of the atoms a-d: 1-5 rules, each with 1-3 body
    items, which are constants or (possibly naf, possibly negated)
    literals."""
    atoms = "abcd"[:rng.randint(1, 4)]

    def literal():
        return ("-" if rng.random() < 0.25 else "") + rng.choice(atoms)

    rules = []
    for _ in range(rng.randint(1, 5)):
        body = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.3:
                body.append(_interval(rng))
            else:
                body.append(("not " if rng.random() < 0.4 else "")
                            + literal())
        rules.append(f"{literal()} <- {_interval(rng)} : {', '.join(body)}.")
    return "\n".join(rules) + "\n"


def corpus():
    """(name, program text, config) for every solve, in a fixed order."""
    for path in sorted((ROOT / "programs").glob("*.unasp")):
        for cname, config in configs().items():
            yield f"{path.stem}/{cname}", path.read_text(), config
    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            for op in workloads.build(workload, seed, unasp, ROOT):
                yield f"{workload}/{seed}/{op.name}", op.text, op.config
    for n in (8, 9):
        text = workloads.tc_text(n, random.Random(f"tc:1:{n}"))
        yield f"tc-ring/{n}", text, unasp.SolverConfig()
    for k in range(RANDOM_PROGRAMS):
        text = random_text(random.Random(f"corpus:{k}"))
        yield f"random/{k}", text, unasp.SolverConfig()


def _value(v):
    if isinstance(v, unasp.Interval):
        return [repr(v.lower), repr(v.upper)]
    return repr(v)


def grid_verdicts(program, config):
    """The `check` verdict of every candidate of the component pass, or
    None past `GRID_MAX_ATOMS` atoms or the ground-rule cap."""
    try:
        g = unasp.ground(program)
    except unasp.GroundingCapExceeded:
        return None
    if len(g.atom_base) > semantics.GRID_MAX_ATOMS:
        return None
    passed = solver.component_pass(
        unasp.mi_fixpoint(unasp.transform_program(g)), config)
    return [semantics.is_answer_set(t, g, eps=config.nmi.answer_tol)
            for t in semantics.totals_from_positive(passed.branches)]


def record(name, text, config):
    try:
        program = unasp.parse_program(text)
        report = unasp.solve(program, config)
        verdicts = grid_verdicts(program, config)
    except Exception as exc:  # a fault is part of the record, not the end
        return {"name": name, "error": f"{type(exc).__name__}: {exc}"}
    out = {
        "name": name,
        "status": report.status,
        "answer_sets": [sorted([str(lit), _value(v)] for lit, v in s.items())
                        for s in report.answer_sets],
        "diagnostics": report.diagnostics,
    }
    if verdicts is not None:
        out["grid_verdicts"] = verdicts
    return out


def main():
    for name, text, config in corpus():
        print(json.dumps(record(name, text, config), sort_keys=True,
                         default=repr), flush=True)


if __name__ == "__main__":
    main()
