"""Command-line interface.

Subcommands: solve (compute answer sets), analyze (dependency-graph and
convergence structure), check (validate a model file against a
program).  Exit codes: 0 success, 1 no answer set / failed check,
2 usage or parse error, 3 incomplete result (a program past the
ground-rule cap included).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .intervals import INCONSISTENT
from .program import GroundingCapExceeded, ground, parse_program
from . import depgraph, nmi, semantics, solver

EXIT_OK = 0
EXIT_NO_ANSWER = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3


def _default_eps():
    """UNASP_EPS when it is a value --eps accepts, else the default."""
    try:
        eps = float(os.environ.get("UNASP_EPS", ""))
    except ValueError:
        return nmi.NmiConfig.eps
    return eps if 0 < eps < math.inf else nmi.NmiConfig.eps


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="unasp",
        description="Answer set solver for weighted rules over "
                    "sub-intervals of [0,1]")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="program file")
        p.add_argument("--eps", type=float, default=_default_eps(),
                       help="iteration termination threshold")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    for name, text in (("solve", "compute answer sets"),
                       ("analyze", "structural analysis")):
        p = common(sub.add_parser(name, help=text))
        p.add_argument("--nb", type=int, default=nmi.NmiConfig.n_b,
                       help="branch-and-bound grid size")
        p.add_argument("--seeds", type=str, default=None,
                       help="explicit branch-and-bound seeds, e.g. 0,0.25,1")
        p.add_argument("--max-iter", type=int,
                       default=nmi.NmiConfig.max_outer_iters,
                       help="outer iteration cap")
        p.add_argument("--max-answer-sets", type=int,
                       default=solver.SolverConfig.max_answer_sets)
        p.add_argument("--trace", type=str, default="",
                       help="comma list from mi,nmi,graph")
        p.add_argument("--dump-transformed", action="store_true")
        p.add_argument("--dot", metavar="FILE", default=None,
                       help="write dependency graph DOT text")
    chk = common(sub.add_parser("check", help="validate a model file"))
    chk.add_argument("--model", required=True, help="model JSON file")
    return parser


def _load_program(path):
    """The ground program in the file."""
    with open(path) as fh:
        return ground(parse_program(fh.read()))


def _solver_config(args):
    seeds = (None if args.seeds is None
             else [float(s) for s in args.seeds.split(",") if s])
    return solver.SolverConfig(
        nmi=nmi.NmiConfig(eps=args.eps, max_outer_iters=args.max_iter,
                          n_b=args.nb),
        seeds=seeds,
        max_answer_sets=args.max_answer_sets,
        trace={t for t in args.trace.split(",") if t},
        trace_sink=lambda line: print(line, file=sys.stderr),
    )


def _report_json(report):
    return {
        "status": report.status,
        "answer_sets": [semantics.model_to_json(i)
                        for i in report.answer_sets],
        "diagnostics": report.diagnostics,
    }


def _print_answer_set(i, index):
    print(f"answer set {index}:")
    for lit, v in sorted(i.items(), key=lambda kv: (kv[0].negated,
                                                    str(kv[0].atom))):
        if not lit.negated:
            print(f"  {lit.atom}: [{v.lower:.9g},{v.upper:.9g}]")


def _dump_bodies(bodies):
    print("\n".join(f"{atom} <- {bodies[atom]}."
                    for atom in sorted(bodies, key=str)), file=sys.stderr)


def _write_dot(path, entries):
    with open(path, "w") as fh:
        fh.write(depgraph.to_dot(entries))


def _cmd_solve(args, program, cfg):
    front = solver.front_half(program)
    if args.dump_transformed:
        _dump_bodies(front.bodies)
    report = solver.solve_front(front, cfg)
    if args.dot:
        _write_dot(args.dot, front.bodies)
    return _print_report(args, report)


def _print_report(args, report):
    if args.format == "json":
        print(json.dumps(_report_json(report), sort_keys=True, indent=2))
    else:
        print(f"status: {report.status}")
        if report.status == "no_answer_set":
            print("no answer set")
        for k, i in enumerate(report.answer_sets, 1):
            _print_answer_set(i, k)
    if report.status == "incomplete":
        return EXIT_INCOMPLETE
    if not report.answer_sets:
        return EXIT_NO_ANSWER
    return EXIT_OK


def _analysis_record(comp, plan):
    """One component of `analyze`: its atoms and, when cycles are left
    in it, the plan the solver runs for it on the first branch that
    plans it."""
    record = {"atoms": [str(a) for a in comp]}
    if plan is None:
        return record
    summary = plan.summary()
    del summary["component"]
    record.update(summary)
    if plan.cycles is not None:
        record["cycles"] = [[str(a) for a in c] for c in plan.cycles]
        record["intersection_table"] = {
            "-".join(str(a) for a in cyc):
                {str(a): tick for a, tick in row.items()}
            for cyc, row in depgraph.intersection_table(plan.cycles,
                                                        comp).items()}
    if plan.contraction is not None:
        record["gains"] = {str(a): [g.g1, g.g2, g.norm]
                           for a, g in plan.contraction.gains.items()}
    return record


def _cmd_analyze(args, program, cfg):
    front = solver.front_half(program)
    state = front.mi
    if args.dump_transformed:
        _dump_bodies(front.bodies)
    if args.dot:
        _write_dot(args.dot, state.residual or front.bodies)
    passed = solver.component_pass(front, cfg)
    first = {plan.component: plan for plan in reversed(passed.plans)}
    info = {
        "mi_assigned": {str(a): [v.lower, v.upper]
                        for a, v in state.interp.items()
                        if v is not INCONSISTENT},
        "halted_inconsistent": state.halted_inconsistent,
        "components": [_analysis_record(comp, first.get(comp))
                       for comp in passed.components],
    }
    if args.format == "json":
        print(json.dumps(info, sort_keys=True, indent=2))
    else:
        print(f"monotonic stage assigned {len(state.interp)} atoms; "
              f"{len(state.residual)} rules residual")
        for record in info["components"]:
            line = ",".join(record["atoms"])
            if "method" in record:
                line += (f"  [{record['method']}]"
                         f"  cycles={len(record.get('cycles', ()))}"
                         f"  assumption={record.get('assumption_set')}"
                         f"  {record.get('contraction', '')}")
            if "assumption_set_error" in record:
                line += f"  error: {record['assumption_set_error']}"
            print(line)
    return EXIT_OK


def _check_settings(args, program):
    """The model to check and the tolerance it is judged to."""
    return (semantics.load_model_file(args.model, program),
            nmi.NmiConfig(eps=args.eps).answer_tol)


def _cmd_check(args, program, settings):
    model, eps = settings
    ok = semantics.is_answer_set(model, program, eps=eps)
    if args.format == "json":
        print(json.dumps({"valid": ok}))
    else:
        print("VALID" if ok else "INVALID")
    return EXIT_OK if ok else EXIT_NO_ANSWER


def _incomplete(args, exc):
    """A program past the ground-rule cap: `solve` prints an incomplete
    report, and every command names the rule on stderr."""
    print(f"incomplete: {exc}", file=sys.stderr)
    if args.command == "solve":
        return _print_report(args, solver.capped_report(exc))
    return EXIT_INCOMPLETE


def _usage_error(exc):
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # reading the input: every ValueError here is bad input, a
        # ParseError and a UnicodeDecodeError included
        program = _load_program(args.file)
        settings = (_check_settings(args, program) if args.command == "check"
                    else _solver_config(args))
    except (ValueError, OSError) as exc:
        return _usage_error(exc)
    except GroundingCapExceeded as exc:
        return _incomplete(args, exc)
    command = {"solve": _cmd_solve, "analyze": _cmd_analyze,
               "check": _cmd_check}[args.command]
    try:
        return command(args, program, settings)
    except OSError as exc:   # the --dot file
        return _usage_error(exc)


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
