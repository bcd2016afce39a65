"""Tests of the benchmark's own parts: the interval evaluator, that every
answer check rejects a perturbed answer set, and the tracer's
accounting.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import unasp  # noqa: E402
from unasp.intervals import Interval  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402

DELTA = 0.05   # above every tolerance the checks grant


def solved(op):
    return unasp.solve(unasp.parse_program(op.text), op.config)


def shifted(iv):
    """A value DELTA away from iv in one bound or both."""
    if iv.upper + DELTA <= 1.0:
        return Interval(iv.lower + DELTA, iv.upper + DELTA)
    if iv.lower - DELTA >= 0.0:
        return Interval(iv.lower - DELTA, iv.upper - DELTA)
    return Interval(iv.lower + DELTA, iv.upper)


def perturbed(report, k, atom):
    """The report with atom moved in answer set k, its classical
    negation kept the mirror image, so the change is consistent."""
    sets = [dict(s) for s in report.answer_sets]
    for lit in list(sets[k]):
        if str(lit.atom) == atom:
            value = shifted(sets[k][lit.complement() if lit.negated else lit])
            sets[k][lit] = (Interval(1 - value.upper, 1 - value.lower)
                            if lit.negated else value)
    return unasp.SolveReport(sets, report.status, report.diagnostics)


def positive_atoms(answer_set):
    return sorted(str(lit.atom) for lit in answer_set if not lit.negated)


# --------------------------------------------------------------------
# evaluator


def test_operators():
    assert oracle.negate((0.2, 0.5)) == pytest.approx((0.5, 0.8))
    assert oracle.naf((0.2, 0.5)) == pytest.approx((0.8, 0.8))
    assert oracle.tnorm((0.5, 1.0), (0.4, 0.5)) == pytest.approx((0.2, 0.5))
    assert oracle.tconorm((0.5, 1.0), (0.4, 0.5)) == pytest.approx((0.7, 1.0))
    assert oracle.kagg((0.3, 0.5), (1.0, 1.0), 1e-9) == (1.0, 1.0)
    assert oracle.kagg((0.3, 0.5), (0.4, 0.6), 1e-9) is None
    assert oracle.kagg((0.3, 0.5), (0.3, 0.5), 1e-9) == (0.3, 0.5)


def test_parser_grounds_variables():
    rules = oracle.parse((ROOT / "programs" / "tweety.unasp").read_text())
    assert oracle.atom_base(rules) == {"fly(tweety)", "bird(tweety)",
                                       "penguin(tweety)"}
    fly = next(r for r in rules if r[0] == "fly(tweety)")
    assert fly[2] == (0.7, 1.0)
    assert fly[3] == [("lit", "bird(tweety)", False, False),
                      ("lit", "penguin(tweety)", False, True)]


# --------------------------------------------------------------------
# every check accepts the solver's answer and rejects a perturbed one


def small_chain():
    text = workloads.chain_text(40, random.Random("test"))
    rules = oracle.parse(text)
    expected = workloads.chain_expected(rules)
    return workloads.Op("chain", text, unasp.SolverConfig(),
                        lambda r: workloads.check_chain(rules, expected, r))


def test_chain_check():
    op = small_chain()
    report = solved(op)
    op.check(report)
    for atom in ("a0", "a17", "a39"):
        with pytest.raises(CheckFailed):
            op.check(perturbed(report, 0, atom))


def test_chain_check_rejects_broken_mirror():
    op = small_chain()
    report = solved(op)
    answer_set = dict(report.answer_sets[0])
    lit = next(l for l in answer_set if l.negated and str(l.atom) == "a5")
    answer_set[lit] = shifted(answer_set[lit])
    with pytest.raises(CheckFailed):
        op.check(unasp.SolveReport([answer_set], "ok", {}))


def test_tc_check():
    op = workloads.tc_ops(0, unasp)[0]
    report = solved(op)
    op.check(report)
    for atom in ("r(c0,c2)", "r(c3,c3)", "e(c0,c2)"):
        with pytest.raises(CheckFailed):
            op.check(perturbed(report, 0, atom))


def test_pairs_check():
    n = 3
    text = workloads.pairs_text(n, random.Random(0))
    rules = oracle.parse(text)
    op = workloads.Op("pairs", text,
                      unasp.SolverConfig(seeds=list(workloads.PAIR_SEEDS)),
                      lambda r: workloads.check_pairs(n, rules, r))
    report = solved(op)
    op.check(report)
    assert len(report.answer_sets) == 2 ** n
    with pytest.raises(CheckFailed):
        op.check(perturbed(report, 3, "y1"))
    with pytest.raises(CheckFailed):
        op.check(perturbed(report, 3, "z2"))
    with pytest.raises(CheckFailed):
        op.check(unasp.SolveReport(report.answer_sets[1:], "ok", {}))
    with pytest.raises(CheckFailed):
        duplicate = report.answer_sets[:-1] + report.answer_sets[:1]
        op.check(unasp.SolveReport(duplicate, "ok", {}))


@pytest.mark.parametrize("name", workloads.GOLDEN)
def test_golden_check(name):
    op = next(o for o in workloads.golden_ops(0, unasp, ROOT / "programs")
              if o.name == name)
    report = solved(op)
    op.check(report)
    if not report.answer_sets:
        with pytest.raises(CheckFailed):
            op.check(unasp.SolveReport([{}], "ok", {}))
        return
    for k, answer_set in enumerate(report.answer_sets):
        for atom in positive_atoms(answer_set):
            with pytest.raises(CheckFailed):
                op.check(perturbed(report, k, atom))


def test_supported_check_rejects_every_single_atom_change():
    op = next(o for o in workloads.golden_ops(0, unasp, ROOT / "programs")
              if o.name == "ex6")
    rules = oracle.parse(op.text)
    report = solved(op)
    tol = max(1e-6, 3.0 * op.config.nmi.eps)
    oracle.check_supported(rules, report.answer_sets[0], tol)
    for atom in positive_atoms(report.answer_sets[0]):
        with pytest.raises(CheckFailed):
            oracle.check_supported(
                rules, perturbed(report, 0, atom).answer_sets[0], tol)


# --------------------------------------------------------------------
# tracer


def traced_round(tracer, ops):
    tracer.reset()
    for op in ops:
        tracer.op = op.name
        op.check(unasp.solve(unasp.parse_program(op.text), op.config))
    return tracer.layer_metrics(), list(tracer.spans), tracer.self_times()


def test_self_times_add_up_to_the_solve_span():
    ops = workloads.golden_ops(0, unasp, ROOT / "programs") \
        + workloads.pairs_ops(0, unasp)
    tracer = spans.Tracer()
    tracer.install(unasp)
    try:
        metrics, recorded, self_times = traced_round(tracer, ops)
        again, _, _ = traced_round(tracer, ops)
    finally:
        tracer.uninstall()

    def root(k):
        while recorded[k][2] is not None:
            k = recorded[k][2]
        return k

    solves = [k for k, s in enumerate(recorded) if s[0] == "solve"]
    assert len(solves) == len(ops)
    for k in solves:
        members = [j for j in range(len(recorded)) if root(j) == k]
        total_self = sum(self_times[j][1] for j in members)
        bookkeeping = sum(recorded[j][5] for j in members)
        duration = recorded[k][4] - recorded[k][3]
        assert total_self + bookkeeping == pytest.approx(duration, abs=1e-9)
    for name in spans.COUNT_METRICS + tuple(spans.RATIO_METRICS):
        assert metrics[name] == again[name], name
    assert metrics["semantics.grid_s"] > 0 and metrics["nmi.kagg_s"] > 0
    assert metrics["nmi.bnb_combos"] > 0 and metrics["depgraph.cycles"] > 0


def test_benchmark_json_names_every_layer_metric():
    import json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(spans.Tracer().layer_metrics())
    assert produced == {m["name"] for m in spec["per_layer"]}


def test_uninstall_restores_entry_points():
    from unasp import mi, program, solver
    before = (unasp.solve, solver.ground, mi.substitute,
              program.Program.__dict__["rules_for"],
              Interval.__dict__["__post_init__"])
    tracer = spans.Tracer()
    tracer.install(unasp)
    assert unasp.solve is not before[0]
    tracer.uninstall()
    assert (unasp.solve, solver.ground, mi.substitute,
            program.Program.__dict__["rules_for"],
            Interval.__dict__["__post_init__"]) == before
