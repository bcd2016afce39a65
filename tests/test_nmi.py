import random

import pytest

from unasp import (Atom, Literal, is_answer_set, nmi, parse_program, solve,
                   transform_program)
from unasp.depgraph import enumerate_cycles, owned_cycles
from unasp.intervals import Interval
from unasp.mi import mi_fixpoint
from unasp.nmi import (NmiConfig, branch_and_bound, check_contraction,
                       cycle_gain, nmi_iterate, solve_kagg_cycle)
from unasp.solver import ComponentPass, SolverConfig, _value_component
from unasp.transform import And, Const, Kagg, Naf, Neg, Or, Ref

TIGHT = NmiConfig(eps=1e-9)
# its chosen values a, b enter an exact period-3 orbit at iteration 84
PERIOD_THREE = ("a <- [0.32,0.73] : not a, b. -b <- [0.32,0.94] : b, a. "
                "b <- [0.33,0.97] : a, not a.")


def ref(name, negated=False):
    return Ref(Literal(Atom(name), negated))


def iv(lo, hi):
    return Interval(lo, hi)


@pytest.fixture(scope="module")
def ex7_entries(ex7):
    return transform_program(ex7)


@pytest.fixture(scope="module")
def hijk_entries(ex6):
    residual = mi_fixpoint(transform_program(ex6)).residual
    return {Atom(n): residual[Atom(n)] for n in "hijk"}


class TestIterationTrajectory:
    # printed per-step values of the two chosen atoms
    TRACE = [
        {"a": (0.6, 0.8), "g": (0.0, 0.7)},
        {"a": (0.24, 0.656), "g": (0.06, 0.5866)},
        {"a": (0.46464, 0.72063), "g": (0.11501, 0.63749)},
        {"a": (0.35328, 0.66525), "g": (0.10868, 0.59389)},
        {"a": (0.41107, 0.68522), "g": (0.12211, 0.60961)},
        {"a": (0.38348, 0.67162), "g": (0.11954, 0.5989)},
        {"a": (0.39742, 0.67695), "g": (0.1226, 0.6031)},
        {"a": (0.39078, 0.67381), "g": (0.12181, 0.60063)},
    ]
    FINAL = {"a": (0.39409, 0.67514), "b": (0.65682, 0.84393),
             "c": (0.65682, 0.84393), "d": (0.15607, 0.59173),
             "e": (0.140463, 0.59173), "f": (0.40827, 0.85954),
             "g": (0.12248, 0.60168)}

    def test_example7_trace_and_expansion(self, ex7_entries):
        out = nmi_iterate(ex7_entries, [Atom("a"), Atom("g")], NmiConfig())
        assert out.status == "converged"
        assert out.iters == 8
        for step, expected in zip(out.history, self.TRACE):
            for name, (lo, hi) in expected.items():
                assert step[Atom(name)].same_as(iv(lo, hi), eps=5e-4)
        for name, (lo, hi) in self.FINAL.items():
            assert out.interp[Atom(name)].same_as(iv(lo, hi), eps=5e-4)

    def test_example7_step_equals_closed_form(self, ex7_entries):
        def closed_form(a1, a2, g1, g2):
            return (0.6 - 0.6 * a1 * (1 - g1),
                    0.8 - 0.8 * a1 * (1 - g2),
                    0.3 - 0.3 * a2 * (1 - g1),
                    0.7 - 0.63 * a1 * (1 - g2))

        rng = random.Random(3)
        for _ in range(25):
            a1, a2 = sorted((rng.random(), rng.random()))
            g1, g2 = sorted((rng.random(), rng.random()))
            state = mi_fixpoint(ex7_entries, {Atom("a"): iv(a1, a2),
                                              Atom("g"): iv(g1, g2)})
            assert not state.residual
            w1, w2, w3, w4 = closed_form(a1, a2, g1, g2)
            assert state.interp[Atom("a")].same_as(iv(w1, w2), eps=1e-12)
            assert state.interp[Atom("g")].same_as(iv(w3, w4), eps=1e-12)

    def test_positive_self_support_converges_to_ignorance(self):
        entries = {Atom("a"): ref("a")}
        out = nmi_iterate(entries, [Atom("a")], NmiConfig())
        assert out.status == "converged"
        assert out.iters == 1
        assert out.interp[Atom("a")].same_as(iv(0, 1))

    def test_oscillation_hits_iteration_cap(self):
        entries = {Atom("a"): Naf(ref("a"))}
        out = nmi_iterate(entries, [Atom("a")],
                          NmiConfig(eps=1e-9, max_outer_iters=50))
        # [1,1], [0,0], [1,1]: the third step repeats the first
        assert out.status == "max_iters"
        assert out.iters == 3

    def test_aggregation_conflict_halts(self, ex8):
        entries = transform_program(ex8)
        out = nmi_iterate(entries, [Atom("a")], NmiConfig())
        assert out.status == "inconsistent"
        assert out.iters == 1


def _fig8_expr(x1y1, x2y2, x3y3, x4y4):
    """One self-cycle: conjunction, classical negation, conjunction,
    disjunction, default negation, conjunction."""
    inner = And((Const(Interval(*x1y1)), ref("a")))
    return And((Const(Interval(*x4y4)),
                Naf(Or((Const(Interval(*x3y3)),
                        And((Const(Interval(*x2y2)), Neg(inner))))))))


class TestCycleGain:
    def test_published_numeric_instance(self):
        expr = _fig8_expr((0.5, 0.8), (0.6, 0.9), (0.2, 0.4), (0.7, 1.0))
        gain = cycle_gain({Atom("a"): expr}, (Atom("a"),))
        assert gain.g1 == pytest.approx(0.2688, abs=1e-12)
        assert gain.g2 == pytest.approx(0.384, abs=1e-12)
        assert gain.norm == pytest.approx(0.384, abs=1e-12)

    def test_matches_closed_form_at_random_instantiations(self):
        rng = random.Random(17)
        for _ in range(3):
            consts = [tuple(sorted((rng.random(), rng.random())))
                      for _ in range(4)]
            (x1, y1), (x2, y2), (x3, y3), (x4, y4) = consts
            expr = _fig8_expr(*consts)
            gain = cycle_gain({Atom("a"): expr}, (Atom("a"),))
            assert gain.g1 == pytest.approx(y1 * x2 * x4 * (1 - x3),
                                            abs=1e-12)
            assert gain.g2 == pytest.approx(y1 * x2 * y4 * (1 - x3),
                                            abs=1e-12)

    def test_hijk_gain_with_aggregation_dropped(self, hijk_entries):
        entries = dict(hijk_entries)
        node = entries[Atom("j")]
        branch = node.right if isinstance(node.left, Const) else node.left
        entries[Atom("j")] = branch
        comp = tuple(sorted(entries, key=str))
        owned = owned_cycles([Atom("h")], enumerate_cycles(entries, comp))
        (cycle,) = owned[Atom("h")]
        gain = cycle_gain(entries, cycle)
        assert gain.norm == pytest.approx(0.464, abs=1e-9)

    def test_hijk_gain_through_aggregation_is_refused(self, hijk_entries):
        """j reads i only in a certainty aggregation, which has no
        linear gain: the walk found no reference there and unpacked
        None, a TypeError."""
        cycle = tuple(Atom(n) for n in "hijk")
        assert isinstance(hijk_entries[Atom("j")], Kagg)
        with pytest.raises(ValueError, match="the body of j: it reads i"):
            cycle_gain(hijk_entries, cycle)


class TestContractionClassification:
    def test_positive_cycle(self, ex1):
        entries = transform_program(ex1)
        comp = tuple(sorted(entries, key=str))
        cycles = enumerate_cycles(entries, comp)
        report = check_contraction(entries, comp, [Atom("a")], cycles)
        assert report.classification == "no_naf_no_kagg"

    def test_contractive_simple_cycle(self):
        entries = {Atom("a"): And((Const(iv(0.5, 0.6)), Naf(ref("a"))))}
        comp = (Atom("a"),)
        cycles = enumerate_cycles(entries, comp)
        report = check_contraction(entries, comp, [Atom("a")], cycles)
        assert report.classification == "simple_cycle_gain_lt1"
        assert report.gains[Atom("a")].norm < 1.0

    def test_aggregation_cycle(self, hijk_entries):
        comp = tuple(sorted(hijk_entries, key=str))
        cycles = enumerate_cycles(hijk_entries, comp)
        report = check_contraction(hijk_entries, comp, [Atom("h")], cycles)
        assert report.classification == "kagg_cycle"

    def test_constant_free_naf_cycle_needs_branching(self):
        entries = {Atom("y"): Naf(ref("z")), Atom("z"): Naf(ref("y"))}
        comp = tuple(sorted(entries, key=str))
        cycles = enumerate_cycles(entries, comp)
        report = check_contraction(entries, comp, [Atom("y")], cycles)
        assert report.classification == "branch_bound_required"

    def test_example7_is_unclassified_yet_converges(self, ex7_entries):
        comp = tuple(sorted(ex7_entries, key=str))
        cycles = enumerate_cycles(ex7_entries, comp)
        report = check_contraction(ex7_entries, comp,
                                   [Atom("a"), Atom("g")], cycles)
        assert report.classification == "unclassified"


def by_solver(cfg):
    """The component pass's own valuation of aggregation-free entries,
    the callback the resolver takes."""
    out = ComponentPass([])
    return lambda chosen: _value_component(
        tuple(chosen), chosen, SolverConfig(nmi=cfg), out)[0]


class TestAggregationCycleResolution:
    def test_example8(self, ex8):
        entries = transform_program(ex8)
        comp = tuple(sorted(entries, key=str))
        results = solve_kagg_cycle(entries, comp, TIGHT, by_solver(TIGHT))
        assert len(results) == 1
        values = results[0]
        assert values[Atom("a")].same_as(iv(0, 0), eps=1e-6)
        assert values[Atom("b")].same_as(iv(0, 0), eps=1e-6)
        assert values[Atom("c")].same_as(iv(1, 1), eps=1e-6)

    def test_hijk(self, hijk_entries):
        comp = tuple(sorted(hijk_entries, key=str))
        results = solve_kagg_cycle(hijk_entries, comp, TIGHT,
                                   by_solver(TIGHT))
        assert len(results) == 1
        values = results[0]
        assert values[Atom("h")].same_as(iv(0.5557, 0.7938), eps=5e-4)
        assert values[Atom("i")].same_as(iv(0.4443, 0.4443), eps=5e-4)
        assert values[Atom("j")].same_as(iv(0.2062, 0.2062), eps=5e-4)
        assert values[Atom("k")].same_as(iv(0.7938, 0.7938), eps=5e-4)

    def test_degenerate_ignorance_constant_loses(self):
        entries = {Atom("a"): Kagg(Const(iv(0, 1)), Naf(ref("b"))),
                   Atom("b"): And((Const(iv(0.5, 0.8)), ref("a")))}
        comp = tuple(sorted(entries, key=str))
        results = solve_kagg_cycle(entries, comp, TIGHT, by_solver(TIGHT))
        assert len(results) == 1
        values = results[0]
        assert values[Atom("a")].same_as(iv(2 / 3, 2 / 3), eps=1e-6)

    def test_no_constant_operand(self):
        """An aggregation with no constant operand is resolved like any
        other: a = b = [0.5,0.5] is where b ties with not b."""
        entries = {Atom("a"): Kagg(ref("b"), Naf(ref("b"))),
                   Atom("b"): ref("a")}
        comp = tuple(sorted(entries, key=str))
        (values,) = solve_kagg_cycle(entries, comp, TIGHT, by_solver(TIGHT))
        assert values[Atom("a")].same_as(iv(0.5, 0.5), eps=1e-6)
        assert values[Atom("b")].same_as(iv(0.5, 0.5), eps=1e-6)

    def test_no_constant_operand_through_solve(self):
        p = parse_program("a <- [1,1] : b. -a <- [0.3,0.6] : b. "
                          "b <- [0.9,1] : a.")
        assert str(transform_program(p)[Atom("a")]) \
            == "(b (x)k -(([0.3,0.6] & b)))"
        report = solve(p)
        assert report.status == "ok" and report.answer_sets
        assert [rec["method"] for rec in report.diagnostics["components"]] \
            == ["kagg_cycle"]
        for answer in report.answer_sets:
            assert is_answer_set(answer, p, candidates=report.answer_sets,
                                 eps=report.diagnostics["verify_eps"])


class TestBranchAndBound:
    def test_default_pair_with_explicit_seeds(self):
        entries = {Atom("y"): Naf(ref("z")), Atom("z"): Naf(ref("y"))}
        results = branch_and_bound(entries, [Atom("y")], NmiConfig(),
                                   seeds=[0, 0.25, 0.75, 1])
        got = sorted(r[Atom("y")].lower for r in results)
        assert got == [0, 0.25, 0.75, 1]
        for r in results:
            assert r[Atom("z")].same_as(iv(1 - r[Atom("y")].lower,
                                           1 - r[Atom("y")].lower))

    def test_default_pair_on_the_grid(self):
        entries = {Atom("y"): Naf(ref("z")), Atom("z"): Naf(ref("y"))}
        results = branch_and_bound(entries, [Atom("y")], NmiConfig())
        assert sorted(r[Atom("y")].lower for r in results) == \
            [0, 0.25, 0.5, 0.75, 1]

    def test_self_defeating_loop_keeps_midpoint_only(self):
        entries = {Atom("p"): Naf(ref("p"))}
        results = branch_and_bound(entries, [Atom("p")], NmiConfig())
        assert len(results) == 1
        assert results[0][Atom("p")].same_as(iv(0.5, 0.5))


class TestNestingLemma:
    def test_positive_component_iterates_are_nested(self):
        entries = {Atom("a"): And((Const(iv(0.6, 0.9)), ref("b"))),
                   Atom("b"): Or((Const(iv(0.2, 0.4)), ref("a")))}
        out = nmi_iterate(entries, [Atom("a")], NmiConfig(eps=1e-9))
        assert out.status == "converged"
        prev = iv(0, 1)
        for step in out.history:
            cur = step[Atom("a")]
            assert cur.lower >= prev.lower - 1e-12
            assert cur.upper <= prev.upper + 1e-12
            prev = cur


class TestExactOrbit:
    """A chosen-value state that repeats exactly ends the run as the cap
    would, with the orbit as far as it was iterated and its period."""

    def test_period_three_stops_early(self, monkeypatch):
        entries = transform_program(parse_program(PERIOD_THREE))
        passes = 0

        def counting(*args):
            nonlocal passes
            passes += 1
            return mi_fixpoint(*args)

        monkeypatch.setattr(nmi, "mi_fixpoint", counting)
        out = nmi_iterate(entries, [Atom("a"), Atom("b")], NmiConfig())
        assert out.status == "max_iters" and out.period == 3
        assert passes == 87
        assert out.iters == len(out.history) == len(out.deltas) == 87

    def test_history_runs_on_to_the_cap(self):
        entries = {Atom("a"): Naf(ref("a"))}
        out = nmi_iterate(entries, [Atom("a")],
                          NmiConfig(eps=1e-9, max_outer_iters=51))
        assert out.period == 2
        assert [h[Atom("a")].lower for h in out.history] == [1.0, 0.0, 1.0]
        assert out.deltas == [1.0] * 3
        assert out.interp == out.history[-1]

    def test_converging_run_has_no_period(self, ex7_entries):
        out = nmi_iterate(ex7_entries, [Atom("a"), Atom("g")], NmiConfig())
        assert out.status == "converged" and out.period == 0
