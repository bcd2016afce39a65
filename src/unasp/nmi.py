"""Nonmonotonic iteration over one strongly connected component.

The chosen (assumption-set) atoms act as the iteration state: each
outer step seeds the monotonic engine with their current values, runs
it to a fixpoint on the now-acyclic subprogram, and reads the chosen
atoms back.  One watch index serves every step and every seed
combination of a plan: `nmi_iterate` and `branch_and_bound` build it
once per call, and each pass rewrites only the bodies that read a
chosen atom.  Also here: the contraction check, whose one
walk carries the linearized cycle gain hop by hop through the bodies
around each cycle a chosen atom owns; the resolver for components with
certainty aggregations, which tries each side of every aggregation and
keeps the valuations in which the chosen sides win; and grid-seeded
branch-and-bound for components with no constants to anchor the
iteration.
"""

from __future__ import annotations

import itertools
import math

from .intervals import BOTTOM, INCONSISTENT, Interval, Record, tconorm, tnorm
from .mi import mi_fixpoint, watch_index
from .transform import (And, Const, Kagg, Naf, Neg, Or, Ref, node_kinds,
                        substitute)
from .depgraph import AnalysisOverflow, owned_cycles
# not called here; the benchmark's spans wrap them under this module too
from .depgraph import enumerate_cycles, select_assumption_set  # noqa: F401


class NmiConfig(Record):
    eps = 0.009
    max_outer_iters = 10_000
    n_b = 5

    def __init__(self, eps=eps, max_outer_iters=max_outer_iters, n_b=n_b):
        self.eps = eps
        self.max_outer_iters = max_outer_iters
        self.n_b = n_b
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if self.n_b < 2:
            raise ValueError("n_b must be at least 2")

    @property
    def answer_tol(self) -> float:
        """Tolerance answer values are judged to: 3 eps, at least 1e-6."""
        return max(1e-6, 3.0 * self.eps)

    def grid_seeds(self):
        return [i / (self.n_b - 1) for i in range(self.n_b)]


class GainVector:
    def __init__(self, g1: float, g2: float):
        self.g1 = g1
        self.g2 = g2

    @property
    def norm(self) -> float:
        return max(abs(self.g1), abs(self.g2))


class NmiOutcome:
    def __init__(self, status: str, interp: dict = None, iters: int = 0,
                 history: list = None, deltas: list = None, period: int = 0):
        self.status = status    # converged | max_iters | inconsistent
        self.interp = {} if interp is None else interp   # Atom -> Interval
        self.iters = iters
        self.history = [] if history is None else history  # per outer step
        self.deltas = [] if deltas is None else deltas  # sup-norm changes
        self.period = period  # of an exact orbit max_iters was read off


class UnresolvedComponent(RuntimeError):
    """The inner pass could not value every atom; the assumption set
    does not break all cycles."""


def nmi_iterate(entries: dict, assumption_set, cfg: NmiConfig,
                init: dict = None) -> NmiOutcome:
    """Outer fixpoint iteration over the chosen atoms, started from
    total ignorance unless an explicit init is given.

    Each step is a function of the chosen values alone, so once they
    repeat exactly without converging, the run would cycle until the
    cap.  It stops there instead: status max_iters, as at the cap, with
    the orbit run so far and its period."""
    current = {a: BOTTOM for a in assumption_set}
    if init:
        current.update(init)
    history, deltas = [], []
    seen = {}   # chosen (lower, upper) values -> the iteration giving them
    index = watch_index(entries)
    for it in range(1, cfg.max_outer_iters + 1):
        state = mi_fixpoint(entries, current, index)
        if state.halted_inconsistent:
            return NmiOutcome("inconsistent", state.interp, it,
                              history, deltas)
        if state.residual:
            raise UnresolvedComponent(
                f"atoms left unresolved: {sorted(state.residual, key=str)}")
        new = {a: state.interp[a] for a in assumption_set}
        delta = max(
            max(abs(new[a].lower - current[a].lower),
                abs(new[a].upper - current[a].upper))
            for a in assumption_set)
        history.append(new)
        deltas.append(delta)
        current = new
        if delta < cfg.eps:
            final = mi_fixpoint(entries, current, index)
            status = ("inconsistent" if final.halted_inconsistent
                      else "converged")
            return NmiOutcome(status, final.interp, it, history, deltas)
        key = tuple((new[a].lower, new[a].upper) for a in assumption_set)
        if key in seen:
            return NmiOutcome("max_iters", current, it, history,
                              deltas, it - seen[key])
        seen[key] = it
    return NmiOutcome("max_iters", current, cfg.max_outer_iters,
                      history, deltas)


def _carry(expr, atom, state):
    """The linearized state (g1, g2, varying, disjunctive) carried from
    the first reference to atom in expr, depth first and left to right,
    out to expr's root; None when expr does not mention atom.

    g1 and g2 are the coefficients of the two interval bounds, taken
    from the constant operands alone: classical negation swaps them,
    naf makes both depend on the lower one, a conjunction scales them
    by its folded constant operands and a disjunction by one minus
    those.  varying counts the non-constant operands met, disjunctive
    whether a disjunction was.  The walk has no aggregation case: a
    component with one is classed before any walk."""
    if isinstance(expr, Ref):
        if expr.literal.atom != atom:
            return None
        g1, g2, varying, disjunctive = state
        return (g2, g1, varying, disjunctive) if expr.literal.negated \
            else state
    if isinstance(expr, (Naf, Neg)):
        inner = _carry(expr.child, atom, state)
        if inner is None:
            return None
        g1, g2, varying, disjunctive = inner
        if isinstance(expr, Naf):
            return (g1, g1, varying, disjunctive)
        return (g2, g1, varying, disjunctive)
    if isinstance(expr, (And, Or)):
        combine = tnorm if isinstance(expr, And) else tconorm
        for k, child in enumerate(expr.children):
            inner = _carry(child, atom, state)
            if inner is None:
                continue
            g1, g2, varying, disjunctive = inner
            const = None
            for j, sibling in enumerate(expr.children):
                if j == k:
                    continue
                if isinstance(sibling, Const):
                    const = sibling.value if const is None \
                        else combine(const, sibling.value)
                else:
                    varying += 1
            if isinstance(expr, Or):
                disjunctive = True
                if const is not None:
                    g1 *= 1.0 - const.lower
                    g2 *= 1.0 - const.upper
            elif const is not None:
                g1 *= const.lower
                g2 *= const.upper
            return (g1, g2, varying, disjunctive)
    return None


def _walk_cycle(entries: dict, cycle):
    """(GainVector, varying, disjunctive) once around the cycle, hop by
    hop from cycle[0], each hop u->v carried through v's body."""
    state = (1.0, 1.0, 0, False)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        state = _carry(entries[v], u, state)
    g1, g2, varying, disjunctive = state
    return GainVector(g1, g2), varying, disjunctive


def cycle_gain(entries: dict, cycle) -> GainVector:
    """Linearized update coefficients once around the cycle from
    cycle[0], from the constant operands alone."""
    return _walk_cycle(entries, cycle)[0]


class ContractionReport:
    def __init__(self, classification: str, gains: dict = None):
        # no_naf_no_kagg | simple_cycle_gain_lt1 | conj_path_bound |
        # kagg_cycle | branch_bound_required | unclassified
        self.classification = classification
        self.gains = {} if gains is None else gains   # Atom -> GainVector


def check_contraction(entries: dict, component, assumption_set,
                      cycles) -> ContractionReport:
    """Advisory classification of a component against the sufficient
    convergence conditions; unclassified components still iterate."""
    kinds = node_kinds(entries[a] for a in component)
    if Kagg in kinds:
        return ContractionReport("kagg_cycle")
    if Naf not in kinds:
        return ContractionReport("no_naf_no_kagg")
    if Const not in kinds:
        # nothing damps the cycle; only exact seeds can stabilize it
        return ContractionReport("branch_bound_required")
    walks = {atom: [_walk_cycle(entries, cyc) for cyc in owned]
             for atom, owned in owned_cycles(assumption_set, cycles).items()}
    if len(cycles) == 1 and len(assumption_set) == 1:
        (atom,) = assumption_set
        ((gain, varying, _),) = walks[atom]
        if not varying:
            if gain.norm < 1.0:
                return ContractionReport("simple_cycle_gain_lt1",
                                         {atom: gain})
            return ContractionReport("unclassified", {atom: gain})
    bounds, gains = [], {}
    for atom, walked in walks.items():
        for gain, varying, disjunctive in walked:
            if disjunctive:
                bounds.append(False)
                continue
            # a conjunction-only cycle: constant-only gain against the
            # number of varying conjuncts
            gains[atom] = GainVector(gain.norm, gain.norm)
            bounds.append(gain.norm < 1.0 / (varying + 2))
    if bounds and all(bounds):
        return ContractionReport("conj_path_bound", gains)
    return ContractionReport("unclassified", gains)


KAGG_CAP = 8   # aggregations in one component: 2**8 side selections


def _valuation_key(values: dict):
    return tuple(sorted((str(a), round(v.lower, 9), round(v.upper, 9))
                        for a, v in values.items()))


def solve_kagg_cycle(entries: dict, component, cfg: NmiConfig, solve):
    """Resolve a component through its certainty aggregations, each an
    entry a <- L (x)k R: for every selection of one side of each, value
    the aggregation-free entries with solve(entries), a list of
    valuations, and keep those in which every chosen side really wins,
    that is, each original aggregation folds to its atom's value.
    Raises AnalysisOverflow beyond KAGG_CAP aggregations."""
    kagg_atoms = [a for a in component if isinstance(entries[a], Kagg)]
    if len(kagg_atoms) > KAGG_CAP:
        raise AnalysisOverflow(f"more than {KAGG_CAP} aggregations")
    results = {}
    for sides in itertools.product((0, 1), repeat=len(kagg_atoms)):
        chosen = dict(entries)
        for a, side in zip(kagg_atoms, sides):
            chosen[a] = entries[a].right if side else entries[a].left
        for values in solve(chosen):
            wins = (substitute(entries[a], values).value for a in kagg_atoms)
            if all(v is not INCONSISTENT
                   and v.same_as(values[a], cfg.answer_tol)
                   for a, v in zip(kagg_atoms, wins)):
                results.setdefault(_valuation_key(values), values)
    return list(results.values())


def branch_and_bound(entries: dict, assumption_set, cfg: NmiConfig,
                     seeds=None):
    """Try every combination of exact seeds over the chosen atoms; keep
    those that reproduce themselves under one inner pass."""
    points = list(seeds) if seeds is not None else cfg.grid_seeds()
    results = {}
    index = watch_index(entries)
    for combo in itertools.product(points, repeat=len(assumption_set)):
        values = {a: Interval(x, x) for a, x in zip(assumption_set, combo)}
        state = mi_fixpoint(entries, values, index)
        if not (state.halted_inconsistent or state.residual) and all(
                state.interp[a].same_as(values[a], cfg.eps)
                for a in assumption_set):
            results.setdefault(_valuation_key(state.interp), state.interp)
    return list(results.values())
