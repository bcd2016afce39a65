"""Nonmonotonic iteration over one strongly connected component.

The chosen (assumption-set) atoms act as the iteration state: each
outer step substitutes their current values into every body, runs the
monotonic engine to a fixpoint on the now-acyclic subprogram, and reads
the chosen atoms back.  Also here: the cycle-gain computation used for
contraction checks, the special-case resolver for a single cycle
through a certainty aggregation, and grid-seeded branch-and-bound for
components with no constants to anchor the iteration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .intervals import BOTTOM, EPS_CMP, Interval
from .mi import mi_fixpoint
from .program import Literal
from .semantics import evaluate
from .transform import Const, Kagg, Naf, node_kinds, simplify, substitute
from .depgraph import (CYCLE_CAP, NonConstantOperand, enumerate_cycles,
                       select_assumption_set, build_vpg)


@dataclass
class NmiConfig:
    eps: float = 0.009
    max_outer_iters: int = 10_000
    n_b: int = 5

    def __post_init__(self):
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


@dataclass
class GainVector:
    g1: float
    g2: float

    @property
    def norm(self) -> float:
        return max(abs(self.g1), abs(self.g2))


@dataclass
class NmiOutcome:
    status: str                 # converged | max_iters | inconsistent
    interp: dict = field(default_factory=dict)   # Atom -> Interval
    iters: int = 0
    history: list = field(default_factory=list)  # chosen values per outer step
    deltas: list = field(default_factory=list)   # sup-norm change per step
    period: int = 0   # of the exact orbit a max_iters run was read off, if any


class UnresolvedComponent(RuntimeError):
    """The inner pass could not value every atom; the assumption set
    does not break all cycles."""


def _inner_pass(entries: dict, values: dict):
    return mi_fixpoint({a: substitute(e, values) for a, e in entries.items()})


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
    for it in range(1, cfg.max_outer_iters + 1):
        state = _inner_pass(entries, current)
        if state.halted_inconsistent:
            return NmiOutcome("inconsistent", dict(state.interp), it,
                              history, deltas)
        if state.residual:
            raise UnresolvedComponent(
                f"atoms left unresolved: {sorted(state.residual, key=str)}")
        new = {a: state.interp[a] for a in assumption_set}
        delta = max(
            max(abs(new[a].lower - current[a].lower),
                abs(new[a].upper - current[a].upper))
            for a in assumption_set)
        history.append(dict(new))
        deltas.append(delta)
        current = new
        if delta < cfg.eps:
            final = _inner_pass(entries, current)
            status = ("inconsistent" if final.halted_inconsistent
                      else "converged")
            return NmiOutcome(status, dict(final.interp), it, history, deltas)
        key = tuple((new[a].lower, new[a].upper) for a in assumption_set)
        if key in seen:
            return NmiOutcome("max_iters", dict(current), it, history,
                              deltas, it - seen[key])
        seen[key] = it
    return NmiOutcome("max_iters", dict(current), cfg.max_outer_iters,
                      history, deltas)


def _walk_path(vpp: dict):
    """Linearized update coefficients along one value-propagation path,
    from the constant operands alone.

    Walks the path keeping a coefficient per interval bound: classical
    negation swaps the bounds, naf makes both depend on the lower one,
    a conjunction with constant operand scales by its bounds, a
    disjunction by one minus its bounds.  Also returns the number of
    non-constant operands met along the way and the operators met.
    """
    g1 = g2 = 1.0
    varying = 0
    ops = set()
    for step in itertools.chain.from_iterable(vpp["segments"]):
        kind = step[0]
        ops.add(kind)
        if kind == "neg":
            g1, g2 = g2, g1
        elif kind == "naf":
            g2 = g1
        else:
            const, extra = step[1], step[2]
            varying += extra
            if kind == "and" and const is not None:
                g1 *= const.lower
                g2 *= const.upper
            elif kind == "or" and const is not None:
                g1 *= 1.0 - const.lower
                g2 *= 1.0 - const.upper
    return GainVector(g1, g2), varying, ops


def cycle_gain(vpp: dict) -> GainVector:
    """Linearized update coefficients along one value-propagation path
    whose conjunctions and disjunctions all have constant operands."""
    gain, varying, ops = _walk_path(vpp)
    if "kagg" in ops:
        raise NonConstantOperand("aggregation node in path")
    if varying:
        raise NonConstantOperand("path has non-constant operands")
    return gain


@dataclass
class ContractionReport:
    classification: str   # no_naf_no_kagg | simple_cycle_gain_lt1 |
                          # conj_path_bound | kagg_cycle |
                          # branch_bound_required | unclassified
    gains: dict = field(default_factory=dict)   # Atom -> GainVector | None


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
    vpg = build_vpg(entries, component, assumption_set, cycles)
    if len(cycles) == 1 and len(assumption_set) == 1:
        atom = assumption_set[0]
        if vpg[atom]:
            try:
                gain = cycle_gain(vpg[atom][0])
                if gain.norm < 1.0:
                    return ContractionReport("simple_cycle_gain_lt1",
                                             {atom: gain})
                return ContractionReport("unclassified", {atom: gain})
            except NonConstantOperand:
                pass
    bounds, gains = [], {}
    for atom in assumption_set:
        for vpp in vpg.get(atom, []):
            # a conjunction-only path: constant-only gain against the
            # number of varying conjuncts
            gain, k, ops = _walk_path(vpp)
            if ops & {"or", "kagg"}:
                bounds.append(False)
                continue
            gains[atom] = GainVector(gain.norm, gain.norm)
            bounds.append(gain.norm < 1.0 / (k + 2))
    if bounds and all(bounds):
        return ContractionReport("conj_path_bound", gains)
    return ContractionReport("unclassified", gains)


class StructuralMismatch(RuntimeError):
    pass


def kagg_anchor(entries: dict, component, cycles):
    """The atom a, constant c and other operand B of the one aggregation
    rule a <- c (x)k B on a simple cycle; raises StructuralMismatch when
    the component has another shape."""
    kagg_atoms = [a for a in component if isinstance(entries[a], Kagg)]
    if len(kagg_atoms) != 1:
        raise StructuralMismatch("expected exactly one aggregation rule")
    atom = kagg_atoms[0]
    node = entries[atom]
    if isinstance(node.left, Const):
        cbar, branch = node.left.value, node.right
    elif isinstance(node.right, Const):
        cbar, branch = node.right.value, node.left
    else:
        raise StructuralMismatch("no constant aggregation operand")
    if len(cycles) != 1:
        raise StructuralMismatch("component is not a simple cycle")
    return atom, cbar, branch


def solve_kagg_cycle(entries: dict, component, cfg: NmiConfig,
                     cap: int = CYCLE_CAP):
    """Resolve a simple cycle containing exactly one aggregation rule
    a <- c (x)k B by comparing two candidate fixpoints: the cycle with
    the aggregation dropped, and a single pass anchored at a = c.

    Returns the surviving candidate interpretations (0, 1, or 2).
    """
    atom, cbar, branch = kagg_anchor(
        entries, component, enumerate_cycles(entries, component, cap))

    # candidate 1: iterate with the aggregation dropped
    dropped = dict(entries)
    dropped[atom] = simplify(branch)
    aset = select_assumption_set(dropped, component,
                                 enumerate_cycles(dropped, component, cap))
    outcome = nmi_iterate(dropped, aset, cfg)
    i_minus = outcome.interp if outcome.status == "converged" else None
    # stability: the branch value must be strictly more certain than c
    stable_minus = (i_minus is not None
                    and i_minus[atom].width < cbar.width - EPS_CMP)

    # candidate 2: single anchored pass from a = c
    state = _inner_pass({x: e for x, e in entries.items() if x != atom},
                        {atom: cbar})
    i_s = None
    if not state.halted_inconsistent and not state.residual:
        i_s = dict(state.interp)
        i_s[atom] = cbar
    # the incoming evidence must be strictly less certain than c
    stable_s = (i_s is not None
                and evaluate(branch, {Literal(a): v for a, v in i_s.items()})
                .width > cbar.width + EPS_CMP)

    if stable_minus and stable_s:
        below_minus = all(i_minus[x].width >= i_s[x].width - EPS_CMP
                          for x in component)
        below_s = all(i_s[x].width >= i_minus[x].width - EPS_CMP
                      for x in component)
        if below_minus:
            return [(i_minus, "kagg_dropped")]
        if below_s:
            return [(i_s, "kagg_anchored")]
        return [(i_minus, "kagg_dropped"), (i_s, "kagg_anchored")]
    if stable_minus:
        return [(i_minus, "kagg_dropped")]
    if stable_s:
        return [(i_s, "kagg_anchored")]
    return []


def branch_and_bound(entries: dict, assumption_set, cfg: NmiConfig,
                     seeds=None):
    """Try every combination of exact seeds over the chosen atoms; keep
    those that reproduce themselves under one inner pass."""
    points = list(seeds) if seeds is not None else cfg.grid_seeds()
    results = []
    seen = set()
    for combo in itertools.product(points, repeat=len(assumption_set)):
        values = {a: Interval(x, x) for a, x in zip(assumption_set, combo)}
        state = _inner_pass(entries, values)
        if state.halted_inconsistent or state.residual:
            continue
        stable = all(state.interp[a].same_as(values[a], cfg.eps)
                     for a in assumption_set)
        if not stable:
            continue
        result = dict(state.interp)
        key = tuple(sorted((str(a), round(v.lower, 9), round(v.upper, 9))
                           for a, v in result.items()))
        if key in seen:
            continue
        seen.add(key)
        results.append(result)
    return results
