"""Monotonic iteration: drive the consequence operator to its least
fixpoint, consuming rules as their bodies become constant.

Each step assigns every atom whose residual body has folded to a
constant, then substitutes the new values into the remaining bodies
(simplification drops [1,1] conjuncts and [0,0] disjuncts and collapses
on annihilators).  An inconsistent aggregation halts the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intervals import INCONSISTENT
from .transform import Const, TransformedProgram, substitute


@dataclass
class MiState:
    interp: dict = field(default_factory=dict)      # Atom -> Interval
    residual: dict = field(default_factory=dict)    # Atom -> BodyExpr
    halted_inconsistent: bool = False
    inconsistent_atoms: list = field(default_factory=list)
    step: int = 0
    trace: list = field(default_factory=list)       # (step, assigned, residual count)


def initial_state(p: TransformedProgram) -> MiState:
    return MiState(residual=dict(p.entries))


def gamma_step(s: MiState) -> MiState:
    """One simultaneous firing of all fully-evaluable rules."""
    if s.halted_inconsistent:
        return s
    assigned = {}
    bad = []
    for atom, expr in s.residual.items():
        if isinstance(expr, Const):
            assigned[atom] = expr.value
            if expr.value is INCONSISTENT:
                bad.append(atom)
    if not assigned:
        return s
    interp = dict(s.interp)
    interp.update(assigned)
    step = s.step + 1
    trace = s.trace + [(step, assigned, len(s.residual) - len(assigned))]
    if bad:
        residual = {a: e for a, e in s.residual.items() if a not in assigned}
        return MiState(interp, residual, True, sorted(bad, key=str), step, trace)
    residual = {a: substitute(e, assigned)
                for a, e in s.residual.items() if a not in assigned}
    return MiState(interp, residual, False, [], step, trace)


def mi_fixpoint(p: TransformedProgram) -> MiState:
    """Iterate gamma_step until nothing changes or inconsistency halts."""
    state = initial_state(p)
    while True:
        nxt = gamma_step(state)
        if nxt is state or nxt.halted_inconsistent:
            return nxt
        state = nxt
