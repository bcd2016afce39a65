"""Monotonic iteration: drive the consequence operator to its least
fixpoint, consuming rules as their bodies become constant.

Each step pops, in residual order, the value of every atom whose
residual body has folded to a constant, in one pass that notes an
inconsistent aggregation, which halts the iteration, and records a
trace row.  It substitutes the values into those atoms' unassigned
watchers, merging their lists only for two or more atoms (a list names
each body once), and notes the bodies that fold to a constant: the next
step's atoms, sorted only when there are two or more.  Simplification
drops [1,1] conjuncts and [0,0] disjuncts and collapses on annihilators.

It reaches the states of the one-step reference in `tests/test_mi.py`,
which substitutes into every remaining body, but event-driven, in the
manner of Dowling-Gallier unit propagation: its index (`watch_index`)
is the dependency graph `depgraph.atom_digraph`, each atom of the
bodies to the bodies that refer to it, and a step substitutes into no
other body, so an acyclic program costs one substitution per
reference.  Bodies are taken as simplified, as `transform_program` and
`substitute` leave them; a body no assigned atom reaches is left as is.

Seed values stand for atoms before the first step, as though
substituted into every body; only the watchers of a seeded atom are
rewritten (every body, for a seeded atom that heads none), and a
seeded atom that fires is not propagated, since no body reads it any
more.  The index depends on the bodies alone, so a caller that runs
many seeded passes over one set of bodies (`nmi`) builds it once.
"""

from __future__ import annotations

from .depgraph import atom_digraph
from .intervals import INCONSISTENT
from .transform import Const, substitute


class MiState:
    def __init__(self, interp=None, residual=None, halted_inconsistent=False,
                 inconsistent_atoms=None, step=0, trace=None):
        self.interp = {} if interp is None else interp  # Atom -> Interval
        self.residual = {} if residual is None else residual  # -> BodyExpr
        self.halted_inconsistent = halted_inconsistent
        self.inconsistent_atoms = ([] if inconsistent_atoms is None
                                   else inconsistent_atoms)
        self.step = step
        # (step, assigned, residual count)
        self.trace = [] if trace is None else trace


def watch_index(bodies: dict) -> tuple:
    """(order, watchers): Atom -> its place among the bodies, and the
    dependency graph of the bodies, Atom -> the atoms whose body refers
    to it."""
    return {a: k for k, a in enumerate(bodies)}, atom_digraph(bodies)


def mi_fixpoint(bodies: dict, seeds: dict = None,
                index: tuple = None) -> MiState:
    """Iterate the bodies, with the seeds (Atom -> value) substituted,
    to the state where no residual body is constant or inconsistency
    halts, substituting only through the watch index, which must be
    `watch_index(bodies)`.  The state is that of
    `mi_fixpoint({a: substitute(e, seeds) for a, e in bodies.items()})`."""
    order, watchers = index or watch_index(bodies)
    s = MiState(residual=dict(bodies))
    residual, seeds = s.residual, seeds or {}
    # the graph leaves out an atom heading no body: every body may read it
    for w in dict.fromkeys(w for a in seeds
                           for w in watchers.get(a, bodies)):
        residual[w] = substitute(residual[w], seeds)
    ready = [a for a, e in residual.items() if type(e) is Const]
    step = 0
    while ready:
        assigned, bad = {}, []
        for a in ready:
            v = assigned[a] = residual.pop(a).value
            if v is INCONSISTENT:
                bad.append(a)
        s.interp.update(assigned)
        step += 1
        s.trace.append((step, assigned, len(residual)))
        if bad:
            s.halted_inconsistent = True
            s.inconsistent_atoms = sorted(bad, key=str)
            break
        if len(ready) == 1:
            targets = () if ready[0] in seeds else watchers[ready[0]]
        else:
            targets = dict.fromkeys(w for a in ready if a not in seeds
                                    for w in watchers[a])
        ready = []
        for w in targets:
            if w in residual:
                e = residual[w] = substitute(residual[w], assigned)
                if type(e) is Const:
                    ready.append(w)
        if len(ready) > 1:
            ready.sort(key=order.__getitem__)
    s.step = step
    return s
