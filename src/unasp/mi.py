"""Monotonic iteration: drive the consequence operator to its least
fixpoint, consuming rules as their bodies become constant.

Each step pops, in residual order, into the interpretation the value
of every atom whose residual body has folded to a constant, noting an
inconsistent aggregation, which halts the iteration, and records a
trace row of counts: only the interpretation holds values, in the order
assigned.  It substitutes it into those atoms' unassigned watchers
(which read no atom assigned before), merging their lists only for two
or more atoms (a list names each body once), and notes the bodies that
fold to a constant: the next step's atoms, sorted only when there are
two or more.  Simplification drops [1,1] conjuncts and [0,0] disjuncts
and collapses on annihilators.

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

The residual is a copy: the caller's dict keeps its keys, order and
bodies, and the iteration lets go of it once copied, so a body the
caller passed on (`solve` passes `transform_program(g)`) is freed when
its first substitution replaces it, on CPython 3.11+, where a call
moves its arguments into the callee's frame.  A pass given no index
builds the graph on first need, for seeds or for a first step that
leaves bodies to reach, and the order only for a step that readies two
or more atoms: one with no constant to start from, or whose first step
assigns every atom, builds neither.
"""

from __future__ import annotations

from .depgraph import atom_digraph
from .intervals import INCONSISTENT
from .transform import Const, substitute


class MiState:
    def __init__(self, interp=None, residual=None, inconsistent_atoms=None,
                 step=0, trace=None):
        # Atom -> Interval, in the order assigned
        self.interp = {} if interp is None else interp
        self.residual = {} if residual is None else residual  # -> BodyExpr
        # where an inconsistent value halted the iteration, sorted by name
        self.inconsistent_atoms = ([] if inconsistent_atoms is None
                                   else inconsistent_atoms)
        self.step = step
        # (step, atoms assigned, residual count)
        self.trace = [] if trace is None else trace


def _order(watchers: dict) -> dict:
    """Atom -> its place among the keys of a dependency graph, which
    `atom_digraph` gives in the order of the bodies."""
    return {a: k for k, a in enumerate(watchers)}


def watch_index(bodies: dict) -> tuple:
    """(order, watchers): Atom -> its place among the bodies, and the
    dependency graph of the bodies, Atom -> the atoms whose body refers
    to it."""
    watchers = atom_digraph(bodies)
    return _order(watchers), watchers


def mi_fixpoint(bodies: dict, seeds: dict = None,
                index: tuple = None) -> MiState:
    """Iterate the bodies, with the seeds (Atom -> value) substituted,
    to the state where no residual body is constant or inconsistency
    halts, substituting only through the watch index, which must be
    `watch_index(bodies)`.  The state is that of
    `mi_fixpoint({a: substitute(e, seeds) for a, e in bodies.items()})`.
    The residual is a copy of bodies, which is left as it was and let
    go; without an index, the graph and the order are built on first
    need."""
    s = MiState(residual=dict(bodies))
    del bodies  # the residual alone holds each body from here
    residual, seeds = s.residual, seeds or {}
    order, watchers = index or (None, None)
    if seeds:
        if watchers is None:
            watchers = atom_digraph(residual)
        # the graph leaves out an atom heading no body: every body may
        # read it
        for w in dict.fromkeys(w for a in seeds
                               for w in watchers.get(a, residual)):
            residual[w] = substitute(residual[w], seeds)
    ready = [a for a, e in residual.items() if type(e) is Const]
    if watchers is None and 0 < len(ready) < len(residual):
        watchers = atom_digraph(residual)
    interp, bad, step = s.interp, s.inconsistent_atoms, 0
    while ready:
        for a in ready:
            if (v := residual.pop(a).value) is INCONSISTENT:
                bad.append(a)
            interp[a] = v
        step += 1
        s.trace.append((step, len(ready), len(residual)))
        if bad:
            bad.sort(key=str)
            break
        if not residual:
            break
        if len(ready) == 1:
            targets = () if ready[0] in seeds else watchers[ready[0]]
        else:
            targets = dict.fromkeys(w for a in ready if a not in seeds
                                    for w in watchers[a])
        ready = []
        for w in targets:
            if w in residual:
                e = residual[w] = substitute(residual[w], interp)
                if type(e) is Const:
                    ready.append(w)
        if len(ready) > 1:
            if order is None:
                order = _order(watchers)
            ready.sort(key=order.__getitem__)
    s.step = step
    return s
