"""Dependency-graph analysis of a transformed program.

One graph is kept: the atom projection of the bodies (an edge u->v when
v's body mentions u), used for SCC condensation, topological ordering,
simple-cycle enumeration and `mi`'s watch index; the grid oracle in
`semantics` condenses the same graph, read from the rules.  `to_dot`
draws the paper's operator graph (atom, operator and constant nodes, naf
and classical-negation edges) straight from the bodies.  The graph
algorithms are the textbook ones: Tarjan's (1972) strongly connected
components, Kahn's topological sort taking the smallest ready component
first, and Johnson's (1975) elementary circuits.  On top of those sit
the assumption-set selection (which atoms to guess per SCC) and cycle
ownership: the cycles through one chosen atom that avoid the others,
which both the selection and the contraction check in `nmi` read.
"""

from __future__ import annotations

import heapq

from . import transform as tf

NAF_EDGE = "-1"
NEG_EDGE = "~"
# bound on the simple cycles of one component
CYCLE_CAP = 10_000


class AnalysisOverflow(RuntimeError):
    pass


class NoValidAssumptionSet(RuntimeError):
    pass


def atom_digraph(entries: dict) -> dict:
    """Atom-level projection as an adjacency dict: atom u -> the atoms v
    whose bodies mention it (edge u->v)."""
    g = {a: [] for a in entries}
    for v, expr in entries.items():
        for u in tf.referenced_atoms(expr):
            if u in entries:
                g[u].append(v)
    return g


def _tarjan(adj, nodes):
    """Strongly connected components of adj restricted to the set nodes
    (Tarjan 1972), iteratively; a node in a finished component gets index
    infinity, so it lowers no link, in place of an on-stack test."""
    index, low, stack, components = {}, {}, [], []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if w not in nodes:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    component = []
                    while not component or component[-1] != v:
                        component.append(stack.pop())
                        index[component[-1]] = float("inf")
                    components.append(component)
    return components


def _circuits(adj):
    """Every elementary circuit of the graph on 0..n-1 given as successor
    lists (Johnson 1975): from the smallest node of each strongly
    connected component, a search that blocks the nodes it cannot close
    a circuit through, then the same on the component without it."""
    pending = [set(c) for c in _tarjan(adj, range(len(adj)))]
    while pending:
        comp = pending.pop()
        start = min(comp)
        if len(comp) == 1 and start not in adj[start]:
            continue
        sub = {v: [w for w in adj[v] if w in comp] for v in comp}
        path, blocked, closed = [start], {start}, set()
        waiting = {v: set() for v in comp}   # Johnson's B lists
        work = [(start, list(sub[start]))]
        while work:
            v, succ = work[-1]
            if succ:
                w = succ.pop()
                if w == start:
                    yield list(path)
                    closed.update(path)
                elif w not in blocked:
                    path.append(w)
                    closed.discard(w)
                    blocked.add(w)
                    work.append((w, list(sub[w])))
                    continue
            if not succ:
                if v in closed:
                    release = [v]
                    while release:
                        u = release.pop()
                        if u in blocked:
                            blocked.discard(u)
                            release.extend(waiting[u])
                            waiting[u].clear()
                else:
                    for w in sub[v]:
                        waiting[w].add(v)
                work.pop()
                path.pop()
        comp.discard(start)
        pending.extend(set(c) for c in _tarjan(sub, comp))


def _topological(n, edges):
    """Kahn's order of n indices under edges, smallest ready index first."""
    succ = [[] for _ in range(n)]
    indegree = [0] * n
    for u, v in edges:
        succ[u].append(v)
        indegree[v] += 1
    ready = [k for k in range(n) if not indegree[k]]
    order = []
    while ready:
        k = heapq.heappop(ready)
        order.append(k)
        for j in succ[k]:
            indegree[j] -= 1
            if not indegree[j]:
                heapq.heappush(ready, j)
    return order


def scc_condense(entries: dict):
    """`condense` of the atom projection of the bodies."""
    return condense(atom_digraph(entries))


def condense(g: dict):
    """Maximal SCCs of the graph g, atom u -> the atoms of edges u->v,
    plus a topological order of the condensation.  Components are
    sorted-atom tuples; topo_order lists component indices, upstream
    first."""
    components = [tuple(sorted(c, key=str)) for c in _tarjan(g, g)]
    components.sort(key=lambda c: str(c[0]))
    index = {a: k for k, comp in enumerate(components) for a in comp}
    topo = _topological(len(components),
                        ((index[u], index[v]) for u, succ in g.items()
                         for v in succ if index[u] != index[v]))
    return components, topo


def enumerate_cycles(entries: dict, component):
    """Every elementary cycle of the component, rotation-normalized,
    as atom sequences without the closing repeat."""
    g = atom_digraph(entries)
    atoms = [a for a in component if a in g]
    label = {a: k for k, a in enumerate(atoms)}
    names = [str(a) for a in atoms]
    cycles = []
    for cyc in _circuits([[label[w] for w in g[a] if w in label]
                          for a in atoms]):
        k = min(range(len(cyc)), key=lambda i: names[cyc[i]])
        cycles.append(cyc[k:] + cyc[:k])
        if len(cycles) > CYCLE_CAP:
            raise AnalysisOverflow(f"more than {CYCLE_CAP} simple cycles")
    cycles.sort(key=lambda c: (len(c), [names[k] for k in c]))
    return [tuple(atoms[k] for k in c) for c in cycles]


def intersection_table(cycles, component):
    """cycle x atom tick table."""
    atoms = sorted(component, key=str)
    return {cyc: {a: a in cyc for a in atoms} for cyc in cycles}


def _disjunctive_head(expr) -> bool:
    if isinstance(expr, tf.Kagg):
        return _disjunctive_head(expr.left) or _disjunctive_head(expr.right)
    return isinstance(expr, tf.Or)


def owned_cycles(chosen, cycles) -> dict:
    """Chosen atom -> the cycles it owns: those through it that avoid
    every other chosen atom, each rotated to start at it."""
    owned = {a: [] for a in chosen}
    for a in chosen:
        for cyc in cycles:
            if a in cyc and not any(b in cyc for b in chosen if b != a):
                k = cyc.index(a)
                owned[a].append(cyc[k:] + cyc[:k])
    return owned


def _criterion2(chosen, cycles):
    return all(owned_cycles(chosen, cycles).values())


def select_assumption_set(entries: dict, component, cycles,
                          mode: str = "nmi"):
    """Greedy set cover over the intersection table with backtracking.

    Preference order at each pick: most uncovered cycles first, then
    atoms fed by a disjunction, then lexicographic.  In branch-bound
    mode only atoms whose body contains a naf literal are candidates.
    """
    atoms = sorted(component, key=str)
    if mode == "branch_bound":
        candidates = [a for a in atoms
                      if tf.Naf in tf.node_kinds([entries[a]])]
        if not candidates:
            raise NoValidAssumptionSet(
                "branch-bound requires an atom fed through naf")
    elif mode == "nmi":
        candidates = list(atoms)
    else:
        raise ValueError(f"unknown mode: {mode}")

    best = None
    # a node's subtree depends on its chosen set alone, and the size
    # bound only tightens, so a set met again can reach no better cover
    seen = set()

    def search(chosen, uncovered):
        nonlocal best
        if best is not None and len(chosen) >= len(best):
            return
        key = frozenset(chosen)
        if key in seen:
            return
        seen.add(key)
        if not uncovered:
            if _criterion2(chosen, cycles):
                best = list(chosen)
            return
        ranked = sorted(
            (a for a in candidates if a not in chosen),
            key=lambda a: (-sum(1 for cyc in uncovered if a in cyc),
                           not _disjunctive_head(entries[a]), str(a)))
        for a in ranked:
            gain = [cyc for cyc in uncovered if a in cyc]
            if not gain:
                break
            search(chosen + [a], [cyc for cyc in uncovered if a not in cyc])

    search([], list(cycles))
    del search  # it reads itself, a cycle that would keep seen until the GC
    if best is None:
        raise NoValidAssumptionSet(
            f"no assumption set covers all cycles of {atoms}")
    return sorted(best, key=str)


def to_dot(entries: dict) -> str:
    """Graphviz text for the operator graph of the bodies, drawn in one
    walk over each body: atoms are ellipses, AND/OR/KAGG boxes and
    constants plain text.  Each edge carries the label of the operator
    it leaves, NAF_EDGE for naf and NEG_EDGE for classical negation, so
    two edges between the same nodes keep their own labels."""
    nodes, edges, atom_names = [], [], {}

    def node(label, shape):
        name = f"n{len(nodes)}"
        nodes.append(f'  {name} [label="{label}", shape={shape}];')
        return name

    def atom_node(atom):
        if atom not in atom_names:
            atom_names[atom] = node(atom, "ellipse")
        return atom_names[atom]

    def walk(expr, target, label=None):
        if isinstance(expr, (tf.Naf, tf.Neg)):
            walk(expr.child, target,
                 NAF_EDGE if isinstance(expr, tf.Naf) else NEG_EDGE)
            return
        if isinstance(expr, tf.Ref):
            src = atom_node(expr.literal.atom)
            if expr.literal.negated:
                label = NEG_EDGE
        elif isinstance(expr, tf.Const):
            src = node(expr.value, "plaintext")
        else:
            src = node(type(expr).__name__.upper(), "box")
        attr = f' [label="{label}"]' if label else ""
        edges.append(f"  {src} -> {target}{attr};")
        if isinstance(expr, tf.Kagg):
            walk(expr.left, src)
            walk(expr.right, src)
        elif isinstance(expr, (tf.And, tf.Or)):
            for child in expr.children:
                walk(child, src)

    for atom in sorted(entries, key=str):
        walk(entries[atom], atom_node(atom))
    del walk  # it reads itself, a cycle that would keep nodes until the GC
    return "\n".join(["digraph dependencies {", *nodes, *edges, "}"])
