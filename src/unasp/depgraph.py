"""Dependency-graph analysis of a transformed program.

Two views are kept: the full operator-labelled graph (atom, operator,
and constant nodes; used for DOT output and structural reporting) and
an atom-level projection used for SCC condensation, topological
ordering, and simple-cycle enumeration.  The graph algorithms are the
textbook ones: Tarjan's (1972) strongly connected components, Kahn's
topological sort taking the smallest ready component first, and
Johnson's (1975) elementary circuits.  On top of those sit the
assumption-set selection (which atoms to guess per SCC) and the
unfurling of cycles into acyclic value-propagation paths.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .intervals import tconorm, tnorm
from . import transform as tf

NAF_EDGE = "-1"
NEG_EDGE = "~"
# default bound on the simple cycles of one component
CYCLE_CAP = 10_000


class AnalysisOverflow(RuntimeError):
    pass


class NoValidAssumptionSet(RuntimeError):
    pass


class CyclicVpg(RuntimeError):
    pass


@dataclass
class DepGraph:
    nodes: list = field(default_factory=list)   # ("atom", a) | ("op", kind, id) | ("const", iv, id)
    edges: list = field(default_factory=list)   # (src, dst)
    edge_weight: dict = field(default_factory=dict)  # (src, dst) -> NAF_EDGE | NEG_EDGE

    def atom_nodes(self):
        return [n for n in self.nodes if n[0] == "atom"]

    def op_nodes(self, kind=None):
        return [n for n in self.nodes if n[0] == "op"
                and (kind is None or n[1] == kind)]

    def const_nodes(self):
        return [n for n in self.nodes if n[0] == "const"]


def build_dep_graph(p: tf.TransformedProgram) -> DepGraph:
    g = DepGraph()
    seen_atoms = set()

    def atom_node(a):
        node = ("atom", a)
        if a not in seen_atoms:
            seen_atoms.add(a)
            g.nodes.append(node)
        return node

    counter = itertools.count()

    def add_edge(src, dst, weight):
        g.edges.append((src, dst))
        if weight:
            g.edge_weight[(src, dst)] = weight

    def walk(expr, target, weight):
        if isinstance(expr, tf.Const):
            node = ("const", expr.value, next(counter))
            g.nodes.append(node)
            add_edge(node, target, weight)
        elif isinstance(expr, tf.Ref):
            src = atom_node(expr.literal.atom)
            if expr.literal.negated:
                weight = NEG_EDGE
            add_edge(src, target, weight)
        elif isinstance(expr, tf.Naf):
            walk(expr.child, target, NAF_EDGE)
        elif isinstance(expr, tf.Neg):
            walk(expr.child, target, NEG_EDGE)
        else:
            kind = {"And": "and", "Or": "or", "Kagg": "kagg"}[type(expr).__name__]
            node = ("op", kind, next(counter))
            g.nodes.append(node)
            add_edge(node, target, weight)
            children = ((expr.left, expr.right) if isinstance(expr, tf.Kagg)
                        else expr.children)
            for c in children:
                walk(c, node, None)

    for atom in sorted(p.entries, key=str):
        target = atom_node(atom)
        walk(p.entries[atom], target, None)
    return g


class AtomGraph(dict):
    """Adjacency dict: atom -> list of the atoms whose bodies mention it."""

    @property
    def edges(self):
        return [(u, v) for u, succ in self.items() for v in succ]


def atom_digraph(entries: dict) -> AtomGraph:
    """Atom-level projection: edge u->v when v's body mentions u."""
    g = AtomGraph((a, []) for a in entries)
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
    """Maximal SCCs of the atom projection plus a topological order of
    the condensation.  Components are sorted-atom tuples; topo_order
    lists component indices, upstream first."""
    g = atom_digraph(entries)
    components = [tuple(sorted(c, key=str)) for c in _tarjan(g, g)]
    components.sort(key=lambda c: str(c[0]))
    index = {a: k for k, comp in enumerate(components) for a in comp}
    topo = _topological(len(components),
                        ((index[u], index[v]) for u, v in g.edges
                         if index[u] != index[v]))
    return components, topo


def enumerate_cycles(entries: dict, component, cap: int = CYCLE_CAP):
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
        if len(cycles) > cap:
            raise AnalysisOverflow(f"more than {cap} simple cycles")
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


def _covers(chosen, cycles):
    return all(any(a in cyc for a in chosen) for cyc in cycles)


def _criterion2(chosen, cycles):
    # each chosen atom owns a cycle through it that avoids the others
    for a in chosen:
        if not any(a in cyc and not any(b in cyc for b in chosen if b != a)
                   for cyc in cycles):
            return False
    return True


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

    def search(chosen, uncovered):
        nonlocal best
        if best is not None and len(chosen) >= len(best):
            return
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
    if best is None:
        raise NoValidAssumptionSet(
            f"no assumption set covers all cycles of {atoms}")
    return sorted(best, key=str)


class NonConstantOperand(ValueError):
    pass


def occurrence_paths(expr, atom):
    """Step lists from an atom reference out to the rule head.

    Each step is ("naf",), ("neg",), or (op, folded-const-or-None,
    number-of-non-constant-siblings) for op in {and, or, kagg}.
    """
    if isinstance(expr, tf.Const):
        return []
    if isinstance(expr, tf.Ref):
        if expr.literal.atom != atom:
            return []
        return [[("neg",)]] if expr.literal.negated else [[]]
    if isinstance(expr, tf.Naf):
        return [p + [("naf",)] for p in occurrence_paths(expr.child, atom)]
    if isinstance(expr, tf.Neg):
        return [p + [("neg",)] for p in occurrence_paths(expr.child, atom)]
    if isinstance(expr, tf.Kagg):
        out = []
        for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            const = other.value if isinstance(other, tf.Const) else None
            extra = 0 if const is not None else 1
            for p in occurrence_paths(side, atom):
                out.append(p + [("kagg", const, extra)])
        return out
    op = "and" if isinstance(expr, tf.And) else "or"
    combine = tnorm if op == "and" else tconorm
    out = []
    for k, child in enumerate(expr.children):
        inner = occurrence_paths(child, atom)
        if not inner:
            continue
        const = None
        extra = 0
        for j, sibling in enumerate(expr.children):
            if j == k:
                continue
            if isinstance(sibling, tf.Const):
                const = sibling.value if const is None \
                    else combine(const, sibling.value)
            else:
                extra += 1
        for p in inner:
            out.append(p + [(op, const, extra)])
    return out


def build_vpg(entries: dict, component, assumption_set, cycles):
    """Unfurl every cycle through each chosen atom (avoiding the other
    chosen atoms) into an acyclic path of steps."""
    uncovered = [c for c in cycles if not any(a in c for a in assumption_set)]
    if uncovered:
        raise CyclicVpg(f"cycles not covered by {assumption_set}: {uncovered}")
    vpg = {}
    for a in assumption_set:
        paths = []
        for cyc in cycles:
            if a not in cyc:
                continue
            if any(b in cyc for b in assumption_set if b != a):
                continue
            k = cyc.index(a)
            order = list(cyc[k:] + cyc[:k])  # starts at the chosen atom
            hops = []
            for u, v in zip(order, order[1:] + order[:1]):
                occ = occurrence_paths(entries[v], u)
                if not occ:
                    break
                hops.append(occ[0])
            else:
                paths.append({"atoms": order + [a], "segments": hops})
        vpg[a] = paths
    return vpg


def to_dot(g: DepGraph) -> str:
    """Graphviz text for the full operator-labelled graph."""
    names = {}
    lines = ["digraph dependencies {"]
    for k, node in enumerate(g.nodes):
        names[node] = f"n{k}"
        if node[0] == "atom":
            label, shape = str(node[1]), "ellipse"
        elif node[0] == "op":
            label = {"and": "AND", "or": "OR", "kagg": "KAGG"}[node[1]]
            shape = "box"
        else:
            label, shape = str(node[1]), "plaintext"
        lines.append(f'  {names[node]} [label="{label}", shape={shape}];')
    for edge in g.edges:
        w = g.edge_weight.get(edge)
        attr = f' [label="{w}"]' if w else ""
        lines.append(f"  {names[edge[0]]} -> {names[edge[1]]}{attr};")
    lines.append("}")
    return "\n".join(lines)
