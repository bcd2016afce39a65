import random

import pytest

from unasp import Atom, Literal, parse_program, solve, transform_program
from unasp import depgraph
from unasp.depgraph import (NAF_EDGE, NEG_EDGE, NoValidAssumptionSet,
                            atom_digraph, enumerate_cycles,
                            intersection_table, owned_cycles, scc_condense,
                            select_assumption_set, to_dot)
from unasp.intervals import Interval
from unasp.mi import mi_fixpoint
from unasp.nmi import cycle_gain
from unasp.transform import And, Const, Naf, Neg, Or, Ref

from conftest import unmemoized_assumption_set


def ref(name, negated=False):
    return Ref(Literal(Atom(name), negated))


def names(atoms):
    return tuple(str(a) for a in atoms)


@pytest.fixture(scope="module")
def ex6_residual(ex6):
    return mi_fixpoint(transform_program(ex6)).residual


@pytest.fixture(scope="module")
def ex7_entries(ex7):
    return transform_program(ex7)


class TestOperatorGraph:
    def test_example6_residual_node_multiset(self, ex6_residual):
        dot = to_dot(ex6_residual)
        assert dot.count("shape=ellipse") == 18
        assert dot.count('label="AND"') == 9
        assert dot.count('label="OR"') == 2
        assert dot.count('label="KAGG"') == 1
        assert dot.count("shape=plaintext") == 7

    def test_example6_residual_edge_weights(self, ex6_residual):
        edges = [line for line in to_dot(ex6_residual).splitlines()
                 if "->" in line]
        assert sum(f'[label="{NAF_EDGE}"]' in e for e in edges) == 5
        assert sum(f'[label="{NEG_EDGE}"]' in e for e in edges) == 4

    def test_dot_output(self, ex3):
        dot = to_dot(transform_program(ex3))
        assert dot.startswith("digraph")
        assert 'label="-1"' in dot  # the naf edge
        assert 'label="p"' in dot


class TestCondensation:
    def test_example6_components(self, ex6_residual):
        components, topo = scc_condense(ex6_residual)
        parts = {frozenset(names(c)) for c in components}
        assert parts == {frozenset("hijk"), frozenset("uvxw"),
                         frozenset("c"), frozenset("abdefg"),
                         frozenset("yz"), frozenset("l")}
        pos = {frozenset(names(components[k])): t
               for t, k in enumerate(topo)}
        assert pos[frozenset("hijk")] < pos[frozenset("c")]
        assert pos[frozenset("c")] < pos[frozenset("abdefg")]
        assert pos[frozenset("uvxw")] < pos[frozenset("abdefg")]
        assert pos[frozenset("yz")] < pos[frozenset("l")]

    def test_acyclic_program_gives_singletons(self, ex2):
        entries = transform_program(ex2)
        components, topo = scc_condense(entries)
        assert all(len(c) == 1 for c in components)
        assert len(topo) == len(components)

    def test_two_disjoint_two_cycles(self):
        entries = {Atom("a"): ref("b"), Atom("b"): ref("a"),
                   Atom("c"): ref("d"), Atom("d"): ref("c")}
        components, _ = scc_condense(entries)
        assert sorted(names(c) for c in components) == [("a", "b"),
                                                        ("c", "d")]

    def test_topo_order_has_no_back_edges(self, ex6_residual):
        components, topo = scc_condense(ex6_residual)
        rank = {a: topo.index(k)
                for k, comp in enumerate(components) for a in comp}
        g = atom_digraph(ex6_residual)
        assert all(rank[u] <= rank[v] for u, succ in g.items() for v in succ)

    def test_against_reachability_on_random_graphs(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randrange(1, 10)
            atoms = [Atom(f"v{k}") for k in range(n)]
            adj = {a: {b for b in atoms if rng.random() < 0.25}
                   for a in atoms}
            entries = {}
            for a in atoms:
                preds = [Ref(Literal(u)) for u in atoms if a in adj[u]]
                entries[a] = (Const(Interval(0.5, 0.5)) if not preds
                              else And(tuple(preds)))
            reach = {}
            for a in atoms:
                seen, todo = {a}, [a]
                while todo:
                    for b in adj[todo.pop()] - seen:
                        seen.add(b)
                        todo.append(b)
                reach[a] = seen
            components, topo = scc_condense(entries)
            assert {frozenset(c) for c in components} == {
                frozenset(b for b in atoms if b in reach[a] and a in reach[b])
                for a in atoms}
            assert all(list(c) == sorted(c, key=str) for c in components)
            # greedy order: the smallest index whose upstream is all placed
            index = {a: k for k, comp in enumerate(components) for a in comp}
            upstream = {k: {index[u] for u in atoms for v in comp
                            if v in adj[u] and index[u] != k}
                        for k, comp in enumerate(components)}
            order = []
            while len(order) < len(components):
                order.append(min(k for k in upstream if k not in order
                                 and upstream[k] <= set(order)))
            assert topo == order

    def test_long_ring_needs_no_recursion(self):
        atoms = [Atom(f"r{k}") for k in range(5000)]
        entries = {a: ref(str(atoms[k - 1])) for k, a in enumerate(atoms)}
        components, topo = scc_condense(entries)
        assert len(components) == 1 and len(components[0]) == 5000
        assert topo == [0]
        (cycle,) = enumerate_cycles(entries, components[0])
        assert len(cycle) == 5000


def _brute_force_cycles(adj, nodes):
    """Textbook elementary-cycle enumeration: rooted DFS restricted to
    nodes not smaller than the root."""
    order = sorted(nodes, key=str)
    index = {v: k for k, v in enumerate(order)}
    found = set()

    def walk(root, node, path, on_path):
        for nxt in sorted(adj.get(node, ()), key=str):
            if index[nxt] < index[root]:
                continue
            if nxt == root:
                k = min(range(len(path)), key=lambda i: str(path[i]))
                found.add(tuple(path[k:] + path[:k]))
            elif nxt not in on_path:
                walk(root, nxt, path + [nxt], on_path | {nxt})

    for root in order:
        walk(root, root, [root], {root})
    return found


class TestCycleEnumeration:
    def test_example7_cycles(self, ex7_entries):
        comp = tuple(sorted(ex7_entries, key=str))
        cycles = enumerate_cycles(ex7_entries, comp)
        assert {names(c) for c in cycles} == {
            ("a", "b", "c"),
            ("a", "d", "e", "f", "g", "b", "c"),
            ("d", "e", "f", "g"),
        }

    def test_two_cycle_and_self_loop(self):
        entries = {Atom("y"): Naf(ref("z")), Atom("z"): Naf(ref("y"))}
        cycles = enumerate_cycles(entries, tuple(entries))
        assert [names(c) for c in cycles] == [("y", "z")]
        entries = {Atom("p"): Naf(ref("p"))}
        assert [names(c) for c in enumerate_cycles(entries, (Atom("p"),))] \
            == [("p",)]

    def test_hijk_has_one_cycle(self, ex6_residual):
        comp = tuple(Atom(n) for n in "hijk")
        cycles = enumerate_cycles(ex6_residual, comp)
        assert len(cycles) == 1
        assert set(names(cycles[0])) == set("hijk")

    def test_against_brute_force_on_random_graphs(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randrange(3, 9)
            atoms = [Atom(f"v{k}") for k in range(n)]
            adj = {a: {b for b in atoms if rng.random() < 0.3}
                   for a in atoms}
            entries = {}
            for a in atoms:
                preds = sorted((u for u in atoms if a in adj[u]), key=str)
                if not preds:
                    entries[a] = Const(Interval(0.5, 0.5))
                elif len(preds) == 1:
                    entries[a] = Ref(Literal(preds[0]))
                else:
                    entries[a] = And(tuple(Ref(Literal(u)) for u in preds))
            got = {c for c in enumerate_cycles(entries, tuple(atoms))}
            want = _brute_force_cycles(adj, atoms)
            assert got == want


@pytest.fixture(scope="module")
def ex7_cycles(ex7_entries):
    return enumerate_cycles(ex7_entries, tuple(sorted(ex7_entries, key=str)))


class TestAssumptionSets:
    def test_intersection_table(self, ex7_entries, ex7_cycles):
        comp = tuple(sorted(ex7_entries, key=str))
        table = intersection_table(ex7_cycles, comp)
        assert len(table) == 3
        # every cycle row ticks exactly its member atoms
        for cyc, row in table.items():
            assert {a for a, tick in row.items() if tick} == set(cyc)

    def test_example7_published_choice_is_valid(self, ex7_entries,
                                                ex7_cycles):
        from unasp.depgraph import _criterion2
        chosen = [Atom("a"), Atom("g")]
        assert all(any(a in cyc for a in chosen) for cyc in ex7_cycles)
        assert _criterion2(chosen, ex7_cycles)

    def test_example7_greedy_selection_is_valid(self, ex7_entries,
                                                ex7_cycles):
        from unasp.depgraph import _criterion2
        comp = tuple(sorted(ex7_entries, key=str))
        chosen = select_assumption_set(ex7_entries, comp, ex7_cycles)
        assert len(chosen) == 2
        assert all(any(a in cyc for a in chosen) for cyc in ex7_cycles)
        assert _criterion2(chosen, ex7_cycles)

    def test_disjunction_fed_atom_preferred(self):
        # one cycle a -> c -> b -> a where b is fed through a disjunction
        entries = {
            Atom("c"): And((Const(Interval(0.5, 0.6)), ref("a"))),
            Atom("b"): Or((Const(Interval(0.2, 0.3)), ref("c"))),
            Atom("a"): And((Const(Interval(0.4, 0.5)), ref("b"))),
        }
        comp = tuple(sorted(entries, key=str))
        cycles = enumerate_cycles(entries, comp)
        assert select_assumption_set(entries, comp, cycles) == [Atom("b")]

    def test_branch_bound_mode_requires_naf(self):
        entries = {Atom("y"): Naf(ref("z")), Atom("z"): Naf(ref("y"))}
        comp = tuple(sorted(entries, key=str))
        cycles = enumerate_cycles(entries, comp)
        assert select_assumption_set(entries, comp, cycles,
                                     mode="branch_bound") == [Atom("y")]
        positive = {Atom("a"): ref("b"), Atom("b"): ref("a")}
        with pytest.raises(NoValidAssumptionSet):
            select_assumption_set(positive, tuple(sorted(positive, key=str)),
                                  enumerate_cycles(positive, tuple(positive)),
                                  mode="branch_bound")


def self_loop_ring(n):
    """Each atom loops on itself and feeds the previous one: n
    self-loops and one ring, so every atom must be chosen."""
    return "\n".join(f"a{i} <- [0.5,0.6] : a{i}, a{(i + 1) % n}."
                     for i in range(n))


def _random_entries(rng):
    names = "abcdefg"[:rng.randint(3, 7)]
    entries = {}
    for a in names:
        parts = [Naf(ref(b)) if rng.random() < 0.4 else ref(b)
                 for b in rng.sample(names, rng.randint(1, 3))]
        if rng.random() < 0.5:
            parts.append(Const(Interval(0.2, 0.7)))
        op = And if rng.random() < 0.6 else Or
        entries[Atom(a)] = parts[0] if len(parts) == 1 else op(tuple(parts))
    return entries


class TestSearchMemo:
    def test_each_chosen_set_is_searched_once(self, monkeypatch):
        entries = transform_program(parse_program(self_loop_ring(8)))
        comp = tuple(sorted(entries, key=str))
        cycles = enumerate_cycles(entries, comp)
        calls = 0
        rank = depgraph._disjunctive_head

        def counted(expr):
            nonlocal calls
            calls += 1
            return rank(expr)

        monkeypatch.setattr(depgraph, "_disjunctive_head", counted)
        assert select_assumption_set(entries, comp, cycles) == list(comp)
        # one call per candidate at each of the 2**8 chosen sets, at most
        assert calls <= 2048

    def test_ten_atom_ring_solves(self):
        report = solve(parse_program(self_loop_ring(10)))
        assert report.status == "ok"
        (record,) = report.diagnostics["components"]
        assert record["assumption_set"] == [f"a{i}" for i in range(10)]

    @pytest.mark.parametrize("mode", ["nmi", "branch_bound"])
    def test_matches_unmemoized_search(self, mode):
        rng = random.Random(31)
        compared = 0
        while compared < 150:
            entries = _random_entries(rng)
            components, _ = scc_condense(entries)
            for comp in components:
                cycles = enumerate_cycles(entries, comp)
                if not cycles:
                    continue
                want = unmemoized_assumption_set(entries, comp, cycles, mode)
                try:
                    got = select_assumption_set(entries, comp, cycles, mode)
                except NoValidAssumptionSet:
                    got = None
                assert got == want
                compared += 1


class TestValuePropagation:
    def test_walk_orders_steps_inside_out(self):
        # naf then classical negation, or the other way round, on the way
        # out of the same reference
        inner = And((Const(Interval(0.5, 0.8)), ref("a")))
        const = Const(Interval(0.3, 0.4))
        for body, g1, g2 in ((And((const, Neg(Naf(inner)))), 0.15, 0.2),
                             (And((const, Naf(Neg(inner)))), 0.24, 0.32)):
            gain = cycle_gain({Atom("a"): body}, (Atom("a"),))
            assert (gain.g1, gain.g2) == (pytest.approx(g1, abs=1e-12),
                                          pytest.approx(g2, abs=1e-12))

    def test_self_loop(self):
        gain = cycle_gain({Atom("p"): Naf(ref("p"))}, (Atom("p"),))
        assert (gain.g1, gain.g2) == (1.0, 1.0)

    def test_hijk_path(self, ex6_residual):
        comp = tuple(Atom(n) for n in "hijk")
        cycles = enumerate_cycles(ex6_residual, comp)
        owned = owned_cycles([Atom("h")], cycles)
        assert [names(c) for c in owned[Atom("h")]] == [("h", "i", "j", "k")]

    def test_example7_published_set_gives_two_paths(self, ex7_cycles):
        owned = owned_cycles([Atom("a"), Atom("g")], ex7_cycles)
        # a owns the short cycle, g owns gdefg; the long cycle passes
        # through both chosen atoms and is owned by neither
        assert [names(c) for c in owned[Atom("a")]] == [("a", "b", "c")]
        assert [names(c) for c in owned[Atom("g")]] == [("g", "d", "e", "f")]
