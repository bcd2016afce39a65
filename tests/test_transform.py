import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from unasp import (Atom, Literal, parse_program, solve, transform,
                   transform_program)
from unasp.intervals import (BOTTOM, EPS_CMP, FALSE, INCONSISTENT, TRUE,
                             Interval, kagg, naf, negate, tconorm, tnorm)
from unasp.mi import mi_fixpoint
from unasp.program import ConstItem, LitItem, Program, Rule
from unasp.semantics import grid_intervals, is_supported_model
from unasp.transform import (And, Const, Kagg, Naf, Neg, Or, Ref, node_kinds,
                             nodes, referenced_atoms, rules_by_head, simplify,
                             substitute)

from conftest import (PROGRAMS, atom_body, child_fields, evaluate, join_rules,
                      random_programs, reduct, total_from_positive,
                      walk_by_type)

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _flat(expr):
    """Children of an And/Or as a set-ish list for order-free asserts."""
    return list(expr.children)


def r_join(name, p):
    """The join of the rules with head `name`, folded."""
    return simplify(join_rules(rules_by_head(p)[Atom(name)][0]))


class TestRJoin:
    def test_two_rule_join(self):
        p = parse_program("a <- [0.9,1] : b, d.\na <- [0.8,0.8] : c, e.")
        e = r_join("a", p)
        assert isinstance(e, Or)
        for disjunct in e.children:
            assert isinstance(disjunct, And)
            refs = [c for c in disjunct.children if isinstance(c, Ref)]
            consts = [c for c in disjunct.children if isinstance(c, Const)]
            assert len(refs) == 2 and len(consts) == 1

    def test_empty_join_is_false(self):
        p = parse_program("a <- [1,1] : b.")
        assert r_join("b", p) == Const(FALSE)

    def test_example2_join_of_a(self, ex2):
        e = r_join("a", ex2)
        assert isinstance(e, Or)
        consts = [c for c in e.children if isinstance(c, Const)]
        ands = [c for c in e.children if isinstance(c, And)]
        # r3's body and weight fold to the single constant [0.3,0.5]
        assert len(consts) == 1 and consts[0].value.same_as(Interval(0.3, 0.5))
        assert len(ands) == 1
        assert Ref(Literal(Atom("b"))) in ands[0].children
        assert Const(Interval(0.7, 1.0)) in ands[0].children


class TestRulesByHead:
    def test_every_atom_grouped_in_rule_order(self):
        p = parse_program("""
            r1: a <- [0.9,1] : b.
            r2: -c <- [1,1] : a.
            r3: a <- [0.5,1] : not d.
            r4: -a <- [1,1] : [0.2,0.3].
            r5: -c <- [0.4,0.6] : b.
        """)
        groups = rules_by_head(p)
        assert set(groups) == p.atom_base
        labels = {str(atom): tuple([r.label for r in side] for side in group)
                  for atom, group in groups.items()}
        assert labels == {"a": (["r1", "r3"], ["r4"]),
                          "b": ([], []), "c": ([], ["r2", "r5"]),
                          "d": ([], [])}


class TestTransformProgram:
    def test_single_fact_folds(self):
        p = parse_program("a <- [1,1] : [0.7,0.7].")
        tp = transform_program(p)
        assert tp[Atom("a")] == Const(Interval(0.7, 0.7))

    def test_mixed_polarity_gets_aggregation_root(self, ex6):
        tp = transform_program(ex6)
        assert isinstance(tp[Atom("p")], Kagg)
        assert isinstance(tp[Atom("j")], Kagg)
        # single-polarity atoms do not
        assert not isinstance(tp[Atom("b")], Kagg)

    def test_headless_atom_gets_ignorance_constraint(self, ex6):
        tp = transform_program(ex6)
        assert tp[Atom("t")] == Const(Interval(0.0, 1.0))

    def test_negative_only_atom(self):
        p = parse_program("-a <- [1,1] : b.")
        tp = transform_program(p)
        e = tp[Atom("a")]
        assert isinstance(e, Neg)
        assert e.child == Ref(Literal(Atom("b")))

    def test_bodies_are_written_unfolded_and_folded_once(self, ex2):
        """atom_body keeps r3's body and weight as two constants;
        transform_program folds them into one."""
        a = Atom("a")
        r3 = And((Const(Interval(0.3, 0.5)), Const(Interval(1.0, 1.0))))
        written = atom_body(*rules_by_head(ex2)[a])
        assert r3 in written.left.children
        folded = transform_program(ex2)[a]
        assert Const(Interval(0.3, 0.5)) in folded.left.children
        assert r3 not in folded.left.children

    def test_every_atom_has_exactly_one_entry(self, ex6):
        tp = transform_program(ex6)
        assert set(tp) == ex6.atom_base


def _random_expr(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            lo, hi = sorted(rng.sample(GRID, 2))
            return Const(Interval(lo, hi))
        return Ref(Literal(rng.choice(atoms), rng.random() < 0.3))
    kind = rng.randrange(5)
    if kind == 0:
        return Naf(_random_expr(rng, atoms, depth - 1))
    if kind == 1:
        return Neg(_random_expr(rng, atoms, depth - 1))
    if kind == 2:
        return Kagg(_random_expr(rng, atoms, depth - 1),
                    _random_expr(rng, atoms, depth - 1))
    n = rng.randrange(2, 4)
    children = tuple(_random_expr(rng, atoms, depth - 1) for _ in range(n))
    return And(children) if kind == 3 else Or(children)


def _random_interp(rng, atoms):
    values = {}
    for a in atoms:
        lo, hi = sorted((rng.random(), rng.random()))
        values[a] = Interval(lo, hi)
    return total_from_positive(values)


class TestSimplify:
    def test_unit_and_annihilator_rewrites(self):
        b = Ref(Literal(Atom("b")))
        assert simplify(And((b, Const(Interval(1, 1))))) == b
        assert simplify(Or((b, Const(FALSE)))) == b
        assert simplify(And((b, Const(FALSE)))) == Const(FALSE)
        assert simplify(Or((b, Const(Interval(1, 1))))) == Const(Interval(1, 1))

    def test_constant_folding(self):
        e = And((Const(Interval(0.7, 0.9)), Const(Interval(0.6, 0.8))))
        assert simplify(e).value.same_as(Interval(0.42, 0.72))
        e = Naf(Const(Interval(0.42, 0.56)))
        assert simplify(e).value.same_as(Interval(0.58, 0.58))

    def test_inconsistent_absorbs(self):
        e = And((Const(INCONSISTENT), Ref(Literal(Atom("b")))))
        assert simplify(e) == Const(INCONSISTENT)

    def test_preserves_valuation(self):
        rng = random.Random(7)
        atoms = [Atom("a"), Atom("b")]
        for _ in range(300):
            e = _random_expr(rng, atoms, 3)
            i = _random_interp(rng, atoms)
            before, after = evaluate(e, i), evaluate(simplify(e), i)
            if before is INCONSISTENT:
                assert after is INCONSISTENT
            else:
                assert before.same_as(after, eps=1e-9)


def reference_simplify(e, values: dict = None):
    """`simplify` as it was written before it read leaves in its
    conjunction/disjunction loop and tested one bound: one recursive call
    per child and `same_as` against the unit and the annihilator."""
    kind = type(e)
    if kind is Const:
        return e
    if kind is Ref:
        atom = e.literal.atom
        if not values or atom not in values:
            return e
        v = values[atom]
        return Const(negate(v) if e.literal.negated else v)
    if kind is Naf or kind is Neg:
        child = reference_simplify(e.child, values)
        if type(child) is Const:
            return Const(naf(child.value) if kind is Naf
                         else negate(child.value))
        return e if child is e.child else kind(child)
    if kind is Kagg:
        left = reference_simplify(e.left, values)
        right = reference_simplify(e.right, values)
        left_const, right_const = type(left) is Const, type(right) is Const
        if left_const and left.value is INCONSISTENT:
            return left
        if right_const and right.value is INCONSISTENT:
            return right
        if left_const and right_const:
            return Const(kagg(left.value, right.value))
        if left is e.left and right is e.right:
            return e
        return Kagg(left, right)
    if kind is And or kind is Or:
        is_and = kind is And
        combine = tnorm if is_and else tconorm
        unit = TRUE if is_and else FALSE
        annihilator = FALSE if is_and else TRUE
        folded = None
        rest = []
        for c in e.children:
            child = reference_simplify(c, values)
            if type(child) is Const:
                if child.value is INCONSISTENT:
                    return child
                if folded is None:
                    folded = child.value
                else:
                    folded = combine(folded, child.value)
            else:
                rest.append(child)
        if folded is not None and folded.same_as(annihilator):
            return Const(annihilator)
        if folded is not None and not folded.same_as(unit):
            rest.insert(0, Const(folded))
        if not rest:
            return Const(folded if folded is not None else unit)
        if len(rest) == 1:
            return rest[0]
        return And(tuple(rest)) if is_and else Or(tuple(rest))
    raise TypeError(f"not a body expression: {e!r}")


def _bits(e):
    """The node types of e, parents first, with every constant's bounds
    in hex: two trees with equal bits are equal float for float."""
    return [(type(n), n.value.lower.hex(), n.value.upper.hex())
            if type(n) is Const and n.value is not INCONSISTENT
            else (type(n),) for n in nodes(e)]


# constants at EPS_CMP from [0,0] and from [1,1], and one ulp beyond
_NEAR_ZERO = (EPS_CMP, math.nextafter(EPS_CMP, 1.0))
_NEAR_ONE = (1.0 - EPS_CMP, math.nextafter(1.0 - EPS_CMP, 0.0))
_BOUNDARY = ([Interval(0.0, x) for x in _NEAR_ZERO]
             + [Interval(x, x) for x in _NEAR_ZERO + _NEAR_ONE]
             + [Interval(x, 1.0) for x in _NEAR_ONE])
_ATOMS = [Atom(name) for name in "abc"]

_values = st.one_of(
    st.sampled_from(_BOUNDARY + [FALSE, TRUE, BOTTOM, INCONSISTENT]),
    st.sampled_from(GRID).flatmap(lambda lo: st.sampled_from(
        [Interval(lo, hi) for hi in GRID if hi >= lo])),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
        lambda pair: Interval(*sorted(pair))))
_leaves = st.one_of(
    _values.map(Const),
    st.builds(lambda a, neg: Ref(Literal(a, neg)),
              st.sampled_from(_ATOMS), st.booleans()))
_bodies = st.recursive(_leaves, lambda inner: st.one_of(
    inner.map(Naf), inner.map(Neg), st.builds(Kagg, inner, inner),
    st.lists(inner, max_size=4).map(lambda cs: And(tuple(cs))),
    st.lists(inner, max_size=4).map(lambda cs: Or(tuple(cs)))),
    max_leaves=12)


class TestSimplifyReference:
    """simplify gives the reference's tree, bit for bit."""

    def _same(self, e, values):
        got, want = simplify(e, values), reference_simplify(e, values)
        assert got == want and repr(got) == repr(want)
        assert _bits(got) == _bits(want)
        return got

    @settings(max_examples=1000, deadline=None)
    @given(e=_bodies, values=st.none() | st.dictionaries(
        st.sampled_from(_ATOMS), _values))
    def test_random_bodies_and_values(self, e, values):
        self._same(e, values)

    @pytest.mark.parametrize("value, folds_to", [
        (Interval(0.0, _NEAR_ZERO[0]), FALSE),
        (Interval(0.0, _NEAR_ZERO[1]), None),
        (Interval(_NEAR_ZERO[0], _NEAR_ZERO[0]), FALSE),
        (Interval(_NEAR_ZERO[1], _NEAR_ZERO[1]), None),
        (Interval(_NEAR_ONE[0], 1.0), TRUE),
        (Interval(_NEAR_ONE[1], 1.0), None),
        (Interval(_NEAR_ONE[0], _NEAR_ONE[0]), TRUE),
        (Interval(_NEAR_ONE[1], _NEAR_ONE[1]), None),
    ])
    def test_unit_and_annihilator_at_eps(self, value, folds_to):
        """A constant within EPS_CMP of [0,0] or [1,1], and one ulp
        beyond, as a written child, as a reference's value and as the
        mirror of one: [0,0] collapses a conjunction and drops out of a
        disjunction, [1,1] the other way round.  Mirroring twice rounds
        a bound near 0, so a mirrored value is checked for the fold only
        where it comes back bit for bit."""
        b = Ref(Literal(Atom("b")))
        folded = {And: b, Or: b}
        if folds_to is None:
            folded = {kind: kind((Const(value), b)) for kind in (And, Or)}
        else:
            folded[And if folds_to is FALSE else Or] = Const(folds_to)
        exact = 0
        for child, values in ((Const(value), None),
                              (Ref(Literal(Atom("a"))), {Atom("a"): value}),
                              (Ref(Literal(Atom("a"), True)),
                               {Atom("a"): negate(value)})):
            read = reference_simplify(child, values).value
            exact += read == value
            for kind in (And, Or):
                got = self._same(kind((child, b)), values)
                assert read != value or got == folded[kind]
                self._same(kind((child,)), values)
                self._same(kind((child, child, b)), values)
        assert exact >= 2

    def test_inconsistent_child_or_value_absorbs(self):
        b = Ref(Literal(Atom("b")))
        a, not_a = Ref(Literal(Atom("a"))), Ref(Literal(Atom("a"), True))
        for kind in (And, Or):
            for e in (kind((b, a)), kind((b, not_a)), kind((b, Naf(a))),
                      kind((Const(FALSE), Const(INCONSISTENT)))):
                got = self._same(e, {Atom("a"): INCONSISTENT})
                assert got == Const(INCONSISTENT)


# [0,0] and [1,1], [0,1], and constants within EPS_CMP of [0,0] and [1,1]
_EDGE_BOUNDS = ("[0,0]", "[1,1]", "[0,1]", "[0,0.000000001]",
                "[0.999999999,1]")


@st.composite
def folded_programs(draw):
    """1-6 rules over the heads a-c, a, b or c under `-` with
    probability 0.3: a fact `h.`, or a weight and 1-4 body items, each a
    constant or a literal of a-d, `not` with probability 0.3.  d heads
    no rule.  A bound is an edge value with probability 0.3, else two
    random decimals, so the products round."""
    def chance(percent):   # shrinks towards False
        return draw(st.integers(0, 99)) >= 100 - percent

    def interval():
        if chance(30):
            return draw(st.sampled_from(_EDGE_BOUNDS))
        lo, hi = sorted(draw(st.integers(0, 100)) / 100 for _ in range(2))
        return f"[{lo},{hi}]"

    def literal(atoms):
        return ("-" if chance(30) else "") + draw(st.sampled_from(atoms))

    def item():
        if chance(40):
            return interval()
        return ("not " if chance(30) else "") + literal("abcd")

    rules = []
    for _ in range(draw(st.integers(1, 6))):
        head = literal("abc")
        if chance(15):
            rules.append(f"{head}.")
            continue
        items = ", ".join(item() for _ in range(draw(st.integers(1, 4))))
        rules.append(f"{head} <- {interval()} : {items}.")
    return "\n".join(rules)


def _inconsistent_parts():
    """Hand-built programs with an INCONSISTENT constant item or weight,
    which the parser cannot give, alone and beside a literal."""
    a, b, c = (Literal(Atom(name)) for name in "abc")
    bad, half = ConstItem(INCONSISTENT), ConstItem(Interval(0.5, 0.5))
    return {
        "item": [Rule(a, TRUE, (bad,))],
        "item-beside-literal": [Rule(a, TRUE, (LitItem(b), bad)),
                                Rule(a, Interval(0.5, 1.0), (LitItem(c),))],
        "weight": [Rule(a, INCONSISTENT, (half,))],
        "weight-beside-literal": [
            Rule(a, INCONSISTENT, (LitItem(b, naf=True),)),
            Rule(Literal(Atom("a"), True), Interval(0.2, 0.4), (LitItem(c),))],
    }


INCONSISTENT_PARTS = {name: Program(rules)
                      for name, rules in _inconsistent_parts().items()}


def _built_as_folded(p):
    """transform_program(p) is simplify of each atom's unfolded tree,
    node for node and bit for bit, over the atoms of rules_by_head."""
    built = transform_program(p)
    groups = rules_by_head(p)
    assert list(built) == list(groups)
    for atom, group in groups.items():
        want = simplify(atom_body(*group))
        assert built[atom] == want and _bits(built[atom]) == _bits(want)
    return built


class TestBuiltFolded:
    """transform_program builds each body already folded; simplify of
    the reference tree `atom_body` (tests/conftest.py) is what it must
    give."""

    @settings(max_examples=500, deadline=None)
    @given(program=folded_programs())
    @example(program="a <- [0.8,0.8] : b, [0.3,0.7], not c, [0.9,0.9].\n"
                     "a <- [1,1] : [0.5,0.6].\na <- [0,0] : c.\nb.")
    @example(program="a <- [1,1] : [0.2,0.4].\n-a <- [1,1] : [0.2,0.4].")
    @example(program="-a <- [0.5,1] : b.\n-a <- [1,1] : [0,0].\n"
                     "b <- [1,1] : not d, [1,1].")
    @example(program=INCONSISTENT_PARTS["item"])
    @example(program=INCONSISTENT_PARTS["item-beside-literal"])
    @example(program=INCONSISTENT_PARTS["weight"])
    @example(program=INCONSISTENT_PARTS["weight-beside-literal"])
    def test_matches_simplify_of_atom_body(self, program):
        """program is a program text or, for the INCONSISTENT parts the
        parser cannot give, a built Program."""
        _built_as_folded(parse_program(program) if type(program) is str
                         else program)

    def test_pinned_shapes(self):
        """The examples above fold as written: several rules with their
        constants and weight folded, an equal-width tie of a and -a to
        INCONSISTENT, a -a-only head to the mirror of its join, and a
        headless atom to [0,1]."""
        built = _built_as_folded(parse_program(
            "a <- [1,1] : [0.2,0.4].\n-a <- [1,1] : [0.2,0.4].\n"
            "-b <- [0.5,1] : c.\n-b <- [1,1] : [0,0].\nd <- [1,1] : e."))
        a, b, c, e = (Atom(name) for name in "abce")
        assert built[a] == Const(INCONSISTENT)
        assert built[b] == Neg(And((Const(Interval(0.5, 1.0)),
                                    Ref(Literal(c)))))
        assert built[c] == built[e] == Const(BOTTOM)

    def test_rules_without_body_items(self):
        """A rule built with no body item, which the parser never gives
        (a fact `h.` reads [1,1] : [1,1]), is its weight alone, alone or
        beside other rules."""
        a, b = Literal(Atom("a")), Literal(Atom("b"))
        for weights in ([Interval(0.0, EPS_CMP)], [Interval(0.2, 0.4)],
                        [Interval(0.2, 0.4), Interval(0.3, 1.0)]):
            rules = [Rule(a, w) for w in weights]
            rules.append(Rule(Literal(Atom("b"), True), Interval(0.5, 1.0)))
            rules.append(Rule(b, Interval(0.1, 0.3), (LitItem(a),)))
            _built_as_folded(Program(rules))


@pytest.mark.parametrize("program", INCONSISTENT_PARTS.values(),
                         ids=INCONSISTENT_PARTS)
def test_inconsistent_part_has_no_answer_set(program):
    """An INCONSISTENT constant item or weight absorbs its atom's body:
    the solve halts with no answer set, and the verifier finds no
    supported model, as for an INCONSISTENT literal read."""
    assert transform_program(program)[Atom("a")] == Const(INCONSISTENT)
    assert solve(program).status == "no_answer_set"
    ignorance = total_from_positive({atom: BOTTOM
                                     for atom in program.atom_base})
    assert not is_supported_model(ignorance, program)


@pytest.mark.parametrize("name, text", [
    ("item", "a <- [1,1] : INCONSISTENT."),
    ("item-beside-literal",
     "a <- [1,1] : b, INCONSISTENT.\na <- [0.5,1] : c."),
    ("weight", "a <- INCONSISTENT : [0.5,0.5]."),
    ("weight-beside-literal",
     "a <- INCONSISTENT : not b.\n-a <- [0.2,0.4] : c.")])
def test_inconsistent_part_prints(name, text):
    """An INCONSISTENT constant item or weight prints as the constant of
    `--dump-transformed` does."""
    assert str(INCONSISTENT_PARTS[name]) == text
    assert str(Const(INCONSISTENT)) == "INCONSISTENT"


class TestSubstitute:
    def test_not_or_minus_of_a_reference_takes_no_call(self, monkeypatch):
        """A conjunction or disjunction reads a child `not x` or `-x`, x
        a reference, in its own loop, as it reads x: transforming and
        solving an acyclic chain whose rules read `not` of an earlier
        atom recurses into no such child, and a conjunction of them
        folds in one call."""
        n = 2000
        lines = ["a0 <- [1,1] : [0.9,1]."]
        lines += [f"a{i} <- [0.95,1] : a{i - 1}, not a{i // 2}, [0.8,1]."
                  for i in range(1, n)]
        calls = []
        monkeypatch.setattr(transform, "simplify",
                            lambda e, values=None: calls.append(e)
                            or simplify(e, values))
        state = mi_fixpoint(transform_program(
            parse_program("\n".join(lines))))
        assert len(state.interp) == n and not state.residual
        assert not [e for e in calls if type(e) in (Naf, Neg, Ref)]
        calls.clear()
        a, b = Atom("a"), Atom("b")
        e = And((Naf(Ref(Literal(a))), Neg(Ref(Literal(b, True))),
                 Naf(Ref(Literal(b)))))
        values = {a: Interval(0.25, 0.5)}
        assert simplify(e, values) == reference_simplify(e, values)
        assert calls == []

    def test_replaces_positive_and_mirrored_negative_refs(self):
        e = And((Ref(Literal(Atom("a"))),
                 Ref(Literal(Atom("b"), negated=True))))
        got = substitute(e, {Atom("a"): Interval(0.5, 0.6),
                             Atom("b"): Interval(0.2, 0.3)})
        assert isinstance(got, Const)
        assert got.value.same_as(Interval(0.5 * 0.7, 0.6 * 0.8))

    def test_partial_substitution_matches_full_valuation(self):
        rng = random.Random(11)
        atoms = [Atom("a"), Atom("b"), Atom("c")]
        for _ in range(200):
            e = _random_expr(rng, atoms, 3)
            i = _random_interp(rng, atoms)
            partial = {a: i[Literal(a)] for a in atoms[:2]}
            residual = substitute(e, partial)
            before, after = evaluate(e, i), evaluate(residual, i)
            if before is INCONSISTENT:
                assert after is INCONSISTENT
            else:
                assert before.same_as(after, eps=1e-9)

    def test_referenced_atoms(self):
        e = And((Ref(Literal(Atom("a"))), Naf(Ref(Literal(Atom("b"))))))
        assert referenced_atoms(e) == {Atom("a"), Atom("b")}


def _assert_walks_agree(e):
    """nodes lists every node of e once, each parent before its
    children, and referenced_atoms and node_kinds find what the
    type-dispatching reference walker `walk_by_type` finds."""
    found, want = nodes(e), walk_by_type(e)
    place = {id(n): k for k, n in enumerate(found)}
    assert len(place) == len(found) == len(want)
    assert place.keys() == {id(n) for n in want}
    assert all(place[id(c)] > place[id(n)]
               for n in want for c in child_fields(n))
    assert referenced_atoms(e) == {n.literal.atom for n in want
                                   if type(n) is Ref}
    assert node_kinds([e]) == {type(n) for n in want}


class TestWalk:
    """Every walker reads a node's `children`; the reference walker in
    tests/conftest.py reads the fields of each node type."""

    @pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.unasp")),
                             ids=lambda path: path.stem)
    def test_example_program_bodies(self, path):
        bodies = transform_program(parse_program(path.read_text()))
        half = {a: Interval(0.5, 0.5) for a in list(bodies)[::2]}
        for e in bodies.values():
            _assert_walks_agree(e)
            _assert_walks_agree(substitute(e, half))

    @settings(max_examples=200, deadline=None)
    @given(text=random_programs(), data=st.data())
    def test_random_program_bodies(self, text, data):
        bodies = transform_program(parse_program(text))
        chosen = data.draw(st.lists(st.sampled_from(sorted(bodies, key=str)),
                                    unique=True))
        values = {a: data.draw(_values) for a in chosen}
        for e in bodies.values():
            _assert_walks_agree(e)
            _assert_walks_agree(substitute(e, values))


def _random_program(rng, atoms):
    rules = []
    for _ in range(rng.randrange(1, 4)):
        head = Literal(rng.choice(atoms), rng.random() < 0.3)
        lo, hi = sorted(rng.sample(GRID, 2)) if rng.random() < 0.5 \
            else (1.0, 1.0)
        body = []
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.3:
                clo, chi = sorted(rng.sample(GRID, 2))
                body.append(ConstItem(Interval(clo, chi)))
            else:
                body.append(LitItem(Literal(rng.choice(atoms),
                                            rng.random() < 0.3),
                                    naf=rng.random() < 0.4))
        rules.append(Rule(head, Interval(lo, hi), tuple(body)))
    return Program(rules)


class TestSupportedModelEquivalence:
    """A valuation supports the original program exactly when every atom
    equals its combined body expression in the transformed program."""

    def _transformed_supported(self, i, tp, eps=1e-9):
        for atom, expr in tp.items():
            v = evaluate(expr, i)
            if v is INCONSISTENT or not i[Literal(atom)].same_as(v, eps):
                return False
        return True

    def _check(self, p, points):
        tp = transform_program(p)
        atoms = sorted(p.atom_base, key=str)
        agree = 0
        for combo in itertools.product(grid_intervals(points),
                                       repeat=len(atoms)):
            i = total_from_positive(dict(zip(atoms, combo)))
            assert is_supported_model(i, p) == \
                self._transformed_supported(i, tp)
            agree += 1
        assert agree

    def test_random_two_atom_programs(self):
        rng = random.Random(23)
        atoms = [Atom("a"), Atom("b")]
        for _ in range(20):
            self._check(_random_program(rng, atoms), GRID)

    def test_random_three_atom_programs(self):
        rng = random.Random(29)
        atoms = [Atom("a"), Atom("b"), Atom("c")]
        for _ in range(4):
            self._check(_random_program(rng, atoms), (0.0, 0.5, 1.0))


def _required(p, atom, i):
    """The value the rules of p force on atom, read straight from
    p.rules: the t-conorm over the rules for atom of body ∧ weight (the
    left fold of the items, then the weight), aggregated against the
    mirror of the same for -atom."""
    def item(b):
        if isinstance(b, ConstItem):
            return b.value
        return naf(i[b.literal]) if b.naf else i[b.literal]

    def join(lit):
        values = [functools.reduce(tnorm, [item(b) for b in r.body]
                                   + [r.weight])
                  for r in p.rules if r.head == lit]
        return functools.reduce(tconorm, values) if values else None

    pos, neg = join(Literal(atom)), join(Literal(atom, True))
    if pos is not None and neg is not None:
        return kagg(pos, negate(neg))
    if pos is not None:
        return pos
    if neg is not None:
        return negate(neg)
    return BOTTOM


class TestReductKeepsTheVerdict:
    """Naf reads i in p and in P^i alike, so i is a supported model of p
    exactly when it is one of P^i; and P^i keeps the atom base of p,
    since the closed world holds an atom that heads no rule in place."""

    def test_random_programs_on_grid_cells(self):
        rng = random.Random(37)
        verdicts = set()
        naf_only = 0
        for n in (1, 2, 3) * 12:
            p = _random_program(rng, [Atom(name) for name in "abc"[:n]])
            points = GRID if n < 3 else (0.0, 0.5, 1.0)
            atoms = sorted(p.atom_base, key=str)
            kept = {r.head.atom for r in p.rules} | {
                b.literal.atom for r in p.rules for b in r.body
                if isinstance(b, LitItem) and not b.naf}
            naf_only += bool(p.atom_base - kept)
            for combo in itertools.product(grid_intervals(points),
                                           repeat=len(atoms)):
                i = total_from_positive(dict(zip(atoms, combo)))
                red = reduct(p, i)
                assert red.atom_base == p.atom_base
                for eps in (1e-9, 0.027):
                    verdict = is_supported_model(i, p, eps)
                    assert verdict == is_supported_model(i, red, eps)
                    verdicts.add(verdict)
        assert verdicts == {True, False}
        # some program reads an atom only through naf and heads no rule
        assert naf_only


class TestSupportedModelReference:
    """is_supported_model against required values computed rule by rule,
    without the transform's expressions.  Grid weights and constants
    keep every product exact, so any tie is a real one."""

    def _reference_supported(self, i, p):
        for atom in p.atom_base:
            req = _required(p, atom, i)
            if req is INCONSISTENT or not i[Literal(atom)].same_as(req):
                return False
        return True

    def test_random_programs_on_grid_cells(self):
        rng = random.Random(31)
        verdicts = set()
        for n in (1, 2, 3) * 12:
            p = _random_program(rng, [Atom(name) for name in "abc"[:n]])
            points = GRID if n < 3 else (0.0, 0.5, 1.0)
            atoms = sorted(p.atom_base, key=str)
            for combo in itertools.product(grid_intervals(points),
                                           repeat=len(atoms)):
                i = total_from_positive(dict(zip(atoms, combo)))
                for q in (p, reduct(p, i)):
                    verdict = is_supported_model(i, q)
                    assert verdict == self._reference_supported(i, q)
                    verdicts.add(verdict)
        assert verdicts == {True, False}
