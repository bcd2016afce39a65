import itertools
import pathlib

import pytest
from hypothesis import strategies as st

from unasp import Atom, Literal, parse_program
from unasp import transform as tf
from unasp.intervals import (BOTTOM, EPS_CMP, FALSE, INCONSISTENT, TRUE,
                             Interval, kagg, naf, negate, tconorm, tnorm)
from unasp.program import ConstItem, LitItem, Program, Rule
from unasp.semantics import (GRID_POINTS, forced_bounds, grid_intervals,
                             lookup)
from unasp.transform import (And, Const, Kagg, Naf, Neg, Or, Ref, node_kinds,
                             rules_by_head)

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"

# the branch-and-bound candidates (atoms fed through naf) cannot cover
# both cycles x-y and x-z-y
UNCOVERABLE = """
x <- [1,1] : y.
y <- [1,1] : x.
y <- [1,1] : z.
z <- [1,1] : not x.
"""

# the branch values fold these components' cycles away: an upstream
# atom is [0,0], and the product t-norm's annihilator turns what is left
# of the cycle into constants (b folds a-c, a folds b-c)
FOLDED_CYCLES = {
    "a-c": """
c <- [0.34,0.79] : b, [0.09,0.36], a.
a <- [0.33,0.64] : [0.13,0.36].
b <- [0.21,0.42] : [0.38,0.77], b, not -b.
a <- [0.14,0.37] : [0.36,0.84], [0.66,0.94], [0.22,0.4].
a <- [0.66,0.7] : not -c, b, c.
""",
    "b-c": """
d <- [0.59,0.73] : [0.57,0.61], [0.05,0.78].
a <- [0.07,0.52] : a, a.
b <- [0.63,0.78] : not c, c, a.
c <- [0.44,0.48] : b.
d <- [0.4,0.88] : a.
""",
}


# one rule, ten variables over a hundred constants: 100**10 ground
# instances, far past the ground-rule cap
TEN_VARIABLES = ("p(A,B,C,D,E,F,G,H,I,J) <- [1,1] : q(A,B,C,D,E,F,G,H,I,J), "
                 "k(%s).\n" % ",".join(f"c{n}" for n in range(100)))


# two edges join the same pair of nodes: a and not a both feed b's AND,
# b and -b both feed c's AND
PARALLEL_EDGES = """
a <- [0.3,0.6] : [1,1].
b <- [0.5,1] : a, not a.
c <- [1,1] : b, -b.
"""


def program_path(name):
    return PROGRAMS / f"{name}.unasp"


def load(name):
    return parse_program(program_path(name).read_text())


@pytest.fixture(scope="session")
def ex1():
    return load("ex1")


@pytest.fixture(scope="session")
def ex2():
    return load("ex2")


@pytest.fixture(scope="session")
def ex3():
    return load("ex3")


@pytest.fixture(scope="session")
def ex4():
    return load("ex4")


@pytest.fixture(scope="session")
def ex5():
    return load("ex5")


@pytest.fixture(scope="session")
def ex6():
    return load("ex6")


@pytest.fixture(scope="session")
def ex7():
    return load("ex7")


@pytest.fixture(scope="session")
def ex8():
    return load("ex8")


@pytest.fixture(scope="session")
def tweety():
    return load("tweety")


def A(name):
    return Atom(name)


def atom_values(interp):
    """Positive-literal slice of an interpretation as {name: (lo, hi)}."""
    return {str(lit.atom): (v.lower, v.upper)
            for lit, v in interp.items() if not lit.negated}


# Reference implementations: body trees built unfolded and valued
# recursively, which the package builds folded (`transform_program`) and
# reads straight from the rules (`semantics.forced_bounds`), a total
# interpretation built per branch, which the package builds for all
# branches at once, and the reduct P^i built as a program, which the
# package reads in place.
def _item_expr(item):
    if isinstance(item, ConstItem):
        return Const(item.value)
    ref = Ref(item.literal)
    return Naf(ref) if item.naf else ref


def join_rules(rules):
    """Disjunction of (body ∧ weight) over the given rules, as written;
    the empty join is the disjunction identity [0,0]."""
    disjuncts = []
    for r in rules:
        parts = tuple(_item_expr(b) for b in r.body) + (Const(r.weight),)
        disjuncts.append(parts[0] if len(parts) == 1 else And(parts))
    if not disjuncts:
        return Const(FALSE)
    if len(disjuncts) == 1:
        return disjuncts[0]
    return Or(tuple(disjuncts))


def atom_body(pos_rules, neg_rules):
    """The value an atom's rules force on it, unfolded: the join of its
    positive rules aggregated with the mirror of the join of its negative
    rules, one side alone when the other has no rules, and the
    closed-world [0,1] when it heads no rule (Clark's completion, one
    atom at a time).  `simplify` folds it to the body `transform_program`
    builds."""
    if pos_rules and neg_rules:
        return Kagg(join_rules(pos_rules), Neg(join_rules(neg_rules)))
    if pos_rules:
        return join_rules(pos_rules)
    if neg_rules:
        return Neg(join_rules(neg_rules))
    return Const(BOTTOM)


def total_from_positive(positive: dict) -> dict:
    """Strictly consistent total interpretation from atom values, one
    dict at a time, a then -a per atom: what `semantics.totals_from_positive`
    builds for each of its dicts."""
    i = {}
    for atom, v in positive.items():
        i[Literal(atom, False)] = v
        i[Literal(atom, True)] = negate(v)
    return i


def forced_value(group, i: dict, naf_i: dict):
    """`semantics.forced_bounds` as a value: an Interval, or
    INCONSISTENT, the form `evaluate` gives for the atom's body tree."""
    f = forced_bounds(group, i, naf_i)
    return INCONSISTENT if f is None else Interval(*f)


def evaluate(e, i: dict):
    """Recursive valuation of a body expression; inconsistency absorbs."""
    kind = type(e)
    if kind is tf.Ref:
        return lookup(i, e.literal)
    if kind is tf.Const:
        return e.value
    if kind is tf.And or kind is tf.Or:
        combine = tnorm if kind is tf.And else tconorm
        value = evaluate(e.children[0], i)
        for c in e.children[1:]:
            value = combine(value, evaluate(c, i))
        return value
    if kind is tf.Naf:
        return naf(evaluate(e.child, i))
    if kind is tf.Neg:
        return negate(evaluate(e.child, i))
    if kind is tf.Kagg:
        return kagg(evaluate(e.left, i), evaluate(e.right, i))
    raise TypeError(f"not a body expression: {e!r}")


def _reduct_rule(r: Rule, i: dict) -> Rule:
    """r in P^i: every naf body item replaced with the constant it
    evaluates to under i."""
    return Rule(r.head, r.weight,
                tuple(ConstItem(naf(lookup(i, b.literal)))
                      if isinstance(b, LitItem) and b.naf else b
                      for b in r.body), r.label)


def reduct(p: Program, i: dict) -> Program:
    """P^i: every naf body item replaced with the constant it evaluates
    to under i, plus the closed world, a <- [1,1] : [0,1] (label c#a)
    for every atom that heads no rule.  The closed-world rules keep the
    atom base of p, so an atom read only through naf stays an atom of
    the reduct and of every rival drawn from it."""
    rules = [_reduct_rule(r, i) for r in p.rules]
    headed = {r.head.atom for r in p.rules}
    rules += [Rule(Literal(a, False), TRUE, (ConstItem(BOTTOM),), f"c#{a}")
              for a in sorted(p.atom_base - headed, key=str)]
    return Program(rules)


def brute_force_grid(p, points=GRID_POINTS, eps=EPS_CMP):
    """Reference grid oracle: every cell for every atom, in product order
    over the atoms sorted by name, kept when each atom equals the value
    its rules force on the complete interpretation."""
    groups = rules_by_head(p)
    atoms = sorted(groups, key=str)
    lits = [Literal(a, False) for a in atoms]
    bodies = [atom_body(*groups[a]) for a in atoms]

    def agrees(actual, body, i):
        req = evaluate(body, i)
        return req is not INCONSISTENT and actual.same_as(req, eps)

    found = []
    for combo in itertools.product(grid_intervals(points), repeat=len(atoms)):
        i = dict(zip(lits, combo))
        if all(agrees(actual, body, i) for actual, body in zip(combo, bodies)):
            found.append(i)
    return found


def unmemoized_assumption_set(entries, component, cycles, mode="nmi"):
    """Reference assumption-set search: the greedy cover with
    backtracking over every ordering of the chosen atoms, pruned on size
    alone, with each chosen atom owning a cycle through it that avoids
    the others; None when no cover qualifies."""
    atoms = sorted(component, key=str)
    candidates = [a for a in atoms
                  if mode == "nmi" or Naf in node_kinds([entries[a]])]

    def disjunctive(expr):
        if isinstance(expr, Kagg):
            return disjunctive(expr.left) or disjunctive(expr.right)
        return isinstance(expr, Or)

    def owns_one(chosen):
        return all(any(a in cyc and not any(b in cyc for b in chosen
                                            if b != a)
                       for cyc in cycles)
                   for a in chosen)

    best = None

    def search(chosen, uncovered):
        nonlocal best
        if best is not None and len(chosen) >= len(best):
            return
        if not uncovered:
            if owns_one(chosen):
                best = list(chosen)
            return
        ranked = sorted(
            (a for a in candidates if a not in chosen),
            key=lambda a: (-sum(1 for cyc in uncovered if a in cyc),
                           not disjunctive(entries[a]), str(a)))
        for a in ranked:
            if not any(a in cyc for cyc in uncovered):
                break
            search(chosen + [a], [cyc for cyc in uncovered if a not in cyc])

    search([], list(cycles))
    return None if best is None else sorted(best, key=str)


@st.composite
def random_programs(draw):
    """1-4 atoms a-d and 1-5 rules; a head is classically negated with
    probability 0.2; each rule has 1-3 body items, a literal with
    probability 0.75 (naf 0.3, classically negated 0.2), else an
    interval constant; every bound has two decimals."""
    def chance(percent):   # shrinks towards False
        return draw(st.integers(0, 99)) >= 100 - percent

    atoms = "abcd"[:draw(st.integers(1, 4))]

    def literal():
        return ("-" if chance(20) else "") + draw(st.sampled_from(atoms))

    def interval():
        lo, hi = sorted(draw(st.integers(0, 100)) / 100 for _ in range(2))
        return f"[{lo},{hi}]"

    def item():
        if not chance(75):
            return interval()
        return ("not " if chance(30) else "") + literal()

    return "".join(
        f"{literal()} <- {interval()} : "
        f"{', '.join(item() for _ in range(draw(st.integers(1, 3))))}.\n"
        for _ in range(draw(st.integers(1, 5))))
