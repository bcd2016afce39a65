import contextlib
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from unasp import (Atom, Literal, SolverConfig, parse_program, semantics,
                   solve, transform)
from unasp.intervals import (BOTTOM, EPS_CMP, INCONSISTENT, TRUE, Interval,
                             negate)
from unasp.program import ConstItem, Program, Rule, ground
from unasp.semantics import (UnboundLiteral, enumerate_grid_supported,
                             forced_bounds, grid_intervals, interp_kp_below,
                             is_answer_set, is_supported_model, lookup,
                             model_from_json, model_to_json,
                             total_from_positive)
from unasp.solver import component_pass, front_half
from unasp.transform import Neg, Ref, rules_by_head, simplify

from conftest import (PROGRAMS, atom_body, evaluate, forced_value,
                      join_rules, random_programs, reduct)


def interp(**values):
    return total_from_positive({Atom(k): Interval(*v)
                                for k, v in values.items()})


class TestLookup:
    def test_mirror_fallback(self):
        i = {Literal(Atom("a")): Interval(0.2, 0.5)}
        assert lookup(i, Literal(Atom("a"), True)).same_as(Interval(0.5, 0.8))

    def test_unbound(self):
        with pytest.raises(UnboundLiteral):
            lookup({}, Literal(Atom("a")))


class TestEvaluate:
    def test_joined_body_at_the_monotonic_fixpoint(self, ex6):
        e = simplify(join_rules(rules_by_head(ex6)[Atom("p")][0]))
        i = interp(q=(0.7, 0.7), r=(0.5, 0.5), s=(0.42, 0.72), t=(0.0, 1.0))
        assert evaluate(e, i).same_as(Interval(0.39157, 0.4951), eps=1e-6)

    def test_classical_negation(self):
        e = Neg(Ref(Literal(Atom("b"))))
        i = interp(b=(0.03, 0.3))
        assert evaluate(e, i).same_as(Interval(0.7, 0.97))

    def test_inconsistent_propagates(self):
        i = {Literal(Atom("a")): INCONSISTENT}
        assert evaluate(Neg(Ref(Literal(Atom("a")))), i) is INCONSISTENT


class TestSupportedModel:
    def test_example2_answer_set_is_supported(self, ex2):
        i = interp(a=(0, 0), b=(1, 1), c=(1, 1))
        assert is_supported_model(i, ex2)

    def test_example1_continuum(self, ex1):
        i = interp(a=(0.3, 0.3), b=(0.3, 0.3))
        assert is_supported_model(i, ex1)
        assert is_supported_model(interp(a=(0, 1), b=(0, 1)), ex1)

    def test_too_certain_is_not_supported(self, ex1):
        i = interp(a=(0.3, 0.3), b=(0.7, 0.7))
        assert not is_supported_model(i, ex1)

    def test_equal_width_clash_is_not_supported(self, ex5):
        i = interp(a=(0.9, 0.9))
        assert not is_supported_model(i, ex5)

    def test_constraint_atoms_must_sit_at_ignorance(self):
        p = parse_program("a <- [1,1] : b.")
        assert is_supported_model(interp(a=(0, 1), b=(0, 1)), p)
        assert not is_supported_model(interp(a=(0.5, 0.5), b=(0.5, 0.5)), p)


@st.composite
def partial_interpretations(draw, missing=True):
    """Values for the literals of atoms a-d: each atom given under both
    signs, drawn apart (so mostly off the mirror), by one of its two
    literals alone or, when missing holds, not at all; about one value
    in eight is INCONSISTENT, the others have two-decimal bounds."""
    def value():
        if draw(st.integers(0, 7)) == 0:
            return INCONSISTENT
        return Interval(*sorted(draw(st.integers(0, 100)) / 100
                                for _ in range(2)))

    shapes = ["both", "positive", "negative"]
    if missing:
        shapes.append("missing")
    i = {}
    for name in "abcd":
        shape = draw(st.sampled_from(shapes))
        if shape in ("both", "positive"):
            i[Literal(Atom(name))] = value()
        if shape in ("both", "negative"):
            i[Literal(Atom(name), True)] = value()
    return i


def _outcome(fn, *args):
    """The repr of both bounds of fn(*args), INCONSISTENT, or
    UnboundLiteral if it raised that."""
    try:
        v = fn(*args)
    except UnboundLiteral:
        return UnboundLiteral
    return v if v is INCONSISTENT else (repr(v.lower), repr(v.upper))


class TestForcedValue:
    """forced_value reads an atom's rules as `evaluate` reads the tree
    `atom_body` builds from them: the same bounds bit for bit, or both
    INCONSISTENT, or both raising UnboundLiteral.  The verifier reads the
    rules and the grid oracle the trees, so this is what makes every
    grid model a supported model of the reduct for the verifier too."""

    @settings(max_examples=300, deadline=None)
    @given(text=random_programs(), i=partial_interpretations())
    def test_matches_evaluate_of_atom_body(self, text, i):
        for group in rules_by_head(parse_program(text)).values():
            assert _outcome(forced_value, group, i, i) == \
                _outcome(evaluate, atom_body(*group), i)

    @settings(max_examples=300, deadline=None)
    @given(text=random_programs(), i=partial_interpretations(),
           j=partial_interpretations(missing=False))
    def test_naf_read_in_j_is_the_reduct_at_j(self, text, i, j):
        """With `not` read in j, which binds every atom as reduct(p, j)
        needs, it is the atom's body in that reduct: the closed world
        [0,1] ∧ [1,1] for an atom that heads no rule."""
        p = parse_program(text)
        at_j = rules_by_head(reduct(p, j))
        for atom, group in rules_by_head(p).items():
            assert _outcome(forced_value, group, i, j) == \
                _outcome(evaluate, atom_body(*at_j[atom]), i)


@pytest.mark.parametrize("text, bounds", [
    # [0,0.13] v [1,1] is (1.0, 0.9999999999999999) before the snap
    ("a <- [1,1] : [0,0.13]. a <- [1,1] : [1,1].", (1.0, 1.0)),
    # the same join on the negative side of a kagg, whose mirror
    # (1.1e-16, 0.0) would snap to a midpoint of 5.6e-17
    ("a <- [0,1] : [1,1]. -a <- [1,1] : [0,0.13]. -a <- [1,1] : [1,1].",
     (0.0, 0.0)),
], ids=["join", "kagg-side"])
def test_forced_bounds_snap_as_the_tree_does(text, bounds):
    """A t-conorm of two valid bounds can leave them out of order by
    float dust, which `Interval` snaps back; the bounds fold snaps them
    where the tree does, before any later operation reads them."""
    p = parse_program(text)
    group = rules_by_head(p)[Atom("a")]
    i = interp(a=bounds)
    v = evaluate(atom_body(*group), i)
    assert (v.lower, v.upper) == bounds
    assert forced_bounds(group, i, i) == bounds
    assert is_supported_model(i, p, eps=0.0)


def test_supported_check_builds_intervals_only_for_kagg(monkeypatch):
    """is_supported_model compares bounds and builds no Interval, except
    the two that `kagg` takes for an atom heading both a and -a rules:
    one such atom in ex2 and ex8, two in ex6 (p and j)."""
    built = 0
    post_init = Interval.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        post_init(self)

    tol = SolverConfig().nmi.answer_tol
    counts = {}
    for path in sorted(PROGRAMS.glob("*.unasp")):
        p = ground(parse_program(path.read_text()))
        counts[path.stem] = []
        for answer in solve(p).answer_sets:
            built = 0
            with monkeypatch.context() as patch:
                patch.setattr(Interval, "__post_init__", counting)
                assert is_supported_model(answer, p, tol)
            counts[path.stem].append(built)
    assert counts == {"ex1": [0], "ex2": [2], "ex3": [0], "ex4": [0] * 5,
                      "ex5": [], "ex6": [4] * 5, "ex7": [0], "ex8": [2],
                      "tweety": [0]}


def _tree_supported(i, p, eps):
    """The supported-model check on the trees of `atom_body`, valued
    by `evaluate`: the verdict is_supported_model gave when it built
    them."""
    try:
        for atom, group in rules_by_head(p).items():
            actual = lookup(i, Literal(atom))
            actual_neg = lookup(i, Literal(atom, True))
            req = evaluate(atom_body(*group), i)
            if any(v is INCONSISTENT for v in (actual, actual_neg, req)) \
                    or not actual.same_as(req, eps) \
                    or not actual_neg.same_as(negate(actual), eps):
                return False
    except UnboundLiteral:
        return False
    return True


def _rival_check(p, i, c, eps=EPS_CMP):
    """The verdict `is_answer_set` gives a rival c of i: a supported
    model of P^i, checked where it differs from i."""
    return semantics._rival_supported(
        c, i, rules_by_head(p), semantics._readers(p, read_naf=False), eps)


def _refuse(*args):
    raise AssertionError("the verifier built a body tree")


@contextlib.contextmanager
def no_body_trees():
    """transform's body builders, transform_program and the join of an
    atom's rules it builds each body from, raise inside."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "transform_program", _refuse)
        patch.setattr(transform, "_join", _refuse)
        yield


def test_supported_model_builds_no_body_tree():
    """On the example programs of more than 3 atoms, which have no grid,
    is_supported_model reads every answer set, and every answer set
    with one atom moved, without a body tree and gives the verdict of
    the trees."""
    tol = SolverConfig().nmi.answer_tol
    checked = 0
    for path in sorted(PROGRAMS.glob("*.unasp")):
        p = ground(parse_program(path.read_text()))
        if len(p.atom_base) <= 3:
            continue
        interps = []
        for answer in solve(p).answer_sets:
            interps.append(answer)
            for lit in sorted(answer, key=str):
                moved = TRUE if answer[lit].same_as(BOTTOM) else BOTTOM
                interps.append({**answer, lit: moved})
        expected = [_tree_supported(i, p, eps)
                    for i in interps for eps in (EPS_CMP, tol)]
        assert any(expected) and not all(expected)
        with no_body_trees():
            assert [is_supported_model(i, p, eps)
                    for i in interps for eps in (EPS_CMP, tol)] == expected
        checked += 1
    assert checked == 2   # ex6 and ex7


class TestReduct:
    def test_example3(self, ex3):
        i = interp(p=(0.5, 0.5))
        (r,) = reduct(ex3, i).rules
        assert r.body == (ConstItem(Interval(0.5, 0.5)),)

    def test_example4(self, ex4):
        i = interp(a=(0.25, 0.25), b=(0.75, 0.75))
        red = reduct(ex4, i)
        bodies = {str(r.head): r.body[0].value for r in red.rules}
        assert bodies["a"].same_as(Interval(0.25, 0.25))
        assert bodies["b"].same_as(Interval(0.75, 0.75))

    def test_positive_items_unchanged(self, ex2):
        i = interp(a=(0, 0), b=(1, 1), c=(1, 1))
        assert reduct(ex2, i).rules == ex2.rules

    def test_idempotent(self, ex6):
        i = total_from_positive({a: Interval(0.25, 0.75)
                                 for a in ex6.atom_base})
        once = reduct(ex6, i)
        assert reduct(once, i).rules == once.rules


class TestAnswerSet:
    def test_example3(self, ex3):
        assert is_answer_set(interp(p=(0.5, 0.5)), ex3)
        assert not is_answer_set(interp(p=(0.4, 0.4)), ex3)

    def test_example4_exact_points(self, ex4):
        assert is_answer_set(interp(a=(0.25, 0.25), b=(0.75, 0.75)), ex4)
        assert is_answer_set(interp(a=(1, 1), b=(0, 0)), ex4)
        assert not is_answer_set(interp(a=(0.2, 0.6), b=(0.4, 0.8)), ex4)

    def test_example5_has_none_on_grid(self, ex5):
        for i in enumerate_grid_supported(
                reduct(ex5, interp(a=(0.5, 0.5)))):
            assert not is_answer_set(i, ex5)
        assert not is_answer_set(interp(a=(0.9, 0.9)), ex5)

    def test_minimality_rejects_overcertain_support(self, ex1):
        assert is_answer_set(interp(a=(0, 1), b=(0, 1)), ex1)
        assert not is_answer_set(interp(a=(0.3, 0.3), b=(0.3, 0.3)), ex1)

    def test_candidate_list_enforces_minimality(self):
        p = parse_program("a <- [1,1] : b.\nb <- [1,1] : a.\nc <- [1,1] : d.")
        narrow = interp(a=(0.4, 0.4), b=(0.4, 0.4), c=(0, 1), d=(0, 1))
        wide = interp(a=(0, 1), b=(0, 1), c=(0, 1), d=(0, 1))
        # 4 atoms: the built-in grid sweep is off, so rivals must come
        # from the candidate list
        assert is_answer_set(narrow, p, candidates=[])
        assert not is_answer_set(narrow, p, candidates=[wide, narrow])

    def test_grid_rivals_are_not_rechecked(self, ex1, monkeypatch):
        """A grid model is a supported model of the reduct by
        construction, so only i and the candidates below it in certainty
        are checked: i through is_supported_model, and the candidate
        below it, which assigns i's literals, where it differs from i."""
        i = interp(a=(0.3, 0.3), b=(0.3, 0.3))
        below = interp(a=(0, 1), b=(0.2, 0.4))    # wider, not supported
        level = interp(a=(0.5, 0.5), b=(0.5, 0.5))  # equally certain
        red = reduct(ex1, i)
        assert any(interp_kp_below(c, i) for c in enumerate_grid_supported(red))
        checked, rivals = [], []
        supported = semantics.is_supported_model
        supports = semantics._rival_supported

        def recording(c, prog, eps):
            checked.append(c)
            return supported(c, prog, eps)

        def recording_rival(c, *args):
            rivals.append(c)
            return supports(c, *args)
        monkeypatch.setattr(semantics, "is_supported_model", recording)
        monkeypatch.setattr(semantics, "_rival_supported", recording_rival)
        assert not is_answer_set(i, ex1, candidates=[below, level, i])
        assert [id(c) for c in checked] == [id(i)]
        assert [id(c) for c in rivals] == [id(below)]

    @pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.unasp")),
                             ids=lambda path: path.stem)
    def test_verdicts_build_no_body_tree(self, path):
        """Every candidate the component pass gives gets the verdict it
        got in `solve` with no body tree built: on the programs of at
        most 3 atoms the grid oracle reads P^i in place, as the rival
        check does, and builds no reduct."""
        g = ground(parse_program(path.read_text()))
        cfg = SolverConfig()
        report = solve(g, cfg)
        totals = [total_from_positive(b)
                  for b in component_pass(front_half(g), cfg).branches]
        eps = cfg.nmi.answer_tol
        verdicts = [is_answer_set(t, g, totals, eps) for t in totals]
        assert [t for t, ok in zip(totals, verdicts) if ok] \
            == report.answer_sets
        with no_body_trees():
            assert [is_answer_set(t, g, totals, eps) for t in totals] \
                == verdicts


class TestGridEnumeration:
    def test_example3_reduct_unique_on_grid(self, ex3):
        red = reduct(ex3, interp(p=(0.5, 0.5)))
        found = enumerate_grid_supported(red)
        assert len(found) == 1
        assert found[0][Literal(Atom("p"))].same_as(Interval(0.5, 0.5))

    def test_example1_grid_supported_count(self, ex1):
        # every grid cell x gives the supported model {a:x, b:x}
        assert len(enumerate_grid_supported(ex1)) == 15

    def test_ties_are_broken_at_one_tolerance_whatever_the_eps(self):
        # widths 0.25 and 0.2500001 differ by more than EPS_CMP, so kagg
        # keeps the narrower whatever tolerance the caller compares at
        p = parse_program("a <- [0.25,0.5].\n-a <- [0.2499999,0.5].")
        for eps in (1e-6, 1e-9):
            (i,) = enumerate_grid_supported(p, eps=eps)
            assert i[Literal(Atom("a"))].same_as(Interval(0.25, 0.5))


class TestInterpOrdering:
    def test_kp_below(self):
        wide = interp(a=(0, 1), b=(0.2, 0.4))
        narrow = interp(a=(0.5, 0.5), b=(0.2, 0.4))
        assert interp_kp_below(wide, narrow)
        assert not interp_kp_below(narrow, wide)
        assert not interp_kp_below(wide, wide)


LITERALS = [Literal(Atom(name), negated)
            for name in "abc" for negated in (False, True)]
# grid cells, widths just either side of a grid width, and INCONSISTENT
VALUES = st.sampled_from(grid_intervals() + [
    Interval(0.25, 0.5 + 1e-10), Interval(0.25, 0.5 - 1e-10),
    Interval(0.0, 0.25 + 0.05), INCONSISTENT])


def kp_below_pairwise(a, b, eps):
    """interp_kp_below as it read before its same-literals fast path:
    every literal of either side, through `lookup`."""
    strict = False
    for lit in set(a) | set(b):
        try:
            x, y = lookup(a, lit), lookup(b, lit)
        except UnboundLiteral:
            return False
        if x is INCONSISTENT or y is INCONSISTENT:
            return False
        if x.width < y.width - eps:
            return False
        if x.width > y.width + eps:
            strict = True
    return strict


@st.composite
def rival_cases(draw):
    """An interpretation, candidates over the same literals (in any
    order), over others (some missing, some positive only), i itself and
    a copy of it, and an eps.  A negative literal's value is drawn on
    its own, so its width may differ from the positive one's."""
    keys = draw(st.lists(st.sampled_from(LITERALS), min_size=1,
                         unique=True))
    i = {lit: draw(VALUES) for lit in keys}
    candidates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["same", "other", "i", "copy"]))
        if kind == "i":
            candidates.append(i)
        elif kind == "copy":
            candidates.append(dict(i))
        else:
            lits = draw(st.permutations(keys) if kind == "same" else
                        st.lists(st.sampled_from(LITERALS), unique=True))
            candidates.append({lit: draw(VALUES) for lit in lits})
    eps = draw(st.sampled_from([0.0, 1e-9, 0.05]))
    return i, candidates, eps


class TestRivalSelection:
    @given(rival_cases())
    def test_same_verdicts_as_pairwise_test(self, case):
        i, candidates, eps = case
        for c in candidates:
            assert interp_kp_below(c, i, eps) == kp_below_pairwise(c, i, eps)
            assert interp_kp_below(i, c, eps) == kp_below_pairwise(i, c, eps)

    def test_rivals_of_a_solve(self):
        wide = interp(a=(0, 1), b=(0.2, 0.4))
        narrow = interp(a=(0.5, 0.5), b=(0.2, 0.4))
        level = interp(a=(0.25, 0.75), b=(0.2, 0.4))
        candidates = [wide, narrow, level]

        def rivals(i):
            return [c for c in candidates
                    if c is not i and interp_kp_below(c, i, 1e-9)]
        assert rivals(narrow) == [wide, level]
        assert rivals(level) == [wide]
        assert rivals(wide) == []


COARSE = (0.0, 0.5, 1.0)
COARSE_CELLS = grid_intervals(COARSE)   # [1,1] is the last
WEIGHTS = ["[1,1]", "[1,1]", "[0.5,1]", "[0,0.5]", "[0.5,0.5]"]
# a reads itself, so it passes at any value; b reads a without naf
SELF_LOOP_READER = "a <- [1,1] : a.\nb <- [1,1] : a.\n"
# d heads no rule and is read only through naf; -a is read in a body
NAF_ONLY_HEADLESS = "a <- [0.5,1] : not d.\n-b <- [1,1] : -a.\nc <- [1,1] : c.\n"


@st.composite
def small_program_text(draw):
    """1-6 rules over 1-4 atoms, heads possibly negated: some copy one
    literal at weight [1,1], so atoms can support themselves; the others
    have 1-3 body items, grid constants or (possibly naf, possibly
    negated) literals, so atoms that head no rule or are read only
    through naf occur too."""
    atoms = "abcd"[:draw(st.integers(1, 4))]
    literal = st.builds("{}{}".format, st.sampled_from(["", "", "-"]),
                        st.sampled_from(atoms))
    item = st.one_of(st.builds("{}{}".format,
                               st.sampled_from(["", "", "not "]), literal),
                     st.sampled_from(WEIGHTS))
    rule = st.builds(lambda head, w, body: f"{head} <- {w} : "
                     f"{', '.join(body)}.",
                     literal, st.sampled_from(WEIGHTS),
                     st.lists(item, min_size=1, max_size=3))
    copy = st.builds("{} <- [1,1] : {}.".format, literal, literal)
    rules = draw(st.lists(st.one_of(rule, copy), min_size=1, max_size=6))
    return "\n".join(rules) + "\n"


def _grid_totals(p, eps):
    return [total_from_positive({lit.atom: v for lit, v in m.items()})
            for m in enumerate_grid_supported(p, COARSE, eps)]


def _positive(i):
    return {lit: v for lit, v in i.items() if not lit.negated}


def _reshaped(c, shape, n):
    """c as it is ("same"), or over other literals: its positive ones
    only, all but its n-th, its positive ones and one negative one off
    the mirror, or with a literal of an atom no program here has."""
    lits = sorted(c, key=str)
    if shape == "positive":
        return _positive(c)
    if shape == "missing":
        return {lit: v for lit, v in c.items() if lit != lits[n % len(lits)]}
    if shape == "off-mirror":
        atom = lits[n % len(lits)].atom
        mirror = negate(c[Literal(atom)])
        cells = COARSE_CELLS[n % len(COARSE_CELLS):] + COARSE_CELLS
        off = next(v for v in cells if not v.same_as(mirror))
        return {**_positive(c), Literal(atom, True): off}
    if shape == "foreign":
        return {**c, Literal(Atom("z")): COARSE_CELLS[n % len(COARSE_CELLS)]}
    return c


class TestRivalCheckedWhereItDiffers:
    """A rival, checked only where it differs from i and where that is
    read without naf, gets the verdict of the whole reduct,
    is_supported_model(c, reduct(p, i), eps), as long as i is a
    supported model of p; a rival over other literals than i's differs
    from it everywhere.  The check builds no body tree and gives the
    verdict the whole reduct's trees give."""

    SAME = (False, "same", 0)

    @settings(max_examples=300, deadline=None)
    @example(text=SELF_LOOP_READER, pick=0, local=None,
             changes=[(0, "both", 5)], shape=SAME)
    @example(text=NAF_ONLY_HEADLESS, pick=0, local=None,
             changes=[(3, "pos", 5)], shape=SAME)
    @example(text=NAF_ONLY_HEADLESS, pick=1, local=None,
             changes=[(0, "neg", 0)], shape=SAME)
    # the rival's positive literals are i's, its -a is off the mirror
    @example(text=SELF_LOOP_READER, pick=0, local=None,
             changes=[(1, "neg", 5)], shape=(True, "off-mirror", 1))
    # the rival leaves -a out
    @example(text=SELF_LOOP_READER, pick=0, local=None,
             changes=[(0, "both", 5)], shape=(False, "missing", 0))
    @given(text=small_program_text(), pick=st.integers(0, 10**6),
           local=st.none() | st.integers(0, 10**6),
           changes=st.lists(st.tuples(st.integers(0, 3),
                                      st.sampled_from(["pos", "neg", "both"]),
                                      st.integers(0, 5)),
                            min_size=1, max_size=4),
           shape=st.tuples(st.booleans(),
                           st.sampled_from(["same", "positive", "missing",
                                            "off-mirror", "foreign"]),
                           st.integers(0, 7)))
    def test_same_verdict_as_the_whole_reduct(self, text, pick, local,
                                              changes, shape):
        """i is a grid model of p, over its positive literals only when
        shape says so.  Without local, c is i with the changes made,
        each to a grid cell under either sign or both; with it, c is a
        grid model of the reduct's rules for the changed atoms with
        every other atom pinned to its value in i, so the changed atoms
        pass and only their readers can fail.  c is then reshaped
        (`_reshaped`)."""
        positive_i, rival_shape, n = shape
        p = parse_program(text)
        atoms = sorted(p.atom_base, key=str)
        for eps in (1e-9, 0.027):
            models = _grid_totals(p, eps)
            if not models:
                continue
            i = models[pick % len(models)]
            if positive_i:
                i = _positive(i)
            assert is_supported_model(i, p, eps)
            red = reduct(p, i)
            moved = [(atoms[k % len(atoms)], sign, COARSE_CELLS[cell])
                     for k, sign, cell in changes]
            if local is None:
                c = dict(i)
                for a, sign, v in moved:
                    if sign != "neg":
                        c[Literal(a)] = v
                    if sign != "pos":
                        c[Literal(a, True)] = negate(v)
            else:
                free = {a for a, _, _ in moved}
                pinned = [Rule(Literal(a), TRUE, (ConstItem(i[Literal(a)]),))
                          for a in atoms if a not in free]
                local_models = _grid_totals(Program(
                    [r for r in red.rules if r.head.atom in free] + pinned),
                    eps)
                if not local_models:
                    continue
                c = local_models[local % len(local_models)]
            c = _reshaped(c, rival_shape, n)
            whole = _tree_supported(c, red, eps)
            assert is_supported_model(c, red, eps) == whole
            with no_body_trees():
                assert _rival_check(p, i, c, eps) == whole

    def test_a_reader_of_a_changed_atom_is_checked(self):
        """a passes at any value, so only b, which reads a, rejects the
        rival."""
        p = parse_program(SELF_LOOP_READER)
        i = interp(a=(0, 0), b=(0, 0))
        c = interp(a=(1, 1), b=(0, 0))
        assert not is_supported_model(c, reduct(p, i))
        assert not _rival_check(p, i, c)

    def test_a_reader_through_not_is_not_checked(self, monkeypatch):
        """In P^i a `not` item is a constant, so a rival that differs
        from i only at a is checked at a and at c, which reads a, and
        not at b, which reads it only through `not`."""
        p = parse_program("a <- [1,1] : a.\nb <- [1,1] : not a.\n"
                          "c <- [1,1] : a.")
        i = interp(a=(0.5, 0.5), b=(0.5, 0.5), c=(0.5, 0.5))
        c = interp(a=(0.25, 0.75), b=(0.5, 0.5), c=(0.5, 0.5))
        assert is_supported_model(i, p)
        checked = []
        supported = semantics._atom_supported

        def counting(*args):
            checked.append(args[1])
            return supported(*args)
        monkeypatch.setattr(semantics, "_atom_supported", counting)
        assert not _rival_check(p, i, c)
        assert checked == [Atom("a"), Atom("c")]
        assert not is_supported_model(c, reduct(p, i))


def test_rival_work_does_not_depend_on_the_hash_seed():
    """Atoms are visited in order of first mention, so ex6 values the
    same number of rule groups (`forced_bounds` calls) under every hash
    seed.  Ten seeds, since with the atoms in set order most seeds
    still agree."""
    root = pathlib.Path(__file__).resolve().parent.parent
    script = (
        "import unasp\n"
        "from unasp import semantics\n"
        "calls = 0\n"
        "forced = semantics.forced_bounds\n"
        "def counting(*args):\n"
        "    global calls\n"
        "    calls += 1\n"
        "    return forced(*args)\n"
        "semantics.forced_bounds = counting\n"
        f"text = open({str(root / 'programs' / 'ex6.unasp')!r}).read()\n"
        "assert unasp.solve(unasp.parse_program(text)).status == 'ok'\n"
        "print(calls)\n")
    counts = set()
    for seed in range(10):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        counts.add(int(done.stdout))
    assert len(counts) == 1


# any JSON value, and model-shaped objects: sections keyed by the atoms
# of ex2 (and one name that is none), mapped to any value or to pairs of
# numbers, some of them ordered within [0,1], so that many reach an
# interval's bounds and some load; JSON ints are unbounded, and most of
# the second range lies past the float range
INTS = st.integers() | st.integers(-2**1100, 2**1100)
UNIT = st.integers(0, 1) | st.floats(0, 1)
JSON_ANY = st.recursive(
    st.none() | st.booleans() | INTS | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
BOUNDS_JSON = (JSON_ANY
               | st.lists(INTS | st.floats(), min_size=2, max_size=2)
               | st.lists(UNIT, min_size=2, max_size=2).map(sorted))
MODEL_JSON = JSON_ANY | st.dictionaries(
    st.sampled_from(["positive", "negative", "other"]),
    JSON_ANY | st.dictionaries(st.sampled_from(["a", "b", "c", "zz"]),
                               BOUNDS_JSON, max_size=3),
    max_size=3)


class TestModelJson:
    @settings(max_examples=300, deadline=None)
    @given(data=MODEL_JSON)
    @example(data={"positive": {"a": [0, 10**400]}})
    def test_any_json_value_loads_or_raises_value_error(self, data, ex2):
        try:
            i = model_from_json(data, ex2)
        except ValueError:
            return
        assert all(type(lit) is Literal and type(v) is Interval
                   for lit, v in i.items())

    def test_round_trip(self, ex2):
        i = interp(a=(0, 0), b=(1, 1), c=(1, 1))
        data = model_to_json(i)
        assert data["positive"]["a"] == [0, 0]
        assert data["negative"]["a"] == [1, 1]
        back = model_from_json(data, ex2)
        assert back == i

    def test_mirror_closure_on_load(self, ex3):
        back = model_from_json({"positive": {"p": [0.5, 0.5]}}, ex3)
        assert back[Literal(Atom("p"), True)].same_as(Interval(0.5, 0.5))

    def test_bounds_are_written_exactly(self, ex1):
        i = interp(a=(0, 2.45098e-09), b=(0.1 + 0.2, 0.5))
        data = model_to_json(i)
        assert data["positive"]["a"] == [0, 2.45098e-09]
        assert model_from_json(data, ex1) == i


def test_grid_models_are_keyed_by_positive_literal(ex1):
    found = enumerate_grid_supported(ex1)
    assert len(found) == 15
    positive = {Literal(Atom("a")), Literal(Atom("b"))}
    assert all(set(i) == positive for i in found)
