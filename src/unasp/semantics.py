"""Declarative semantics and the independent verifier.

Valuation of body expressions, supportedness, reducts, and the
answer-set check (supported model of the reduct, minimally certain
among known candidates).  The reduct carries the closed world, so it
keeps the program's atom base; a candidate is checked against the
program itself.

A rival below the candidate i is checked against P^i only where it
differs from i and at the atoms that read one of those without `not`;
a rival over other literals than i's differs from it everywhere.  An
atom the rival agrees on, and whose body reads no atom it changed,
passes as it did for i: P^i is read in place, its `not` items in i,
so the atom's rules give the value they gave when i passed, at the same
eps.  The whole reduct is built only for the grid.

An interpretation is a supported model when every atom equals the value
its rules force, read straight from its rules, one atom at a time, by
`forced_value`, which builds no body tree.  That completion rule is
written twice on purpose: `transform.atom_body` builds it as a tree,
which the solver folds and the grid oracle evaluates (`evaluate`), and
`forced_value` applies the same operations in the same order, so the
verifier shares no valuation code with the solver; a property test
(tests/test_semantics.py) holds the two equal, bit for bit.  `kagg`
breaks ties at `EPS_CMP`, and a caller's eps only bounds how far a
value may sit from the forced one.

The grid oracle, which supplies the rivals of small programs, tries
every grid cell only for the cut atoms, those whose bodies mention
themselves or an atom placed after them in the condensation's order;
every other atom is computed from its `atom_body` and kept on the cells
that agree with it.  An acyclic reduct takes one pass instead of the
whole product of cells.
"""

from __future__ import annotations

import itertools

from .intervals import (BOTTOM, INCONSISTENT, EPS_CMP, TRUE, Interval, kagg,
                        naf, negate, tconorm, tnorm)
from .program import ConstItem, LitItem, Literal, Program, Rule
from . import transform as tf
from .depgraph import scc_condense

GRID_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)
# is_answer_set adds the grid's supported models as rivals up to here
GRID_MAX_ATOMS = 3


class UnboundLiteral(LookupError):
    def __init__(self, literal):
        super().__init__(f"literal {literal} is not assigned")
        self.literal = literal


def lookup(i: dict, lit: Literal):
    """Value of a literal, falling back on the mirror of its complement
    (strict-consistency reading) when only that side is assigned."""
    if lit in i:
        return i[lit]
    comp = lit.complement()
    if comp in i:
        return negate(i[comp])
    raise UnboundLiteral(lit)


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


def _agrees(actual, req, eps: float) -> bool:
    """The atom's value is the one its rules force (INCONSISTENT when
    the mixed-evidence aggregation is an equal-width clash)."""
    return req is not INCONSISTENT and actual.same_as(req, eps)


def _joined(rules, i: dict, naf_i: dict):
    """`evaluate(join_rules(rules), i)` with `not` read in naf_i, for
    one or more rules: each rule's items left to right by t-norm, then
    its weight, and the rules by t-conorm."""
    joined = None
    for r in rules:
        value = None
        for b in r.body:
            if type(b) is ConstItem:
                x = b.value
            elif b.naf:
                x = naf(lookup(naf_i, b.literal))
            else:
                x = lookup(i, b.literal)
            value = x if value is None else tnorm(value, x)
        value = r.weight if value is None else tnorm(value, r.weight)
        joined = value if joined is None else tconorm(joined, value)
    return joined


def forced_value(group, i: dict, naf_i: dict):
    """The value an atom's rules force under i, read straight from its
    rule group (pos, neg) of `transform.rules_by_head`, with `not` read
    in naf_i: `evaluate(atom_body(pos, neg), i)` when naf_i is i, that
    atom's body in `reduct(p, naf_i)` otherwise.  The same operations
    in the same order as `evaluate` on the tree: the negative side
    mirrored and aggregated with `kagg`, [0,1] if the atom heads no
    rule."""
    pos, neg = group
    if not neg:
        return _joined(pos, i, naf_i) if pos else BOTTOM
    if not pos:
        return negate(_joined(neg, i, naf_i))
    return kagg(_joined(pos, i, naf_i), negate(_joined(neg, i, naf_i)))


def _atom_supported(c: dict, atom, group, naf_i: dict, eps: float) -> bool:
    """The atom carries exactly the value its rules force under c, `not`
    read in naf_i, and its complementary literal mirrors it; raises
    UnboundLiteral."""
    actual = lookup(c, Literal(atom, False))
    if actual is INCONSISTENT:
        return False
    if not _agrees(actual, forced_value(group, c, naf_i), eps):
        return False
    actual_neg = lookup(c, Literal(atom, True))
    if actual_neg is INCONSISTENT:
        return False
    return actual_neg.same_as(negate(actual), eps)


def is_supported_model(i: dict, p: Program, eps: float = EPS_CMP) -> bool:
    """Every atom carries exactly the value its rules produce and the
    complementary literal mirrors it; False if a literal is unbound."""
    try:
        return all(_atom_supported(i, atom, group, i, eps)
                   for atom, group in tf.rules_by_head(p).items())
    except UnboundLiteral:
        return False


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


class _ReductAt:
    """P^i, read in place: an atom's rules are valued by `forced_value`
    with their `not` items read in i, and no reduct rule is built; i
    must be a supported model of p at the eps it is read at.

    A rival c is a supported model of P^i exactly when it passes at the
    atoms where it differs from i, under either sign, and at the atoms
    whose rules read one of those through a body item without `not`;
    every other atom gives the value it gave i, bit for bit (see the
    module docstring).  A rival over other literals is checked at every
    atom."""

    def __init__(self, p: Program, i: dict):
        self.i = i
        self.groups = tf.rules_by_head(p)
        self.readers = {}   # Atom -> the heads of rules reading it without naf
        for r in p.rules:
            for b in r.body:
                if isinstance(b, LitItem) and not b.naf:
                    self.readers.setdefault(b.literal.atom, []).append(
                        r.head.atom)

    def supports(self, c: dict, eps: float = EPS_CMP) -> bool:
        """is_supported_model(c, reduct(p, i), eps), checked where c
        differs from i; c holds no INCONSISTENT value, as no rival
        below i in certainty does."""
        check = self.groups
        if c.keys() == self.i.keys():
            differs = {lit.atom for lit, v in self.i.items()
                       if (w := c[lit]) is not v
                       and (w.lower != v.lower or w.upper != v.upper)}
            check = set(differs)
            for a in differs:
                check.update(self.readers.get(a, ()))
        try:
            return all(_atom_supported(c, a, group, self.i, eps)
                       for a, group in self.groups.items() if a in check)
        except UnboundLiteral:
            return False


def total_from_positive(positive: dict) -> dict:
    """Strictly consistent total interpretation from atom values."""
    i = {}
    for atom, v in positive.items():
        i[Literal(atom, False)] = v
        i[Literal(atom, True)] = negate(v)
    return i


def grid_intervals(points=GRID_POINTS):
    return [Interval(lo, hi)
            for lo, hi in itertools.combinations_with_replacement(points, 2)]


def enumerate_grid_supported(p: Program, points=GRID_POINTS,
                             eps: float = EPS_CMP):
    """All supported models whose atom values have endpoints on the
    grid, keyed by positive literal (`lookup` mirrors the negative
    ones), in product order over the atoms sorted by name.

    Cycle-cutset conditioning (Dechter 1990): the atoms are placed
    upstream first, component by component of the condensation.  A cut
    atom, whose body mentions itself or an atom placed after it, takes
    every cell; any other atom takes only the cells that agree with its
    body, which mentions placed atoms alone and so has its final value.
    Once all are placed, each cut atom is checked the same way.  So
    every atom passes the brute-force test (`_agrees` with its
    `atom_body` on the complete interpretation) and nothing else is
    pruned: the result is that of trying every cell for every atom, at
    the cost of the cut atoms' cells alone.  Exponential in the cut."""
    bodies = dict(tf.atom_bodies(p))
    components, topo = scc_condense(bodies)
    order = [a for k in topo for a in components[k]]
    place = {a: n for n, a in enumerate(order)}
    lits = [Literal(a, False) for a in order]
    exprs = [bodies[a] for a in order]
    cut = [any(place[b] >= n for b in tf.referenced_atoms(e))
           for n, e in enumerate(exprs)]
    sorted_places = [place[a] for a in sorted(bodies, key=str)]
    cells = grid_intervals(points)
    every_cell = list(enumerate(cells))
    chosen = [0] * len(order)
    i = {}
    found = []

    def extend(n):
        if n == len(order):
            if all(_agrees(i[lits[m]], evaluate(exprs[m], i), eps)
                   for m in range(n) if cut[m]):
                found.append([chosen[m] for m in sorted_places])
            return
        if cut[n]:
            options = every_cell
        else:
            req = evaluate(exprs[n], i)
            options = [(k, c) for k, c in every_cell if _agrees(c, req, eps)]
        for k, c in options:
            chosen[n] = k
            i[lits[n]] = c
            extend(n + 1)

    extend(0)
    del extend  # it reads itself, a cycle that would keep i until the GC
    found.sort()
    return [{lits[m]: cells[k] for m, k in zip(sorted_places, key)}
            for key in found]


def interp_kp_below(a: dict, b: dict, eps: float = EPS_CMP) -> bool:
    """a strictly below b in certainty: everywhere at least as wide,
    somewhere strictly wider.  When a and b assign the same literals, as
    every pair of `solve`'s candidates does, their values are read
    directly, with no set union and no `lookup`."""
    if a.keys() == b.keys():
        pairs = zip(map(a.__getitem__, b), b.values())
    else:
        pairs = ((lookup(a, lit), lookup(b, lit)) for lit in set(a) | set(b))
    strict = False
    try:
        for x, y in pairs:
            if x is INCONSISTENT or y is INCONSISTENT:
                return False
            wx, wy = x.upper - x.lower, y.upper - y.lower
            if wx < wy - eps:
                return False
            if wx > wy + eps:
                strict = True
    except UnboundLiteral:
        return False
    return strict


def is_answer_set(i: dict, p: Program, candidates=(),
                  eps: float = EPS_CMP) -> bool:
    """Supported model of the reduct, with no known supported model of
    the same reduct strictly more uncertain-dominated below it.

    i is checked against p itself: naf reads i in p and in P^i alike,
    so the two verdicts are the same, bit for bit.  Minimality over the
    continuum is undecidable; it is checked against the supplied
    candidates plus, for small programs, a brute-force grid
    enumeration.  A candidate is checked against P^i only where it
    differs from i (`_ReductAt`); the whole reduct is built only for the
    grid.  Grid models are supported models of the reduct by
    construction, so only the candidates are re-checked: the grid keeps
    the cells that `_agrees` with `evaluate` of the reduct's
    `atom_body`, which gives what `is_supported_model` reads from the
    rules with `forced_value`, bit for bit, as the property test in
    tests/test_semantics.py checks.
    """
    if not is_supported_model(i, p, eps):
        return False
    rivals = [c for c in candidates
              if c is not i and interp_kp_below(c, i, eps)]
    if rivals:
        at_i = _ReductAt(p, i)
        if any(at_i.supports(c, eps) for c in rivals):
            return False
    if len(p.atom_base) > GRID_MAX_ATOMS:
        return True
    return not any(interp_kp_below(c, i, eps)
                   for c in enumerate_grid_supported(reduct(p, i), eps=eps))


def model_to_json(i: dict) -> dict:
    pos, neg = {}, {}
    for lit, v in sorted(i.items(), key=lambda kv: str(kv[0])):
        bucket = neg if lit.negated else pos
        bucket[str(lit.atom)] = [v.lower, v.upper]
    out = {"positive": pos}
    if neg:
        out["negative"] = neg
    return out


def model_from_json(data: dict, p: Program) -> dict:
    """The interpretation a model file's JSON gives: an object with
    `positive` and `negative` objects mapping atom names to [lower,
    upper].  A bad entry raises ValueError naming the section or atom."""
    if not isinstance(data, dict):
        raise ValueError("model must be a JSON object")
    atoms = {str(a): a for a in p.atom_base}
    i = {}
    for section, negated in (("positive", False), ("negative", True)):
        bounds = data.get(section, {})
        if not isinstance(bounds, dict):
            raise ValueError(f"model {section!r} must be a JSON object")
        for name, value in bounds.items():
            if name not in atoms:
                raise ValueError(f"model {section} {name!r}: not an atom "
                                 f"of the program")
            if not (isinstance(value, list) and len(value) == 2
                    and all(type(x) in (int, float) for x in value)):
                import json   # off `import unasp`: only model files use it
                raise ValueError(f"model {section} {name!r}: expected two "
                                 f"numbers, got {json.dumps(value)}")
            try:
                value = Interval(*value)
            except ValueError as exc:
                raise ValueError(f"model {section} {name!r}: {exc}") from None
            i[Literal(atoms[name], negated)] = value
    # strictly consistent closure for missing negative literals
    for lit in list(i):
        comp = lit.complement()
        if comp not in i:
            i[comp] = negate(i[lit])
    return i


def load_model_file(path: str, p: Program) -> dict:
    import json
    with open(path) as fh:
        return model_from_json(json.load(fh), p)
