"""Program transformation: one body expression per atom.

All rules sharing a head literal are joined into a disjunction of
(body ∧ weight) conjunctions; positive and negative evidence for the
same atom are then combined with the certainty aggregator.  Atoms that
head no rule get the constraint body [0,1].  `transform_program` is the
one place a program's rule groups become bodies, built folded with the
unit and annihilator rules of `simplify` (`_fold`): each the body that
`simplify` folds from the unfolded tree of `atom_body` in
tests/conftest.py, bit for bit.  The verifier and its grid oracle build
no body: `semantics.forced_bounds` applies the same rule straight to
the rule groups, written a second time on purpose so that the verifier
shares no valuation code with the solver but `kagg` and `Interval`'s
validation.  The resulting rules carry no weights.

The body nodes are `intervals.Frozen` values, not named tuples: their
equality compares the node type, so `Naf(x) != Neg(x)` and
`And(c) != Or(c)`.
"""

from __future__ import annotations

from .intervals import (BOTTOM, EPS_CMP, FALSE, INCONSISTENT, TRUE, Frozen,
                        _set, kagg, naf, negate, tconorm, tnorm)
from .program import ConstItem, Literal, Program


class Const(Frozen):
    __slots__ = ("value",)

    def __init__(self, value):  # Interval or INCONSISTENT
        _set(self, "value", value)

    def __str__(self):
        return str(self.value)


class Ref(Frozen):
    __slots__ = ("literal",)

    def __init__(self, literal: Literal):
        _set(self, "literal", literal)

    def __str__(self):
        return str(self.literal)


class Naf(Frozen):
    __slots__ = ("child",)

    def __init__(self, child):
        _set(self, "child", child)

    def __str__(self):
        return f"not {self.child}"


class Neg(Frozen):
    __slots__ = ("child",)

    def __init__(self, child):
        _set(self, "child", child)

    def __str__(self):
        return f"-({self.child})"


class And(Frozen):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        _set(self, "children", children)

    def __str__(self):
        return "(%s)" % " & ".join(str(c) for c in self.children)


class Or(Frozen):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        _set(self, "children", children)

    def __str__(self):
        return "(%s)" % " | ".join(str(c) for c in self.children)


class Kagg(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self):
        return f"({self.left} (x)k {self.right})"


def _fold(is_and: bool, folded, rest: list):
    """The conjunction (is_and) or disjunction of the constant folded
    (None for none) and the nodes rest: the annihilator collapses it,
    the unit drops out unless alone, and a kept constant goes first.
    An INCONSISTENT constant absorbs, as in `simplify`."""
    if folded is INCONSISTENT:
        return Const(INCONSISTENT)
    if folded is not None:
        # 0 <= lower <= upper <= 1, so same_as([0,0]) is upper <= EPS_CMP
        # and same_as([1,1]) is 1 - lower <= EPS_CMP, bit for bit
        zero, one = folded.upper <= EPS_CMP, 1.0 - folded.lower <= EPS_CMP
        if zero if is_and else one:
            return Const(FALSE if is_and else TRUE)
        if not rest or not (one if is_and else zero):
            rest.insert(0, Const(folded))
    if not rest:
        return Const(TRUE if is_and else FALSE)
    if len(rest) == 1:
        return rest[0]
    return And(tuple(rest)) if is_and else Or(tuple(rest))


def simplify(e, values: dict = None):
    """Constant folding plus the unit/annihilator rewrites: drop [1,1]
    conjuncts and [0,0] disjuncts, collapse on [0,0] conjuncts and
    [1,1] disjuncts.  Inconsistency absorbs.

    values maps Atom -> Interval (or INCONSISTENT); a reference to one
    of those atoms becomes its value, a reference to -a the mirror of
    a's value, before the folding above it.  A conjunction or
    disjunction is rebuilt, its folded constant first, and reads its
    constant and reference children, and `not` or `-` of a reference,
    in its own loop, in child order; the other nodes are returned as
    they are when nothing beneath them changed."""
    kind = type(e)
    if kind is And or kind is Or:
        is_and = kind is And
        combine = tnorm if is_and else tconorm
        folded, rest = None, []
        for c in e.children:
            # v is c itself for a child that stays unfolded
            if type(c) is Ref:
                v = values.get(c.literal.atom, c) if values else c
                if v is not c and c.literal.negated:
                    v = negate(v)
            elif type(c) is Const:
                v = c.value
            elif type(c) in (Naf, Neg) and type(c.child) is Ref:
                v = values.get(c.child.literal.atom, c) if values else c
                if v is not c:
                    v = negate(v) if c.child.literal.negated else v
                    v = naf(v) if type(c) is Naf else negate(v)
            else:
                c = simplify(c, values)
                v = c.value if type(c) is Const else c
            if v is c:
                rest.append(c)
            elif v is INCONSISTENT:
                return c if type(c) is Const else Const(v)
            else:
                folded = v if folded is None else combine(folded, v)
        return _fold(is_and, folded, rest)
    if kind is Const:
        return e
    if kind is Ref:
        v = values.get(e.literal.atom, e) if values else e
        return e if v is e else Const(negate(v) if e.literal.negated else v)
    if kind is Naf or kind is Neg:
        child = simplify(e.child, values)
        if type(child) is Const:
            return Const(naf(child.value) if kind is Naf
                         else negate(child.value))
        return e if child is e.child else kind(child)
    if kind is Kagg:
        left, right = simplify(e.left, values), simplify(e.right, values)
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
    raise TypeError(f"not a body expression: {e!r}")


substitute = simplify


def nodes(e):
    """Every node of a body expression, each parent before its children."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif isinstance(node, Kagg):
            stack += (node.left, node.right)
        elif isinstance(node, (Naf, Neg)):
            stack.append(node.child)


def node_kinds(exprs) -> set:
    """The node types occurring anywhere in the given expressions."""
    return {type(n) for e in exprs for n in nodes(e)}


def referenced_atoms(e) -> set:
    """The atoms a body expression refers to, under either sign."""
    atoms = set()
    stack = [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Ref:
            atoms.add(node.literal.atom)
        elif kind is And or kind is Or:
            stack += node.children
        elif kind is Kagg:
            stack += (node.left, node.right)
        elif kind is Naf or kind is Neg:
            stack.append(node.child)
    return atoms


def rules_by_head(p: Program) -> dict:
    """Atom -> (rules with head a, rules with head -a) for every atom of
    the program, headless ones included, in the order of `atom_base`,
    that of first mention."""
    groups = {atom: ([], []) for atom in p.atom_base}
    for r in p.rules:
        groups[r.head.atom][r.head.negated].append(r)
    return groups


def _join(rules):
    """The disjunction of (body ∧ weight) over one or more rules, built
    folded: a rule's literal items in order, `not` ones as Naf(Ref), its
    constant items then its weight multiplied into one constant (a rule
    with no item is its weight), the rules in order, constants folded."""
    folded, rest = None, []
    for r in rules:
        w, lits = None, []
        for b in r.body:
            if type(b) is ConstItem:
                w = b.value if w is None else tnorm(w, b.value)
            else:
                ref = Ref(b.literal)
                lits.append(Naf(ref) if b.naf else ref)
        e = (_fold(True, r.weight if w is None else tnorm(w, r.weight), lits)
             if r.body else Const(r.weight))
        if len(rules) == 1:
            return e
        if type(e) is Const:
            folded = e.value if folded is None else tconorm(folded, e.value)
        else:
            rest.append(e)
    return _fold(False, folded, rest)


def transform_program(p: Program) -> dict:
    """Atom -> its body, built folded in one pass over the rule groups
    (Clark's completion, one atom at a time): the one table `mi` and the
    analyses work on."""
    bodies = {}
    for atom, (pos, neg) in rules_by_head(p).items():
        e = _join(pos) if pos else Const(BOTTOM)
        if neg:
            right = _join(neg)
            right = (Const(negate(right.value)) if type(right) is Const
                     else Neg(right))
            if not pos:
                e = right
            elif type(e) is Const and type(right) is Const:
                e = Const(kagg(e.value, right.value))
            elif Const(INCONSISTENT) in (e, right):   # it absorbs
                e = Const(INCONSISTENT)
            else:
                e = Kagg(e, right)
        bodies[atom] = e
    return bodies
