"""Interval evaluator and answer checks kept apart from the solver.

Nothing here imports `unasp.intervals`, `unasp.semantics` or the
solver's parser: the operators are written from their definitions in
the language description, values are plain `(lower, upper)` tuples, and
programs are read by a small parser of this module's own.  A check
raises `CheckFailed` with the first disagreement it finds.
"""

from __future__ import annotations

import itertools
import re

FULL = (0.0, 1.0)


class CheckFailed(AssertionError):
    pass


# --------------------------------------------------------------------
# operators


def negate(x):
    """Strong negation: [1-u, 1-l]."""
    return (1.0 - x[1], 1.0 - x[0])


def naf(x):
    """Negation as failure: [1-l, 1-l]."""
    return (1.0 - x[0], 1.0 - x[0])


def tnorm(x, y):
    return (x[0] * y[0], x[1] * y[1])


def tconorm(x, y):
    return (x[0] + y[0] - x[0] * y[0], x[1] + y[1] - x[1] * y[1])


def close(x, y, tol):
    return abs(x[0] - y[0]) <= tol and abs(x[1] - y[1]) <= tol


def kagg(x, y, tol):
    """Certainty aggregation by width: the narrower value wins; two
    different values of equal width have no aggregate (None)."""
    if close(x, y, tol):
        return x
    wx, wy = x[1] - x[0], y[1] - y[0]
    if abs(wx - wy) <= tol:
        return None
    return x if wx < wy else y


# --------------------------------------------------------------------
# programs
#
# A ground rule is (head, negated, weight, body) where head is the atom
# text as the solver prints it ("r(c0,c1)") and each body item is
# ("lit", atom, negated, naf) or ("const", interval).

_STATEMENT_END = re.compile(r"\.(?=\s|$)")
_RULE = re.compile(
    r"^(?:\w+\s*:\s*)?(-?)(\w+(?:\([^)]*\))?)\s*<-\s*"
    r"\[\s*([\d.]+)\s*,\s*([\d.]+)\s*\]\s*(?::(.*))?$", re.S)
_ITEM = re.compile(r"^(not\s+)?(-?)(\w+(?:\([^)]*\))?)$")
_CONST = re.compile(r"^\[\s*([\d.]+)\s*,\s*([\d.]+)\s*\]$")


def _split_items(text):
    items, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(text[start:pos].strip())
            start = pos + 1
    items.append(text[start:].strip())
    return items


def _atom_parts(atom):
    name, _, rest = atom.partition("(")
    if not rest:
        return name, ()
    return name, tuple(a.strip() for a in rest.rstrip(")").split(","))


def _atom_text(name, args):
    return f"{name}({','.join(args)})" if args else name


def parse(text):
    """Rules of a program text, grounded over its constants."""
    text = re.sub(r"%[^\n]*", "", text)
    rules = []
    for stmt in _STATEMENT_END.split(text):
        stmt = stmt.strip()
        if not stmt:
            continue
        m = _RULE.match(stmt)
        if not m:
            raise ValueError(f"cannot read rule: {stmt!r}")
        neg, head, lo, hi, body_text = m.groups()
        body = []
        for item in _split_items(body_text or "[1,1]"):
            c = _CONST.match(item)
            if c:
                body.append(("const", (float(c[1]), float(c[2]))))
                continue
            i = _ITEM.match(item)
            if not i:
                raise ValueError(f"cannot read body item: {item!r}")
            body.append(("lit", i[3], i[2] == "-", bool(i[1])))
        rules.append((head, neg == "-", (float(lo), float(hi)), body))
    return _ground(rules)


def _ground(rules):
    def atoms(rule):
        yield rule[0]
        for item in rule[3]:
            if item[0] == "lit":
                yield item[1]

    def is_var(term):
        return term[:1].isupper()

    constants = sorted({t for r in rules for a in atoms(r)
                        for t in _atom_parts(a)[1] if not is_var(t)})
    ground = []
    for rule in rules:
        variables = sorted({t for a in atoms(rule)
                            for t in _atom_parts(a)[1] if is_var(t)})
        for combo in itertools.product(constants, repeat=len(variables)):
            binding = dict(zip(variables, combo))

            def bind(atom):
                name, args = _atom_parts(atom)
                return _atom_text(name, [binding.get(t, t) for t in args])

            head, neg, weight, body = rule
            ground.append((bind(head), neg, weight,
                           [("lit", bind(i[1]), i[2], i[3])
                            if i[0] == "lit" else i for i in body]))
    return ground


def atom_base(rules):
    base = set()
    for head, _, _, body in rules:
        base.add(head)
        base.update(i[1] for i in body if i[0] == "lit")
    return base


# --------------------------------------------------------------------
# valuation


def values_of(answer_set):
    """Split a solver answer set (Literal -> Interval) into positive and
    negative atom values keyed by atom text."""
    pos, neg = {}, {}
    for lit, v in answer_set.items():
        (neg if lit.negated else pos)[str(lit.atom)] = (v.lower, v.upper)
    return pos, neg


def _rule_value(rule, pos, neg):
    value = rule[2]
    for item in rule[3]:
        if item[0] == "const":
            v = item[1]
        else:
            _, atom, negated, is_naf = item
            v = (neg if negated else pos)[atom]
            if is_naf:
                v = naf(v)
        value = tnorm(value, v)
    return value


def required_values(rules, pos, neg, tol):
    """The value each atom's rules give it under (pos, neg): the join of
    its positive rules, the mirror of the join of its negative rules,
    their certainty aggregate when both exist, [0,1] when neither does,
    and None when the aggregate is undefined."""
    joins = {}
    for rule in rules:
        key = (rule[0], rule[1])
        v = _rule_value(rule, pos, neg)
        joins[key] = tconorm(joins[key], v) if key in joins else v
    required = {}
    for atom in atom_base(rules):
        p, n = joins.get((atom, False)), joins.get((atom, True))
        if p is not None and n is not None:
            required[atom] = kagg(p, negate(n), tol)
        elif p is not None:
            required[atom] = p
        elif n is not None:
            required[atom] = negate(n)
        else:
            required[atom] = FULL
    return required


def check_supported(rules, answer_set, tol):
    """Every atom of the ground program carries the value its rules give
    it, within tol, and its classical negation mirrors it."""
    pos, neg = values_of(answer_set)
    base = atom_base(rules)
    missing = sorted(base - set(pos)) + sorted(base - set(neg))
    if missing:
        raise CheckFailed(f"answer set leaves {missing[0]} unvalued")
    required = required_values(rules, pos, neg, tol)
    for atom in sorted(base):
        if required[atom] is None:
            raise CheckFailed(f"{atom}: evidence of equal certainty clashes")
        if not close(pos[atom], required[atom], tol):
            raise CheckFailed(f"{atom} = {pos[atom]}, its rules give "
                              f"{required[atom]}")
        if not close(neg[atom], negate(pos[atom]), tol):
            raise CheckFailed(f"-{atom} = {neg[atom]} does not mirror "
                              f"{atom} = {pos[atom]}")


def expect(pos, atom, want, tol):
    got = pos.get(atom)
    if got is None or not close(got, want, tol):
        raise CheckFailed(f"{atom} = {got}, expected {want}")
