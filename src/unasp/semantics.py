"""Declarative semantics and the independent verifier.

Supportedness and the answer-set check: a supported model of the reduct
P^i, minimally certain among known candidates.  P^i is never built: it
is p with every `not` item read in i, so it keeps p's atoms and their
closed world, [0,1] for an atom that heads no rule; a candidate is
checked against p itself.

A rival below the candidate i is checked against P^i only where it
differs from i and at the atoms that read one of those without `not`;
a rival over other literals than i's differs from it everywhere.  Every
other atom passes as it did for i: its rules, `not` read in i, give the
value they gave when i passed, at the same eps.  The candidate and its
rivals go through one loop (`_supported_at`), given every atom for the
candidate and those atoms for a rival.

An interpretation is a supported model when every atom equals the value
its rules force, read straight from its rules, one atom at a time, by
`forced_bounds`, which builds no body tree.  That completion rule is
written twice on purpose: `transform_program` builds it as folded
bodies for the solver, and `forced_bounds` applies the same operations
in the same order, so the verifier shares no valuation code with the
solver; property tests chain both, bit for bit, to the reference tree
`atom_body` of tests/conftest.py.  Every operator but `kagg` works on
each bound alone, so the verifier computes them itself on two floats,
and shares only `kagg` and `Interval`'s validation, which snaps a
t-conorm's float dust back, with the solver: it builds an Interval
only for `kagg`, or for a t-conorm to snap, and compares bounds.
`kagg` breaks ties at `EPS_CMP`, and a caller's eps only bounds how
far a value may sit from the forced one.

`solve` builds its candidates in one pass (`totals_from_positive`):
total interpretations over a and -a, which share one key pair per atom
and one mirror per value object, so the upstream values its branches
share are held once.  While it verifies them, it holds besides them only
the ground program and its diagnostics.

The grid oracle, which supplies the rivals of small programs, reads P^i
the same way at every atom, and tries every grid cell only for the cut
atoms, those whose rules read themselves or an atom placed after them
in the condensation's order; an acyclic reduct takes one pass instead
of the whole product of cells.
"""

from __future__ import annotations

import itertools

from .intervals import INCONSISTENT, EPS_CMP, Interval, kagg, negate
from .program import ConstItem, LitItem, Literal, Program
from .transform import rules_by_head
from .depgraph import condense

GRID_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)
# is_answer_set adds the grid's supported models as rivals up to here
GRID_MAX_ATOMS = 3
# Literal(atom, sign) without the named tuple's Python-level __new__
_new = tuple.__new__


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


def _joined(rules, i: dict, naf_i: dict):
    """The bounds (lower, upper) of the reference tree `join_rules`
    builds, with `not` read in naf_i, for one or more rules, or None if
    a literal read, a constant item or a weight is INCONSISTENT: each
    rule's items left to right by t-norm, then its weight, and the rules
    by t-conorm, each bound on its own, `not` of x as 1 - x's lower
    bound.  Products of bounds stay ordered within [0,1]; a t-conorm
    that leaves 0 <= lower <= upper <= 1 goes through `Interval`, which
    snaps float dust back as it does on the tree.  Starting the products
    at 1 and the join at 0 changes no bit.  An INCONSISTENT part
    absorbs, but the later items are still read, so an unbound one
    raises UnboundLiteral as on the tree."""
    jlo = jhi = 0.0
    consistent = True
    for r in rules:
        lo = hi = 1.0
        for b in r.body:
            if type(b) is ConstItem:
                x = b.value
            else:
                x = lookup(naf_i if b.naf else i, b.literal)
                if b.naf and x is not INCONSISTENT:
                    lo *= 1.0 - x.lower
                    hi *= 1.0 - x.lower
                    continue
            if x is INCONSISTENT:
                consistent = False
                continue
            lo *= x.lower
            hi *= x.upper
        w = r.weight
        consistent &= w is not INCONSISTENT
        if consistent:
            lo *= w.lower
            hi *= w.upper
            lo = jlo + lo - jlo * lo
            hi = jhi + hi - jhi * hi
            if not 0.0 <= lo <= hi <= 1.0:
                v = Interval(lo, hi)
                lo, hi = v.lower, v.upper
            jlo, jhi = lo, hi
    return (jlo, jhi) if consistent else None


def forced_bounds(group, i: dict, naf_i: dict):
    """The bounds (lower, upper) an atom's rules force under i, read
    straight from its rule group (pos, neg) of `transform.rules_by_head`
    with `not` read in naf_i, or None where they force INCONSISTENT:
    those of `atom_body(pos, neg)` under i when naf_i is i, of that
    atom's body in P^naf_i otherwise.  The same operations in the same
    order as on the tree: the negative side mirrored, as 1 - bound,
    aggregated with `kagg` on the two Intervals, [0,1] if the atom heads
    no rule."""
    pos, neg = group
    if not neg:
        return _joined(pos, i, naf_i) if pos else (0.0, 1.0)
    if not pos:
        right = _joined(neg, i, naf_i)
        return None if right is None else (1.0 - right[1], 1.0 - right[0])
    left = _joined(pos, i, naf_i)
    right = _joined(neg, i, naf_i)
    if left is None or right is None:
        return None
    v = kagg(Interval(*left), Interval(1.0 - right[1], 1.0 - right[0]))
    return None if v is INCONSISTENT else (v.lower, v.upper)


def _near(v, f, eps: float) -> bool:
    """The value v is within eps of the forced bounds f, None where the
    rules force INCONSISTENT."""
    return (f is not None and abs(v.lower - f[0]) <= eps
            and abs(v.upper - f[1]) <= eps)


def _atom_supported(c: dict, atom, group, naf_i: dict, eps: float) -> bool:
    """The atom carries exactly the bounds its rules force under c, `not`
    read in naf_i, and its complementary literal mirrors them; raises
    UnboundLiteral."""
    actual = lookup(c, _new(Literal, (atom, False)))
    if actual is INCONSISTENT \
            or not _near(actual, forced_bounds(group, c, naf_i), eps):
        return False
    actual_neg = lookup(c, _new(Literal, (atom, True)))
    return (actual_neg is not INCONSISTENT
            and abs(actual_neg.lower - (1.0 - actual.upper)) <= eps
            and abs(actual_neg.upper - (1.0 - actual.lower)) <= eps)


def _supported_at(c: dict, atoms, naf_i: dict, eps: float) -> bool:
    """c carries, at the atom of each (atom, rule group) pair of atoms,
    the bounds that atom's rules force, `not` read in naf_i, and its
    complementary literal mirrors them; False if a literal is unbound."""
    try:
        return all(_atom_supported(c, atom, group, naf_i, eps)
                   for atom, group in atoms)
    except UnboundLiteral:
        return False


def is_supported_model(i: dict, p: Program, eps: float = EPS_CMP) -> bool:
    """Every atom carries exactly the value its rules produce and the
    complementary literal mirrors it; False if a literal is unbound."""
    return _supported_at(i, rules_by_head(p).items(), i, eps)


def _readers(p: Program, read_naf: bool) -> dict:
    """Atom u -> the heads v of the rules that read it: the edges u->v
    `depgraph.atom_digraph` draws from the bodies of p when read_naf,
    of P^i otherwise, where a `not` item is a constant.  An atom that
    no rule reads has no entry."""
    g = {}
    for r in p.rules:
        for b in r.body:
            if isinstance(b, LitItem) and (read_naf or not b.naf):
                g.setdefault(b.literal.atom, []).append(r.head.atom)
    return g


def _rival_supported(c: dict, i: dict, groups: dict, readers: dict,
                     eps: float) -> bool:
    """c is a supported model of P^i at eps, P^i read in place: p's rule
    groups (`rules_by_head`) with `not` read in i, which must be a
    supported model of p at eps; readers is `_readers(p, False)`.

    c is checked at the atoms where it differs from i, under either
    sign, and at the atoms whose rules read one of those without `not`;
    every other atom gives the value it gave i, bit for bit (see the
    module docstring).  A rival over other literals is checked at every
    atom.  c holds no INCONSISTENT value, as no rival below i in
    certainty does."""
    atoms = groups.items()
    if c.keys() == i.keys():
        check = set()
        for lit, v in i.items():
            if (w := c[lit]) is not v \
                    and (w.lower != v.lower or w.upper != v.upper):
                check.add(lit.atom)
                check.update(readers.get(lit.atom, ()))
        atoms = ((a, group) for a, group in atoms if a in check)
    return _supported_at(c, atoms, i, eps)


def totals_from_positive(branches) -> list:
    """The strictly consistent total interpretation of each dict of atom
    values, a then -a for each atom in its order.  The totals share one
    key pair per atom and one mirror per value object."""
    pairs, mirrors, totals = {}, {}, []
    for positive in branches:
        total = {}
        for atom, v in positive.items():
            pair = pairs.get(atom)
            if pair is None:
                pair = pairs[atom] = (_new(Literal, (atom, False)),
                                      _new(Literal, (atom, True)))
            # every v stays alive in its total, so its id names it
            mirror = mirrors.get(id(v))
            if mirror is None:
                mirror = mirrors[id(v)] = negate(v)
            total[pair[0]] = v
            total[pair[1]] = mirror
        totals.append(total)
    return totals


def grid_intervals(points=GRID_POINTS):
    return [Interval(lo, hi)
            for lo, hi in itertools.combinations_with_replacement(points, 2)]


def enumerate_grid_supported(p: Program, points=GRID_POINTS,
                             eps: float = EPS_CMP, naf_i: dict = None):
    """All supported models of P^naf_i whose atom values have endpoints
    on the grid, keyed by positive literal (`lookup` mirrors the
    negative ones), in product order over the atoms sorted by name; with
    naf_i None, `not` is read in the cells themselves: p as it is.

    Cycle-cutset conditioning (Dechter 1990): the atoms are placed
    upstream first, component by component of the condensation of what
    each atom's rules read (`_readers`).  A cut atom, whose rules read
    itself or an atom placed after it, takes every cell; any other atom
    takes only the cells within eps of its `forced_bounds`, which read
    placed atoms alone and so are final.  Once all are placed, each cut
    atom is checked the same way.  So every atom passes the brute-force
    test (within eps of its forced bounds on the complete
    interpretation) and nothing else is pruned: the result is that of
    trying every cell for every atom, at the cost of the cut atoms'
    cells alone.  Exponential in the cut."""
    groups = rules_by_head(p)
    readers = _readers(p, read_naf=naf_i is None)
    components, topo = condense({a: readers.get(a, ()) for a in p.atom_base})
    order = [a for k in topo for a in components[k]]
    place = {a: n for n, a in enumerate(order)}
    lits = [Literal(a, False) for a in order]
    rules = [groups[a] for a in order]
    cut = [False] * len(order)
    for a, heads in readers.items():
        for h in heads:
            if place[a] >= place[h]:
                cut[place[h]] = True
    sorted_places = [place[a] for a in sorted(groups, key=str)]
    cells = grid_intervals(points)
    every_cell = list(enumerate(cells))
    chosen = [0] * len(order)
    i = {}
    naf_i = i if naf_i is None else naf_i
    found = []

    def extend(n):
        if n == len(order):
            if all(_near(i[lits[m]], forced_bounds(rules[m], i, naf_i), eps)
                   for m in range(n) if cut[m]):
                found.append([chosen[m] for m in sorted_places])
            return
        if cut[n]:
            options = every_cell
        else:
            f = forced_bounds(rules[n], i, naf_i)
            options = [] if f is None else [
                (k, c) for k, c in every_cell
                if abs(c.lower - f[0]) <= eps and abs(c.upper - f[1]) <= eps]
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
    enumeration.  Both read P^i in place, `not` in i: a candidate only
    where it differs from i (`_rival_supported`), the grid at every
    atom.  Grid models are supported models of P^i by construction, so
    only the candidates are re-checked: the grid keeps the cells within
    eps of the `forced_bounds` of each atom's rules, the test
    `is_supported_model` makes.
    """
    if not is_supported_model(i, p, eps):
        return False
    rivals = [c for c in candidates
              if c is not i and interp_kp_below(c, i, eps)]
    if rivals:
        groups = rules_by_head(p)
        readers = _readers(p, read_naf=False)
        if any(_rival_supported(c, i, groups, readers, eps) for c in rivals):
            return False
    if len(p.atom_base) > GRID_MAX_ATOMS:
        return True
    return not any(interp_kp_below(c, i, eps)
                   for c in enumerate_grid_supported(p, eps=eps, naf_i=i))


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
