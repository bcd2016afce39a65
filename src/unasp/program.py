"""Rule language: AST, parser, pretty-printer, and grounder.

Concrete syntax (Prolog-flavored)::

    % a comment
    r1: fly(X) <- [0.7,1] : bird(X), not penguin(X).
    f1: bird(tweety).
    c1: -works <- [1,1] : broken.

`-p` is classical negation, `not p` is negation as failure, `[x,y]`
literals may appear as body items, terms, weights.  Variables start
uppercase, constants lowercase.  A missing body desugars to `[1,1]`,
and a fact `h.` abbreviates `h <- [1,1] : [1,1].`

`parse_program` reads a text whose atoms have no arguments with one
regex match per rule (`_read_rules`).  Any other text, malformed text
included, goes to the token parser, the only source of ParseError: it
scans the text with one regex pass into a list of token strings, and
recomputes a ParseError's line and column only when one is raised.
Each distinct atom and literal is built once per parse, so equal atoms
of one program are one object, and so are equal literals.

`Atom` and `Literal`, the keys of every interpretation, are named
tuples, so hashing and equality run in C; they keep dataclass-style
field names, `str` and `repr`, and an `Atom` never equals a `Literal`
(their first fields differ in type); `Atom`'s `__new__`, which a
`typing.NamedTuple` may not define, refuses the name `not`.  The other
AST types are `intervals.Frozen` values, whose equality compares the
type too.  `ground` refuses, before expanding anything, a program that
would ground to more than `MAX_GROUND_RULES` rules.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import namedtuple
from collections.abc import KeysView
from typing import NamedTuple

from .intervals import INCONSISTENT, TRUE, Frozen, Interval, _set

# the most rules `ground` instantiates; tc-10, the largest generated
# workload, grounds 1,000 instances of its recursive rule
MAX_GROUND_RULES = 100_000


def is_variable(term) -> bool:
    return isinstance(term, str) and term[:1].isupper()


class Atom(namedtuple("Atom", ("predicate", "args"), defaults=((),))):
    __slots__ = ()

    def __new__(cls, predicate: str, args: tuple = ()):
        if predicate == "not":
            raise ValueError("'not' cannot name a predicate")
        return tuple.__new__(cls, (predicate, args))

    def __str__(self):
        if not self.args:
            return self.predicate
        return "%s(%s)" % (self.predicate, ",".join(
            _fmt_interval(a) if isinstance(a, Interval) else a
            for a in self.args))


class Literal(NamedTuple):
    atom: Atom
    negated: bool = False

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.negated)

    def __str__(self):
        return ("-" if self.negated else "") + str(self.atom)


class LitItem(Frozen):
    __slots__ = ("literal", "naf")

    def __init__(self, literal: Literal, naf: bool = False):
        _set(self, "literal", literal)
        _set(self, "naf", naf)

    def __str__(self):
        return ("not " if self.naf else "") + str(self.literal)


class ConstItem(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: Interval):
        _set(self, "value", value)

    def __str__(self):
        return _fmt_interval(self.value)


class Rule(Frozen):
    __slots__ = ("head", "weight", "body", "label")

    def __init__(self, head: Literal, weight: Interval, body=(), label=""):
        _set(self, "head", head)
        _set(self, "weight", weight)
        _set(self, "body", body)
        _set(self, "label", label)

    @property
    def atoms(self) -> list:
        """The head atom, then the atoms of the literal body items in
        body order."""
        return [self.head.atom] + [b.literal.atom for b in self.body
                                   if isinstance(b, LitItem)]

    def __str__(self):
        parts = ", ".join(str(b) for b in self.body)
        text = "%s <- %s : %s." % (self.head, _fmt_interval(self.weight), parts)
        if self.label and "#" not in self.label:
            # synthetic r#k labels are not part of the surface syntax
            text = "%s: %s" % (self.label, text)
        return text


class Program:
    """A list of rules.  `rules` is not changed after construction: the
    atom base is computed from it once, when first read."""

    def __init__(self, rules: list = None):
        self.rules = [] if rules is None else rules

    @functools.cached_property
    def atom_base(self) -> KeysView:
        """All grounded atoms mentioned anywhere in the (ground) program,
        computed once per program: a set-like view, in order of first
        mention, so that what iterates it does not depend on the hash
        seed."""
        return dict.fromkeys(a for r in self.rules for a in r.atoms).keys()

    def rules_for(self, lit: Literal) -> list:
        return [r for r in self.rules if r.head == lit]

    def __str__(self):
        return "\n".join(str(r) for r in self.rules)


def _fmt_number(x: float) -> str:
    text = f"{x:.9f}".rstrip("0").rstrip(".")
    return text if text else "0"


def _fmt_interval(iv: Interval) -> str:
    """[lower,upper], or INCONSISTENT, which a constant item or a weight
    may hold, as `--dump-transformed` prints its constant."""
    if iv is INCONSISTENT:
        return str(iv)
    return "[%s,%s]" % (_fmt_number(iv.lower), _fmt_number(iv.upper))


class GroundingCapExceeded(Exception):
    """The program would ground to more than MAX_GROUND_RULES rules."""


class ParseError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# a number and a name, one spelling each for the scanner and the reader
_NUMBER = r"[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
_NAME = r"[a-zA-Z_][a-zA-Z0-9_]*"
_COMMENT = r"%[^\n]*"
# the token alternatives in priority order: number, ident, arrow, punctuation
_TOKEN = r"%s|%s|<-|[\[\](),.:-]" % (_NUMBER, _NAME)
# comments leave group 1 empty and whitespace is skipped; a character that
# starts no token becomes a one-character token, held in group 2 as well
_SCAN_RE = re.compile(r"%s|(%s|(\S))" % (_COMMENT, _TOKEN))
_COMMENT_RE = re.compile(_COMMENT)
# the rule reader's: a body item, and a rule whose atoms have no arguments,
# in groups its label, head, weight and body, the body up to the first "."
# not followed by a digit, as a number's "." is.  Every optional part
# starts with a character that is not whitespace, and the body right after
# its ":", so no two runs can split one stretch of whitespace between them,
# and a failed match backtracks in linear time.
_ITEM_RE = re.compile(
    r"\s*(?:(?:(not)\s+)?(?:(-)\s*)?(%s)|\[\s*(%s)\s*,\s*(%s)\s*\])\s*"
    % (_NAME, _NUMBER, _NUMBER))
_RULE_RE = re.compile(
    r"\s*(?:(%s)\s*:\s*)?((?:-\s*)?%s)\s*(?:<-\s*(\[[^\]]*\])\s*"
    r"(?::([^.]+(?:\.[0-9][^.]*)*))?)?\.\s*" % (_NAME, _NAME))
_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_TRUE_BODY = (ConstItem(TRUE),)


class _Parser:
    """Recursive descent over the token strings of one text.  The end of
    input is the sentinel token "", which matches no expectation."""

    def __init__(self, text):
        self.text = text
        self.tokens = []
        for tok, junk in _SCAN_RE.findall(text):
            if junk:
                raise ParseError(f"unexpected character {junk!r}",
                                 *self._where(len(self.tokens)))
            if tok:
                self.tokens.append(tok)
        self.tokens.append("")
        self.pos = 0
        self.arities = {}  # predicate -> arity of its first use
        self.atoms = {}  # (predicate, args) -> the one Atom of this parse
        self.literals = {}  # (predicate, args, negated) -> the one Literal

    def _where(self, k):
        """The line and column of token k, found by scanning again."""
        found = (m for m in _SCAN_RE.finditer(self.text) if m.group(1))
        start = next(itertools.islice(found, k, None)).start()
        return (self.text.count("\n", 0, start) + 1,
                start - self.text.rfind("\n", 0, start))

    def _expected(self, want):
        k = self.pos
        if self.tokens[k]:
            raise ParseError(f"expected {want!r}, found {self.tokens[k]!r}",
                             *self._where(k))
        line, column = self._where(k - 1)
        raise ParseError(f"expected {want!r} (at end of input)",
                         line, column + len(self.tokens[k - 1]))

    def _expect(self, text, kind=None):
        if self.tokens[self.pos] != text:
            self._expected(kind or text)
        self.pos += 1

    def _ident(self):
        tok = self.tokens[self.pos]
        if tok[:1] not in _IDENT_START:
            self._expected("ident")
        self.pos += 1
        return tok

    def parse_program(self):
        rules = []
        counter = itertools.count(1)
        while self.tokens[self.pos]:
            rules.append(self.parse_rule(counter))
        return Program(rules)

    def parse_rule(self, counter):
        tokens = self.tokens
        tok = tokens[self.pos]
        label = ""
        if tokens[self.pos + 1] == ":" and tok[:1] in _IDENT_START:
            label = tok
            self.pos += 2
        head = self.parse_literal()
        # a missing body is [1,1], and the fact h. is h <- [1,1] : [1,1].
        weight = TRUE
        body = _TRUE_BODY
        if tokens[self.pos] != ".":
            self._expect("<-", "arrow")
            weight = self.parse_interval("rule weight")
            if tokens[self.pos] == ":":
                self.pos += 1
                items = [self.parse_body_item()]
                while tokens[self.pos] == ",":
                    self.pos += 1
                    items.append(self.parse_body_item())
                body = tuple(items)
        self._expect(".")
        return Rule(head, weight, body, label or f"r#{next(counter)}")

    def parse_body_item(self):
        tok = self.tokens[self.pos]
        if tok == "[":
            return ConstItem(self.parse_interval("body constant"))
        if tok == "not":
            self.pos += 1
            return LitItem(self.parse_literal(), naf=True)
        return LitItem(self.parse_literal())

    def parse_literal(self):
        tokens = self.tokens
        negated = tokens[self.pos] == "-"
        if negated:
            self.pos += 1
        name_at = self.pos
        name = self._ident()
        if name == "not":
            raise ParseError("'not' cannot name a predicate",
                             *self._where(name_at))
        args = ()
        if tokens[self.pos] == "(":
            self.pos += 1
            parts = [self.parse_term()]
            while tokens[self.pos] == ",":
                self.pos += 1
                parts.append(self.parse_term())
            self._expect(")")
            args = tuple(parts)
        lit = self.literals.get((name, args, negated))
        if lit is None:
            atom = self.atoms.get((name, args))
            if atom is None:
                seen = self.arities.setdefault(name, len(args))
                if seen != len(args):
                    raise ParseError(f"predicate {name!r} used with arity "
                                     f"{len(args)} and {seen}",
                                     *self._where(name_at))
                atom = self.atoms[name, args] = Atom(name, args)
            lit = self.literals[name, args, negated] = Literal(atom, negated)
        return lit

    def parse_term(self):
        if self.tokens[self.pos] == "[":
            return self.parse_interval("interval term")
        return self._ident()

    def parse_interval(self, what):
        open_at = self.pos
        self._expect("[")
        lo = self.parse_number()
        self._expect(",")
        hi = self.parse_number()
        self._expect("]")
        try:
            return Interval(lo, hi)
        except ValueError as exc:
            raise ParseError(f"bad {what}: {exc}",
                             *self._where(open_at)) from None

    def parse_number(self):
        tok = self.tokens[self.pos]
        if not "0" <= tok[:1] <= "9":  # "" at the end of input
            self._expected("number")
        value = float(tok)
        if value < 0.0 or value > 1.0:
            raise ParseError("number outside [0,1]", *self._where(self.pos))
        self.pos += 1
        return value


def _read_rules(text: str):
    """The program of a text whose atoms have no arguments, read with one
    `_RULE_RE` match per rule and one split of its body at the commas,
    or None for any other text: an atom with arguments, a predicate
    named `not`, a number outside [0,1], bounds out of order, or text
    that is not rule after rule to its end.  It builds what `_Parser`
    builds, one Atom per name and one Literal per signed name; an item
    written twice the same way, whitespace around it aside, is checked
    and read (`_ITEM_RE`) once, and shared, as it is immutable."""
    if "%" in text:  # the language has no strings: % always starts a comment
        text = _COMMENT_RE.sub("", text)
    atoms, literals, items = {}, {}, {}

    def item(part):
        """The item that `part`, a stripped head, weight or body item,
        spells."""
        if part not in items:
            m = _ITEM_RE.fullmatch(part)
            if m is None:
                raise ValueError(part)
            naf, sign, name, lo, hi = m.groups()
            if name:
                lit = literals.get((name, sign))
                if lit is None:
                    atom = atoms[name] = atoms.get(name) or Atom(name)
                    lit = literals[name, sign] = Literal(atom, bool(sign))
                items[part] = LitItem(lit, bool(naf))
            else:
                x, y = float(lo), float(hi)
                if not 0.0 <= x <= y <= 1.0:  # a bound _Parser reports
                    raise ValueError(part)
                items[part] = ConstItem(Interval(x, y))
        return items[part]

    rules, pos, counter = [], 0, itertools.count(1)
    try:
        while pos < len(text):
            m = _RULE_RE.match(text, pos)
            if m is None:
                return None
            pos = m.end()
            label, head, weight, body = m.groups()
            if body:
                pieces, body = iter(body.split(",")), []
                for piece in pieces:
                    if "[" in piece:  # a constant, which holds a comma
                        piece += "," + next(pieces, "")
                    body.append(item(piece.strip()))
            rules.append(Rule(item(head).literal,
                              item(weight).value if weight else TRUE,
                              tuple(body) if body else _TRUE_BODY,
                              label or f"r#{next(counter)}"))
    except ValueError:  # not a body item, `not` as a name, a bad bound
        return None
    return Program(rules)


def parse_program(text: str) -> Program:
    """Parse source text; raises ParseError with line/column on bad input.
    `_read_rules` reads what it can, `_Parser` the rest."""
    program = _read_rules(text)
    return _Parser(text).parse_program() if program is None else program


def _rule_variables(rule: Rule) -> list:
    return list(dict.fromkeys(t for a in rule.atoms for t in a.args
                              if is_variable(t)))


def _program_constants(program: Program) -> list:
    return list(dict.fromkeys(t for r in program.rules for a in r.atoms
                              for t in a.args if not is_variable(t)))


def _substitute_atom(atom: Atom, binding: dict) -> Atom:
    return Atom(atom.predicate,
                tuple(binding.get(t, t) if is_variable(t) else t
                      for t in atom.args))


def ground(program: Program) -> Program:
    """The program itself when it has no variable, else naive full
    instantiation over its constants.  Raises GroundingCapExceeded, naming
    the rule that passes MAX_GROUND_RULES, before any rule is expanded."""
    if len(program.rules) <= MAX_GROUND_RULES and not any(
            is_variable(t) for a in program.atom_base for t in a.args):
        return program
    constants = _program_constants(program)
    rule_variables = [_rule_variables(r) for r in program.rules]
    total = 0
    for r, variables in zip(program.rules, rule_variables):
        total += len(constants) ** len(variables)
        if total > MAX_GROUND_RULES:
            raise GroundingCapExceeded(
                f"rule {r.label or r}: {len(constants)} constants over "
                f"{len(variables)} variables take the program past "
                f"{MAX_GROUND_RULES} ground rules")
    rules = []
    for r, variables in zip(program.rules, rule_variables):
        if not variables:
            rules.append(r)
            continue
        if not constants:
            raise ValueError(
                f"rule {r.label or r}: has variables but the program "
                "has no constants")
        for combo in itertools.product(constants, repeat=len(variables)):
            binding = dict(zip(variables, combo))
            head = Literal(_substitute_atom(r.head.atom, binding),
                           r.head.negated)
            body = tuple(
                LitItem(Literal(_substitute_atom(b.literal.atom, binding),
                                b.literal.negated), b.naf)
                if isinstance(b, LitItem) else b
                for b in r.body)
            rules.append(Rule(head, r.weight, body, r.label))
    return Program(rules)
