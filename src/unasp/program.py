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
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .intervals import TRUE, Interval

Term = str | Interval  # a constant or variable name, or an interval


def is_variable(term) -> bool:
    return isinstance(term, str) and term[:1].isupper()


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple = ()

    def is_ground(self) -> bool:
        return not any(is_variable(t) for t in self.args)

    def __str__(self):
        if not self.args:
            return self.predicate
        return "%s(%s)" % (self.predicate, ",".join(
            _fmt_interval(a) if isinstance(a, Interval) else a
            for a in self.args))


@dataclass(frozen=True)
class Literal:
    atom: Atom
    negated: bool = False

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.negated)

    def __str__(self):
        return ("-" if self.negated else "") + str(self.atom)


@dataclass(frozen=True)
class LitItem:
    literal: Literal
    naf: bool = False

    def __str__(self):
        return ("not " if self.naf else "") + str(self.literal)


@dataclass(frozen=True)
class ConstItem:
    value: Interval

    def __str__(self):
        return _fmt_interval(self.value)


BodyItem = LitItem | ConstItem


@dataclass(frozen=True)
class Rule:
    head: Literal
    weight: Interval
    body: tuple = ()
    label: str = ""

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


@dataclass
class Program:
    rules: list = field(default_factory=list)

    @property
    def atom_base(self) -> set:
        """All grounded atoms mentioned anywhere in the (ground) program."""
        return {a for r in self.rules for a in r.atoms}

    @property
    def lit_set(self) -> set:
        lits = set()
        for a in self.atom_base:
            lits.add(Literal(a, False))
            lits.add(Literal(a, True))
        return lits

    def rules_for(self, lit: Literal) -> list:
        return [r for r in self.rules if r.head == lit]

    def headless_atoms(self) -> set:
        headed = {r.head.atom for r in self.rules}
        return self.atom_base - headed

    def __str__(self):
        return "\n".join(str(r) for r in self.rules)


def _fmt_number(x: float) -> str:
    text = f"{x:.9f}".rstrip("0").rstrip(".")
    return text if text else "0"


def _fmt_interval(iv: Interval) -> str:
    return "[%s,%s]" % (_fmt_number(iv.lower), _fmt_number(iv.upper))


class ParseError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<arrow><-)
  | (?P<punct>[\[\](),.:-])
    """,
    re.VERBOSE,
)


@dataclass(slots=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text):
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - line_start + 1)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rfind("\n") + 1
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.arities = {}  # predicate -> arity of its first use

    def _peek(self, offset=0):
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def _error(self, message):
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = last.column + len(last.text) if last else 1
            raise ParseError(message + " (at end of input)", line, col)
        raise ParseError(f"{message}, found {tok.text!r}", tok.line, tok.column)

    def _take(self, kind=None, text=None):
        tok = self._peek()
        if tok is None or (kind and tok.kind != kind) or (text and tok.text != text):
            want = text or kind
            self._error(f"expected {want!r}")
        self.pos += 1
        return tok

    def _at(self, text):
        tok = self._peek()
        return tok is not None and tok.text == text

    def parse_program(self):
        rules = []
        counter = itertools.count(1)
        while self._peek() is not None:
            rules.append(self.parse_rule(counter))
        return Program(rules)

    def parse_rule(self, counter):
        label = ""
        tok = self._peek()
        nxt = self._peek(1)
        if (tok and tok.kind == "ident" and nxt and nxt.text == ":"):
            label = self._take("ident").text
            self._take(text=":")
        head = self.parse_literal()
        # a missing body is [1,1], and the fact h. is h <- [1,1] : [1,1].
        weight = TRUE
        body = [ConstItem(TRUE)]
        if not self._at("."):
            self._take("arrow")
            weight_tok = self._peek()
            weight = self.parse_interval("rule weight")
            if weight.upper > 1.0 or weight.lower < 0.0:
                raise ParseError("weight outside [0,1]",
                                 weight_tok.line, weight_tok.column)
            if self._at(":"):
                self._take(text=":")
                body = [self.parse_body_item()]
                while self._at(","):
                    self._take(text=",")
                    body.append(self.parse_body_item())
        self._take(text=".")
        if not label:
            label = f"r#{next(counter)}"
        return Rule(head, weight, tuple(body), label)

    def parse_body_item(self):
        if self._at("["):
            return ConstItem(self.parse_interval("body constant"))
        tok = self._peek()
        if tok and tok.kind == "ident" and tok.text == "not":
            self._take()
            return LitItem(self.parse_literal(), naf=True)
        return LitItem(self.parse_literal())

    def parse_literal(self):
        negated = False
        if self._at("-"):
            self._take(text="-")
            negated = True
        name_tok = self._take("ident")
        name = name_tok.text
        args = ()
        if self._at("("):
            self._take(text="(")
            parts = [self.parse_term()]
            while self._at(","):
                self._take(text=",")
                parts.append(self.parse_term())
            self._take(text=")")
            args = tuple(parts)
        seen = self.arities.setdefault(name, len(args))
        if seen != len(args):
            raise ParseError(f"predicate {name!r} used with arity {len(args)} "
                             f"and {seen}", name_tok.line, name_tok.column)
        return Literal(Atom(name, args), negated)

    def parse_term(self):
        if self._at("["):
            return self.parse_interval("interval term")
        return self._take("ident").text

    def parse_interval(self, what):
        open_tok = self._take(text="[")
        lo = self.parse_number()
        self._take(text=",")
        hi = self.parse_number()
        self._take(text="]")
        try:
            return Interval(lo, hi)
        except ValueError as exc:
            raise ParseError(f"bad {what}: {exc}",
                             open_tok.line, open_tok.column) from None

    def parse_number(self):
        tok = self._take("number")
        value = float(tok.text)
        if value < 0.0 or value > 1.0:
            raise ParseError("number outside [0,1]", tok.line, tok.column)
        return value


def parse_program(text: str) -> Program:
    """Parse source text; raises ParseError with line/column on bad input."""
    return _Parser(_tokenize(text)).parse_program()


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
    """Naive full instantiation over the program's constants."""
    constants = _program_constants(program)
    rules = []
    for r in program.rules:
        variables = _rule_variables(r)
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
