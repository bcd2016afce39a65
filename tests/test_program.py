import pytest
from hypothesis import example, given, settings, strategies as st

from unasp import (Atom, ConstItem, GroundingCapExceeded, LitItem, Literal,
                   ParseError, Program, Rule, ground, parse_program, program)
from unasp.intervals import Interval
from unasp.mi import MiState
from unasp.nmi import ContractionReport, NmiConfig, NmiOutcome
from unasp.solver import ComponentPass, SolveReport, SolverConfig
from unasp.transform import And, Const, Kagg, Naf, Neg, Or, Ref

from conftest import TEN_VARIABLES


class TestParsing:
    def test_rule_with_variables_and_naf(self, tweety):
        r1 = tweety.rules[0]
        assert r1.label == "r1"
        assert r1.head == Literal(Atom("fly", ("X",)))
        assert r1.weight.same_as(Interval(0.7, 1.0))
        assert r1.body == (LitItem(Literal(Atom("bird", ("X",)))),
                           LitItem(Literal(Atom("penguin", ("X",))), naf=True))

    def test_fact_with_const_body(self):
        p = parse_program("f1: q <- [1,1] : [0.7,0.7].")
        (r,) = p.rules
        assert r.label == "f1"
        assert r.head == Literal(Atom("q"))
        assert r.body == (ConstItem(Interval(0.7, 0.7)),)

    def test_classical_negation_head_and_body(self):
        p = parse_program("-works <- [1,1] : broken, -fixed.")
        (r,) = p.rules
        assert r.head == Literal(Atom("works"), negated=True)
        assert r.body[1] == LitItem(Literal(Atom("fixed"), negated=True))

    def test_empty_body_desugars_to_true(self):
        p = parse_program("a <- [0.4,0.6].")
        assert p.rules[0].body == (ConstItem(Interval(1.0, 1.0)),)

    def test_fact_shorthand(self):
        short = parse_program("a.\nf1: -b(c).")
        long = parse_program("a <- [1,1] : [1,1].\n"
                             "f1: -b(c) <- [1,1] : [1,1].")
        assert short.rules == long.rules

    def test_comments_and_synthetic_labels(self):
        p = parse_program("% intro\na <- [1,1].  % trailing\nb <- [1,1].")
        assert [r.label for r in p.rules] == ["r#1", "r#2"]

    def test_weight_out_of_range(self):
        with pytest.raises(ParseError):
            parse_program("x <- [1,2] : y.")

    def test_interval_bounds_out_of_order(self):
        with pytest.raises(ParseError):
            parse_program("x <- [0.8,0.2] : y.")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("a <- [1,1] : b\nc <- [1,1].")
        # the missing '.' is detected at the start of line 2
        assert err.value.line == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_program("a <- [1,1] : b & c.")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_program("p(a) <- [1,1].\nq <- [1,1] : p.")

    def test_arity_mismatch_is_reported_where_it_occurs(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(a) <- [1,1].\n\nq <- [1,1] : p.")
        assert (err.value.line, err.value.column) == (3, 14)
        assert str(err.value) == "3:14: predicate 'p' used with arity 0 and 1"

    @pytest.mark.parametrize("text, message", [
        # the first of two different bad characters, after a comment line
        ("% a comment\na <- [1,1] : b & c $ d.",
         "2:16: unexpected character '&'"),
        ("a < b.", "1:3: unexpected character '<'"),
        ("a <- [1,1] : b", "1:15: expected '.' (at end of input)"),
        ("a <- [1,1] : b  % trailing\n\n",
         "1:15: expected '.' (at end of input)"),
        ("a [1,1].", "1:3: expected 'arrow', found '['"),
        ("a <- [1,1] : not .", "1:18: expected 'ident', found '.'"),
        ("a <- [x,1].", "1:7: expected 'number', found 'x'"),
        ("a <- [1,1] : b\nc.", "2:1: expected '.', found 'c'"),
        ("a <- [0.5,1.5].", "1:11: number outside [0,1]"),
        # a number in exponent notation is one token
        ("a <- [6.36e-05,1e1].", "1:16: number outside [0,1]"),
        ("a <- [0.9,0.2].", "1:6: bad rule weight: "
         "interval bounds out of order: [0.9, 0.2]"),
        ("a <- [1,1] : [0.9,0.2].", "1:14: bad body constant: "
         "interval bounds out of order: [0.9, 0.2]"),
        ("p([0.9,0.2]).", "1:3: bad interval term: "
         "interval bounds out of order: [0.9, 0.2]"),
        ("p(a).\n  q <- [1,1] : p.",
         "2:16: predicate 'p' used with arity 0 and 1"),
        # numbers are written in ASCII digits
        ("a <- [1,1] : [٠,١].", "1:15: unexpected character '٠'"),
    ])
    def test_error_message_line_and_column(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value) == message
        line, column, _ = message.split(":", 2)
        assert (err.value.line, err.value.column) == (int(line), int(column))

    def test_examples_parse(self, ex1, ex2, ex3, ex4, ex5, ex6, ex7, ex8):
        for p, n in ((ex1, 2), (ex2, 5), (ex3, 1), (ex4, 2), (ex5, 2),
                     (ex6, 30), (ex7, 8), (ex8, 4)):
            assert len(p.rules) == n


@st.composite
def _number_text(draw):
    """A number in [0,1] with up to 9 decimals, as source text."""
    decimals = draw(st.integers(0, 9))
    value = draw(st.integers(0, 10 ** decimals)) / 10 ** decimals
    return f"{value:.{decimals}f}"


@st.composite
def _interval_text(draw):
    lo, hi = sorted((draw(_number_text()), draw(_number_text())), key=float)
    return f"[{lo},{hi}]"


# predicate -> arity; a predicate keeps one arity across a program
_ARITIES = {"p": 0, "q": 1, "r": 2}


@st.composite
def _literal_text(draw):
    name = draw(st.sampled_from(sorted(_ARITIES)))
    args = [draw(st.one_of(st.sampled_from(["a", "b", "X"]), _interval_text()))
            for _ in range(_ARITIES[name])]
    atom = f"{name}({','.join(args)})" if args else name
    return draw(st.sampled_from(["", "-"])) + atom


@st.composite
def _rule_text(draw):
    label = draw(st.sampled_from(["", "l1: ", "l2: "]))
    head = draw(_literal_text())
    if draw(st.booleans()):
        return f"{label}{head}."
    item = st.one_of(_interval_text(), _literal_text(),
                     _literal_text().map("not {}".format))
    body = draw(st.lists(item, max_size=3))
    tail = " : " + ", ".join(body) if body else ""
    return f"{label}{head} <- {draw(_interval_text())}{tail}."


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "ex5",
                                      "ex6", "ex7", "ex8", "tweety"])
    def test_print_parse_fixed_point(self, name, request):
        p = request.getfixturevalue(name)
        once = parse_program(str(p))
        assert str(once) == str(p)
        assert once.rules == parse_program(str(once)).rules

    @settings(max_examples=300, deadline=None)
    @given(text=st.lists(_rule_text(), min_size=1, max_size=6).map("\n".join))
    @example(text="p <- [1,1] : q([0.00001,0.5]).")
    @example(text="q([0.1234567,0.5]).")
    def test_printed_program_parses_back(self, text):
        p = parse_program(text)
        assert parse_program(str(p)).rules == p.rules


# the language's tokens, near misses, junk and non-ASCII characters
# (٣ is a decimal digit but not ASCII; it, é and 中 start no token)
_PIECES = ["a", "p", "q(a)", "X", "not", "l1", "0", "1", "0.5", "12", "<-",
           "<", "-", "[", "]", "(", ")", ",", ".", ":", " ", "\n", "\t", "%",
           "% c\n", "$", "&", "é", "٣", "中"]


class TestScanner:
    @settings(max_examples=500, deadline=None)
    @given(text=st.lists(st.sampled_from(_PIECES), max_size=30).map("".join)
           | st.text(max_size=30))
    def test_any_text_gives_program_or_parse_error(self, text):
        try:
            assert isinstance(parse_program(text), Program)
        except ParseError as err:
            assert err.line >= 1 and err.column >= 1

    def test_long_comment(self):
        assert parse_program("%" * 10 ** 5).rules == []

    def test_long_whitespace_then_bad_character(self):
        with pytest.raises(ParseError) as err:
            parse_program(" " * 10 ** 5 + "$")
        assert (err.value.line, err.value.column) == (1, 100001)

    @pytest.mark.parametrize("text, line, column", [
        ("a.\t$", 1, 4),
        ("a.\r\n$", 2, 1),
        ("a.\x0b$", 1, 4),
        ("a.\x0c$", 1, 4),
        ("a.\xa0$", 1, 4),
        ("a.\u2028$", 1, 4),
        ("a.\r\n\tb.\x0c\u2028 $", 2, 7),
        ("a. % c\r\n\x0b$", 2, 2),
    ])
    def test_bad_character_after_each_kind_of_whitespace(self, text, line,
                                                         column):
        """Whitespace is skipped, not matched; only \\n starts a line."""
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value).endswith("unexpected character '$'")

    def test_many_distinct_bad_characters(self):
        # the first of 20,000 different bad characters is found in one pass
        with pytest.raises(ParseError) as err:
            parse_program("".join(chr(0x4E00 + k) for k in range(20000)))
        assert str(err.value) == "1:1: unexpected character '一'"


# every kind of whitespace the scanner skips, and a comment
_SPACES = ["", "", " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c",
           "\xa0", "\u2028", " % c\n"]


@st.composite
def _plain_program_text(draw):
    """A program whose atoms have no arguments, in the spellings the rule
    reader takes: labels (`not:` too), facts, rules without a body,
    signs, `not`, exponent numbers, whitespace of every kind and
    comments; now and then a number past 1, bounds out of order or a
    predicate named `not`, which it leaves to the token parser."""
    def space():
        return draw(st.sampled_from(_SPACES))

    def number():
        return draw(_number_text() | st.sampled_from(
            ["1e0", "5e-1", "1E-2", "6.36e-05", "0.5e+0", "00.5", "1e-400"]))

    def interval():
        lo, hi = sorted((number(), number()), key=float)
        if draw(st.integers(0, 9)) == 0:
            lo, hi = draw(st.sampled_from([(hi, lo), (lo, "1.5"),
                                           ("1e1", hi)]))
        return f"[{space()}{lo}{space()},{space()}{hi}{space()}]"

    def literal():
        sign = draw(st.sampled_from(["", "", "-", "- "]))
        return sign + draw(st.sampled_from(["p", "q", "notp", "_r1", "p",
                                            "q", "not"]))

    rules = []
    for _ in range(draw(st.integers(0, 5))):
        label = draw(st.sampled_from(["", "", "l1:", "not: ", "l2 :"]))
        rule = f"{label}{space()}{literal()}{space()}"
        if draw(st.booleans()):
            rule += f"<-{space()}{interval()}{space()}"
            items = [draw(st.sampled_from(["", "", "not ", "not\t\n"]))
                     + literal() if draw(st.booleans()) else interval()
                     for _ in range(draw(st.integers(0, 3)))]
            if items:
                rule += ":" + space() + f"{space()},{space()}".join(items)
        rules.append(rule + space() + ".")
    return space() + space().join(rules) + space()


def _near_miss(text, data):
    """text with a piece of _PIECES put in, or a character taken out."""
    k = data.draw(st.integers(0, len(text)))
    if data.draw(st.booleans()):
        return text[:k] + data.draw(st.sampled_from(_PIECES)) + text[k:]
    return text[:k] + text[k + 1:]


def _token_parse(text):
    return program._Parser(text).parse_program()


def _one_object_each(values) -> bool:
    """Equal values are one object."""
    return all((a == b) == (a is b) for a in values for b in values)


def _literals(rules) -> list:
    return [lit for r in rules for lit in [r.head] + [
        b.literal for b in r.body if isinstance(b, LitItem)]]


def _outcome(parse, text):
    """The rules' reprs and whether equal atoms are one object, and equal
    literals, or the ParseError's message, line and column."""
    try:
        rules = parse(text).rules
    except ParseError as err:
        return str(err), err.line, err.column
    return ([repr(r) for r in rules],
            _one_object_each([a for r in rules for a in r.atoms]),
            _one_object_each(_literals(rules)))


class TestRuleReader:
    """parse_program reads rules without arguments with one regex match
    each and hands every other text to the token parser: the two give
    the same program, or the same error."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_program_or_error_as_the_token_parser(self, data):
        text = data.draw(_plain_program_text()
                         | st.lists(st.sampled_from(_PIECES),
                                    max_size=30).map("".join))
        for text in (text, _near_miss(text, data)):
            assert _outcome(parse_program, text) == _outcome(
                _token_parse, text)

    @pytest.mark.parametrize("text, taken", [
        ("a <- [1,1] : b,.", False), ("a <- [1,1] :.", False),
        ("a <- [1,1] : not-b.", False), ("p(a).", False), ("not.", False),
        ("a <- [0.5,1.5].", False), ("a <- [0.9,0.2].", False),
        ("a <- [0.5,1.0000000000001].", False),
        ("not: a.\nb <- [0.5,1] : not  -a, [1e-3, 1].", True),
        ("- a. % c", True), ("", True),
        # float() alone would refuse the \x1c and \x1f around a number
        ("a <- [\x1c0.5\x1f,1] : [ 1e-3\xa0, 1 ].", True)])
    def test_what_the_reader_takes(self, text, taken):
        assert (program._read_rules(text) is not None) == taken
        assert _outcome(parse_program, text) == _outcome(_token_parse, text)

    def test_equal_texts_share_their_values(self):
        p = parse_program("a <- [0.5,1] : b, [0.5,1].\n"
                          "b <- [0.5,1] : b, [0.5,1].")
        first, second = p.rules
        assert first.weight is second.weight is first.body[1].value
        assert first.body[0] is second.body[0]
        # the same item with and without whitespace around it
        first, second = parse_program("a <- [1,1] : b,c.\n"
                                      "d <- [1,1] : c, not b.").rules
        assert first.body[1] is second.body[0]

    @pytest.mark.parametrize("before, after", [
        ("", "$"), ("a", "$"), ("l1", ": a."), ("a <- [1,1] : not", "b$"),
        ("a <- [1,1] : b", ", c$"), ("a <- [1,1] : b", "$"),
        ("a <- [", "1,1]$"), ("a.", "$")])
    def test_long_whitespace_inside_a_rule(self, before, after):
        """No two runs of whitespace in the rule pattern can share one
        stretch of it, so a failed match takes linear time."""
        text = before + " " * 10 ** 5 + after
        assert _outcome(parse_program, text) == _outcome(_token_parse, text)


class TestAtomSharing:
    TEXT = "p(a) <- [1,1] : q, not p(a), -q."

    @pytest.mark.parametrize("name", ["ex2", "ex6", "ex7", "tweety"])
    def test_equal_atoms_of_one_parse_are_one_object(self, name, request):
        for text in (self.TEXT, str(request.getfixturevalue(name))):
            atoms = [a for r in parse_program(text).rules for a in r.atoms]
            assert _one_object_each(atoms)

    @pytest.mark.parametrize("name", ["ex2", "ex6", "ex7", "tweety"])
    def test_equal_literals_of_one_parse_are_one_object(self, name, request):
        for text in (self.TEXT, str(request.getfixturevalue(name))):
            assert _one_object_each(_literals(parse_program(text).rules))

    def test_atoms_of_two_parses_stay_equal(self):
        first, second = (parse_program(self.TEXT).rules[0].atoms
                         for _ in range(2))
        for a, b in zip(first, second):
            assert a is not b
            assert a == b and hash(a) == hash(b)


def _fields(value) -> tuple:
    """The field names of a value type: a `Frozen` type's `__slots__`,
    a named tuple's `_fields`."""
    return type(value).__slots__ or value._fields


class TestValueTypes:
    """Atom and Literal are named tuples; Interval, the rule parts and
    the body nodes are `intervals.Frozen` values: slotted and immutable,
    with a frozen dataclass's equality, hash and repr."""

    ATOM = Atom("p", ("a", Interval(0.25, 0.5)))
    LIT = Literal(ATOM, True)
    VALUES = [ATOM, LIT, Interval(0.1, 0.2), LitItem(LIT, True),
              ConstItem(Interval(1.0, 1.0)),
              Rule(LIT, Interval(0.0, 1.0), (ConstItem(Interval(1.0, 1.0)),),
                   "r1"),
              Const(Interval(0.0, 1.0)), Ref(LIT), Naf(Ref(LIT)),
              Neg(Ref(LIT)), And((Ref(LIT),)), Or((Ref(LIT),)),
              Kagg(Ref(LIT), Ref(LIT))]

    def test_literals_of_two_parses_are_equal(self):
        text = "p(a) <- [1,1] : q, not p(a), -q."
        first, second = ([r.head] + [b.literal for b in r.body]
                         for r in (parse_program(text).rules[0]
                                   for _ in range(2)))
        for a, b in zip(first, second):
            assert a == b and hash(a) == hash(b)
            assert a.atom is not b.atom

    def test_sign_and_kind_keep_values_apart(self):
        a = Atom("a")
        assert Literal(a, False) != Literal(a, True)
        assert hash(Literal(a, False)) != hash(Literal(a, True))
        for atom in (a, self.ATOM):
            for negated in (False, True):
                assert atom != Literal(atom, negated)
                assert Literal(atom, negated) not in {atom: 0}
        assert Naf(Ref(self.LIT)) != Neg(Ref(self.LIT))
        assert And((Ref(self.LIT),)) != Or((Ref(self.LIT),))
        value = Interval(0.25, 0.5)
        assert Const(value) != ConstItem(value)
        assert value != (0.25, 0.5) and (0.25, 0.5) != value

    def test_str_and_repr(self):
        assert str(self.ATOM) == "p(a,[0.25,0.5])"
        assert str(self.LIT) == "-p(a,[0.25,0.5])"
        assert repr(self.ATOM) == "Atom(predicate='p', args=('a', [0.25,0.5]))"
        assert repr(self.LIT) == ("Literal(atom=Atom(predicate='p', "
                                  "args=('a', [0.25,0.5])), negated=True)")
        assert repr(LitItem(self.LIT, True)) == (
            "LitItem(literal=Literal(atom=Atom(predicate='p', "
            "args=('a', [0.25,0.5])), negated=True), naf=True)")
        assert repr(Naf(Ref(self.LIT))) == (
            "Naf(child=Ref(literal=Literal(atom=Atom(predicate='p', "
            "args=('a', [0.25,0.5])), negated=True)))")
        assert str(Rule(Literal(Atom("b")), Interval(0.0, 1.0),
                        (LitItem(self.LIT, True),), "r1")) == (
            "r1: b <- [0,1] : not -p(a,[0.25,0.5]).")

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_frozen_and_without_dict(self, value):
        field = _fields(value)[0]
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = None
        assert repr(value) == before
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_equal_and_hashed_by_fields(self, value):
        fields = tuple(getattr(value, f) for f in _fields(value))
        assert hash(value) == hash(fields)
        assert type(value)(*fields) == value

    def test_atom_refuses_not(self):
        with pytest.raises(ValueError, match="'not' cannot name a predicate"):
            Atom("not")
        with pytest.raises(ParseError, match="^1:18: 'not' cannot name"):
            parse_program("a <- [1,1] : not not.")
        rule = Rule(Literal(Atom("a")), Interval(1.0, 1.0),
                    (LitItem(Literal(Atom("p", ("not",))), naf=True),), "r1")
        assert parse_program(str(rule)).rules == [rule]


class TestRecords:
    """The mutable records are plain classes: fresh mutable defaults for
    each instance, and a dataclass's equality and repr on the public
    configurations and report."""

    @pytest.mark.parametrize("make, attribute", [
        (SolveReport, "answer_sets"), (SolveReport, "diagnostics"),
        (MiState, "interp"), (MiState, "residual"), (MiState, "trace"),
        (MiState, "inconsistent_atoms"), (SolverConfig, "trace"),
        (SolverConfig, "nmi"), (lambda: ComponentPass([]), "components"),
        (lambda: ComponentPass([]), "plans"),
        (lambda: ComponentPass([]), "notes"),
        (lambda: NmiOutcome("converged"), "history"),
        (lambda: ContractionReport("kagg_cycle"), "gains")])
    def test_mutable_defaults_not_shared(self, make, attribute):
        assert getattr(make(), attribute) is not getattr(make(), attribute)

    def test_defaults_equal_the_class_defaults(self):
        cfg = NmiConfig()
        assert (cfg.eps, cfg.max_outer_iters, cfg.n_b) == (
            NmiConfig.eps, NmiConfig.max_outer_iters, NmiConfig.n_b)
        assert SolverConfig().max_answer_sets == SolverConfig.max_answer_sets

    def test_equality_and_repr(self):
        assert NmiConfig() == NmiConfig(0.009, 10_000, 5)
        assert NmiConfig(n_b=3) != NmiConfig()
        assert SolveReport() == SolveReport([], "ok", {})
        assert SolverConfig(seeds=[0.5]) == SolverConfig(seeds=[0.5])
        assert SolveReport() != SolverConfig()
        assert repr(NmiConfig()) == (
            "NmiConfig(eps=0.009, max_outer_iters=10000, n_b=5)")
        assert repr(SolveReport()) == (
            "SolveReport(answer_sets=[], status='ok', diagnostics={})")
        with pytest.raises(TypeError):
            hash(SolveReport())


class TestProgramAccessors:
    def test_atom_base(self, ex2):
        names = {str(a) for a in ex2.atom_base}
        assert names == {"a", "b", "c"}

    def test_atom_base_computed_once(self):
        p = parse_program("a <- [1,1] : not b.\nc <- [0.5,1] : a.")
        assert p.atom_base is p.atom_base

    def test_rules_for(self, ex2):
        assert len(ex2.rules_for(Literal(Atom("a")))) == 2
        assert len(ex2.rules_for(Literal(Atom("a"), negated=True))) == 1


class TestGrounding:
    def test_tweety(self, tweety):
        g = ground(tweety)
        assert len(g.rules) == 2
        heads = {str(r.head) for r in g.rules}
        assert heads == {"fly(tweety)", "bird(tweety)"}
        assert not any(program.is_variable(t) for r in g.rules
                       for t in r.head.atom.args)

    def test_propositional_identity(self, ex6):
        assert ground(ex6).rules == ex6.rules

    def test_idempotent(self, tweety):
        once = ground(tweety)
        assert ground(once).rules == once.rules

    def test_instance_count_two_constants(self):
        p = parse_program(
            "p(X) <- [1,1] : q(X).\nq(a) <- [1,1].\nq(b) <- [1,1].")
        g = ground(p)
        # one 1-variable rule over 2 constants plus 2 ground facts
        assert len(g.rules) == 4

    def test_two_variable_rule(self):
        p = parse_program(
            "r(X,Y) <- [1,1] : q(X), q(Y).\nq(a) <- [1,1].\nq(b) <- [1,1].")
        assert len(ground(p).rules) == 6

    def test_cap_refused_before_any_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("product built")
        monkeypatch.setattr(program.itertools, "product", refuse)
        with pytest.raises(GroundingCapExceeded, match="rule r#1: 100 "
                           "constants over 10 variables"):
            ground(parse_program(TEN_VARIABLES))

    def test_cap_counts_every_instance(self, monkeypatch):
        """2 ** 2 instances of the first rule and 2 facts: 6 rules."""
        p = parse_program(
            "r(X,Y) <- [1,1] : q(X), q(Y).\nq(a) <- [1,1].\nq(b) <- [1,1].")
        monkeypatch.setattr(program, "MAX_GROUND_RULES", 6)
        assert len(ground(p).rules) == 6
        monkeypatch.setattr(program, "MAX_GROUND_RULES", 5)
        with pytest.raises(GroundingCapExceeded, match="rule r#3: 2 "
                           "constants over 0 variables"):
            ground(p)

    def test_variables_without_constants(self):
        p = parse_program("p(X) <- [1,1] : q(X).")
        with pytest.raises(ValueError):
            ground(p)

    @pytest.mark.parametrize("text", [
        "a <- [1,1] : b, not c.\n-b.",
        "p(a) <- [0.5,1] : q([0.1,0.2]), not r(a,b).\nq([0.1,0.2]).",
        "",
    ])
    def test_variable_free_program_is_its_own_grounding(self, text):
        p = parse_program(text)
        assert ground(p) is p

    def test_example_without_variables_passes_through(self, ex6):
        assert ground(ex6) is ex6

    def test_variable_free_program_past_the_cap_still_raises(
            self, monkeypatch):
        p = parse_program("a.\nb.\nc <- [1,1] : a, b.")
        monkeypatch.setattr(program, "MAX_GROUND_RULES", 2)
        with pytest.raises(GroundingCapExceeded, match="rule r#3: 0 "
                           "constants over 0 variables take the program "
                           "past 2 ground rules"):
            ground(p)
        monkeypatch.setattr(program, "MAX_GROUND_RULES", 3)
        assert ground(p) is p

    def test_programs_with_variables_still_expand(self, tweety):
        p = parse_program("e(a,b).\ne(b,c).\n"
                          "tc(X,Y) <- [1,1] : e(X,Y).\n"
                          "tc(X,Z) <- [1,1] : e(X,Y), tc(Y,Z).")
        g = ground(p)
        assert g is not p and len(g.rules) == 2 + 3 ** 2 + 3 ** 3
        assert not any(program.is_variable(t) for a in g.atom_base
                       for t in a.args)
        assert ground(tweety) is not tweety
        assert len(ground(tweety).rules) == 2
