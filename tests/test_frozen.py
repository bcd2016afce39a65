"""Construction of every `Frozen` value type: each constructor sets all
of its slots, in order, to its arguments, and the values stay immutable.
`Interval`'s constructor still validates and snaps its bounds, and calls
`__post_init__` once per value, which the traced benchmark counts."""

import pytest

import unasp
from unasp.intervals import INCONSISTENT, TRUE, Frozen, Interval
from unasp.program import Atom, ConstItem, LitItem, Literal, Rule
from unasp.transform import And, Const, Kagg, Naf, Neg, Or, Ref

A = Literal(Atom("a"))
B = Literal(Atom("b"), True)

# the arguments each Frozen type is built from in the tests below
ARGUMENTS = {
    Interval: (0.25, 0.75),
    LitItem: (A, True),
    ConstItem: (Interval(0.5, 1.0),),
    Rule: (A, TRUE, (LitItem(B), ConstItem(TRUE)), "r1"),
    Const: (INCONSISTENT,),
    Ref: (B,),
    Naf: (Ref(A),),
    Neg: (Ref(B),),
    And: ((Ref(A), Const(TRUE)),),
    Or: ((Ref(A), Ref(B)),),
    Kagg: (Ref(A), Neg(Ref(B))),
}


# each body node type -> the subexpressions it is built with above:
# the fields Naf, Neg and Kagg hold them in, the tuple And and Or do
BODY_CHILDREN = {
    Const: (), Ref: (),
    Naf: ARGUMENTS[Naf], Neg: ARGUMENTS[Neg],
    And: ARGUMENTS[And][0], Or: ARGUMENTS[Or][0],
    Kagg: ARGUMENTS[Kagg],
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _package_frozen_types():
    return {c for c in _subclasses(Frozen)
            if c.__module__.split(".")[0] == unasp.__name__}


def test_every_frozen_type_is_covered():
    assert _package_frozen_types() == set(ARGUMENTS)


@pytest.mark.parametrize("cls", ARGUMENTS, ids=lambda c: c.__name__)
def test_constructor_sets_every_slot(cls):
    args = ARGUMENTS[cls]
    value = cls(*args)
    assert len(cls.__slots__) == len(args)
    for name, arg in zip(cls.__slots__, args):
        assert getattr(value, name) is arg
    assert value._values() == args
    assert value == cls(*args) and hash(value) == hash(cls(*args))


@pytest.mark.parametrize("cls", ARGUMENTS, ids=lambda c: c.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    value = cls(*ARGUMENTS[cls])
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value._values() == ARGUMENTS[cls]


@pytest.mark.parametrize("cls", BODY_CHILDREN, ids=lambda c: c.__name__)
def test_children_lists_exactly_the_child_fields(cls):
    """The one place a walker learns a node's shape; it is no slot, so
    equality, hash and repr do not read it."""
    value = cls(*ARGUMENTS[cls])
    children = value.children
    assert type(children) is tuple
    assert len(children) == len(BODY_CHILDREN[cls])
    assert all(c is want for c, want in zip(children, BODY_CHILDREN[cls]))
    assert repr(value) == "%s(%s)" % (cls.__name__, ", ".join(
        f"{f}={getattr(value, f)!r}" for f in cls.__slots__))
    with pytest.raises(AttributeError):
        value.children = ()


def test_interval_int_bounds_become_floats():
    iv = Interval(0, 1)
    assert (iv.lower, iv.upper) == (0.0, 1.0)
    assert type(iv.lower) is float and type(iv.upper) is float


def test_interval_snaps_float_dust():
    iv = Interval(-1e-13, 1.0 + 1e-13)
    assert (iv.lower, iv.upper) == (0.0, 1.0)
    # out of order within the slack: both bounds meet in the middle
    iv = Interval(0.5 + 1e-13, 0.5)
    assert iv.lower == iv.upper == (0.5 + 1e-13 + 0.5) / 2.0


@pytest.mark.parametrize("lower, upper, message", [
    (0.8, 0.2, "out of order"),
    (-0.1, 0.5, "outside"),
    (0.5, 1.1, "outside"),
    (0, 10**400, "outside"),
    (float("nan"), 0.5, "outside"),
])
def test_interval_rejects(lower, upper, message):
    with pytest.raises(ValueError, match=message):
        Interval(lower, upper)


def test_interval_calls_post_init_once_per_value(monkeypatch):
    calls = []
    post_init = Interval.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counted)
    fast, slow = Interval(0.1, 0.2), Interval(0, 1)
    assert calls == [fast, slow]
    assert (slow.lower, slow.upper) == (0.0, 1.0)
