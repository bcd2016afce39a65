"""Truth values as sub-intervals of [0,1] and the operators over them.

A value [x1,x2] carries both a truth estimate (its midpoint) and a
certainty estimate (its width: narrower means more certain).  Besides
the two bilattice orderings there are two total preorders, one
comparing midpoints and one comparing widths.

`Interval` is `Frozen`, slotted and immutable.  Its constructor
validates the bounds; two floats already ordered within [0,1], the
common case, are kept as given without further checks.  A `Frozen`
constructor sets each field through its slot's own `__set__`, bound once
at import by `slot_setters`, as `__setattr__` refuses every name.
"""

from __future__ import annotations

import enum

EPS_CMP = 1e-9

# slack for float round-off at the [0,1] boundary; anything further out
# is a caller error and is rejected, never clamped
_BOUNDARY_SLACK = 1e-12


class _InconsistentType:
    """Singleton marking an unresolvable clash between a value and its
    complement (same certainty, different truth).  It absorbs through
    every operator."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INCONSISTENT"

    def __bool__(self):
        return False


INCONSISTENT = _InconsistentType()


class Record:
    """Base of the value types: equality and repr as a dataclass has them."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__ or vars(self)])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__ or vars(self)))


class Frozen(Record):
    """Base of the immutable value types, hashed as a frozen dataclass is."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())


def slot_setters(cls) -> tuple:
    """The `__set__` of each of cls's own slots, in slot order: what its
    constructor sets the fields with, without a lookup by name."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class Interval(Frozen):
    __slots__ = ("lower", "upper")

    def __init__(self, lower: float, upper: float):
        _set_interval_lower(self, lower)
        _set_interval_upper(self, upper)
        self.__post_init__()

    def __post_init__(self):
        lo, hi = self.lower, self.upper
        # already floats in order within [0,1]: the checks below would
        # keep both bounds, bit for bit
        if type(lo) is float and type(hi) is float and 0.0 <= lo <= hi <= 1.0:
            return
        try:
            lo, hi = float(lo), float(hi)
        except OverflowError:   # an int past the float range
            raise ValueError("interval outside [0,1]: a bound past the "
                             "float range") from None
        if lo > hi + _BOUNDARY_SLACK:
            raise ValueError(f"interval bounds out of order: [{lo}, {hi}]")
        # written so that a NaN bound fails it too
        if not (lo >= -_BOUNDARY_SLACK and hi <= 1.0 + _BOUNDARY_SLACK):
            raise ValueError(f"interval outside [0,1]: [{lo}, {hi}]")
        # snap float dust back onto the boundary
        lo = min(max(lo, 0.0), 1.0)
        hi = min(max(hi, 0.0), 1.0)
        if lo > hi:
            lo = hi = (lo + hi) / 2.0
        _set_interval_lower(self, lo)
        _set_interval_upper(self, hi)

    @property
    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2.0

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def same_as(self, other: "Interval", eps: float = EPS_CMP) -> bool:
        return (abs(self.lower - other.lower) <= eps
                and abs(self.upper - other.upper) <= eps)

    def __repr__(self):
        return f"[{self.lower:g},{self.upper:g}]"


_set_interval_lower, _set_interval_upper = slot_setters(Interval)

EpistemicValue = Interval | _InconsistentType

BOTTOM = Interval(0.0, 1.0)  # least certain value: total ignorance
TRUE = Interval(1.0, 1.0)
FALSE = Interval(0.0, 0.0)


class OrderFamily(enum.Enum):
    TRUTH_BILATTICE = "truth_bilattice"
    KNOWLEDGE_BILATTICE = "knowledge_bilattice"
    TRUTH_PREORDER = "truth_preorder"
    KNOWLEDGE_PREORDER = "knowledge_preorder"


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def compare(x: Interval, y: Interval, family: OrderFamily,
            eps: float = EPS_CMP) -> Ordering:
    """Compare two values under one of the four orderings.

    The bilattice orderings are partial (INCOMPARABLE is possible);
    the two preorders are total.  Equality is taken up to eps.
    """
    if family is OrderFamily.TRUTH_BILATTICE:
        le = x.lower <= y.lower + eps and x.upper <= y.upper + eps
        ge = y.lower <= x.lower + eps and y.upper <= x.upper + eps
    elif family is OrderFamily.KNOWLEDGE_BILATTICE:
        le = x.lower <= y.lower + eps and x.upper >= y.upper - eps
        ge = y.lower <= x.lower + eps and y.upper >= x.upper - eps
    elif family is OrderFamily.TRUTH_PREORDER:
        le = x.midpoint <= y.midpoint + eps
        ge = y.midpoint <= x.midpoint + eps
    elif family is OrderFamily.KNOWLEDGE_PREORDER:
        # wider means less certain, hence lower in the knowledge order
        le = x.width >= y.width - eps
        ge = y.width >= x.width - eps
    else:
        raise ValueError(f"unknown order family: {family}")
    if le and ge:
        return Ordering.EQUAL
    if le:
        return Ordering.LESS
    if ge:
        return Ordering.GREATER
    return Ordering.INCOMPARABLE


def negate(x: EpistemicValue) -> EpistemicValue:
    """Strong negation: mirror the interval around 1/2 (width-preserving,
    involutive)."""
    if x is INCONSISTENT:
        return INCONSISTENT
    return Interval(1.0 - x.upper, 1.0 - x.lower)


def naf(x: EpistemicValue) -> EpistemicValue:
    """Default negation: full confidence that x fails, judged from the
    lower bound only.  Always yields an exact value; not involutive."""
    if x is INCONSISTENT:
        return INCONSISTENT
    return Interval(1.0 - x.lower, 1.0 - x.lower)


def tnorm(x: EpistemicValue, y: EpistemicValue) -> EpistemicValue:
    """Product conjunction, applied boundwise."""
    if x is INCONSISTENT or y is INCONSISTENT:
        return INCONSISTENT
    return Interval(x.lower * y.lower, x.upper * y.upper)


def tconorm(x: EpistemicValue, y: EpistemicValue) -> EpistemicValue:
    """Product disjunction, applied boundwise."""
    if x is INCONSISTENT or y is INCONSISTENT:
        return INCONSISTENT
    return Interval(x.lower + y.lower - x.lower * y.lower,
                    x.upper + y.upper - x.upper * y.upper)


def kagg(x: EpistemicValue, y: EpistemicValue) -> EpistemicValue:
    """Certainty aggregation: the narrower of two values, with an
    equal-width tie between different values resolving to INCONSISTENT,
    which then absorbs.  Values equal within EPS_CMP, the solver's one
    tie tolerance, give the narrower one, ties broken by bounds, so the
    result does not depend on argument order."""
    if x is INCONSISTENT or y is INCONSISTENT:
        return INCONSISTENT
    if not x.same_as(y) and abs(x.width - y.width) <= EPS_CMP:
        return INCONSISTENT
    if (x.width, x.lower, x.upper) <= (y.width, y.lower, y.upper):
        return x
    return y
