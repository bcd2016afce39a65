import itertools
import struct

import pytest
from hypothesis import example, given, strategies as st

from unasp.intervals import (BOTTOM, EPS_CMP, FALSE, INCONSISTENT, TRUE,
                             Interval, OrderFamily, Ordering, compare, kagg,
                             naf, negate, tconorm, tnorm)

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
GRID_INTERVALS = [Interval(lo, hi)
                  for lo, hi in itertools.combinations_with_replacement(GRID, 2)]


def ivals():
    return st.tuples(st.floats(0, 1), st.floats(0, 1)).map(
        lambda t: Interval(min(t), max(t)))


class TestConstruction:
    def test_valid(self):
        iv = Interval(0.2, 0.7)
        assert iv.lower == 0.2 and iv.upper == 0.7
        assert iv.midpoint == pytest.approx(0.45)
        assert iv.width == pytest.approx(0.5)

    def test_degenerate(self):
        assert Interval(0.3, 0.3).width == 0.0
        assert Interval(0.3, 0.4).width > EPS_CMP

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            Interval(0.8, 0.2)

    def test_outside_unit_rejected(self):
        with pytest.raises(ValueError):
            Interval(-0.1, 0.5)
        with pytest.raises(ValueError):
            Interval(0.5, 1.1)
        with pytest.raises(ValueError, match=r"outside \[0,1\]"):
            Interval(0, 10**400)

    def test_nan_rejected(self):
        nan = float("nan")
        for lower, upper in ((nan, 0.5), (0.5, nan), (nan, nan)):
            with pytest.raises(ValueError):
                Interval(lower, upper)

    def test_boundary_dust_snapped(self):
        # round-off like 1 + 1e-16 from x + y - x*y must not explode
        iv = Interval(0.0, 1.0 + 1e-15)
        assert iv.upper == 1.0

    def test_grid_has_fifteen_cells(self):
        assert len(GRID_INTERVALS) == 15


def _checked_bounds(lower, upper):
    """Interval's validation as it was before its fast path, every
    input through every check: the stored bounds, or ValueError."""
    lo, hi = float(lower), float(upper)
    if lo > hi + 1e-12:
        raise ValueError(f"interval bounds out of order: [{lo}, {hi}]")
    if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):
        raise ValueError(f"interval outside [0,1]: [{lo}, {hi}]")
    lo = min(max(lo, 0.0), 1.0)
    hi = min(max(hi, 0.0), 1.0)
    if lo > hi:
        lo = hi = (lo + hi) / 2.0
    return lo, hi


def _outcome(make, lower, upper):
    """The bits and types of the two bounds make stores, or the message
    of the ValueError it raises."""
    try:
        lo, hi = make(lower, upper)
    except ValueError as exc:
        return str(exc)
    return [(type(x), struct.pack("<d", x)) for x in (lo, hi)]


def _interval_bounds(lower, upper):
    iv = Interval(lower, upper)
    return iv.lower, iv.upper


# bounds near 0 and 1, inside and outside the boundary slack, signed zeros,
# non-finite values, and ints, which are stored as floats
BOUNDS = st.one_of(
    st.floats(),
    st.floats(0, 1),
    st.floats(-2e-12, 2e-12),
    st.floats(1 - 2e-12, 1 + 2e-12),
    st.sampled_from([0.0, -0.0, 1.0, 1e-12, -1e-12, 1 + 1e-12,
                     float("inf"), float("-inf"), float("nan")]),
    st.integers(-1, 2),
)


class TestFastPath:
    """The constructor keeps two ordered floats within [0,1] without
    checking further; every input must store the same bits, or raise
    the same error, as going through every check."""

    @given(BOUNDS, BOUNDS)
    @example(-0.0, 0.0)
    @example(0.0, -0.0)
    @example(-0.0, -0.0)
    @example(0.5, 0.5 - 1e-13)
    @example(1.0, 1.0 + 1e-13)
    @example(-1e-13, -1e-13)
    @example(float("nan"), 0.5)
    @example(0, 1)
    @example(True, True)
    def test_same_bounds_or_error_as_every_check(self, lower, upper):
        assert (_outcome(_interval_bounds, lower, upper)
                == _outcome(_checked_bounds, lower, upper))


class TestOrderings:
    def test_truth_bilattice(self):
        x, y = Interval(0.1, 0.4), Interval(0.2, 0.6)
        assert compare(x, y, OrderFamily.TRUTH_BILATTICE) is Ordering.LESS
        assert compare(y, x, OrderFamily.TRUTH_BILATTICE) is Ordering.GREATER
        # crossing bounds are incomparable
        a, b = Interval(0.1, 0.9), Interval(0.3, 0.5)
        assert compare(a, b, OrderFamily.TRUTH_BILATTICE) is Ordering.INCOMPARABLE

    def test_knowledge_bilattice(self):
        wide, narrow = Interval(0.1, 0.9), Interval(0.3, 0.5)
        assert compare(wide, narrow,
                       OrderFamily.KNOWLEDGE_BILATTICE) is Ordering.LESS
        # disjoint-leaning pairs are incomparable in knowledge
        a, b = Interval(0.0, 0.2), Interval(0.5, 0.6)
        assert compare(a, b,
                       OrderFamily.KNOWLEDGE_BILATTICE) is Ordering.INCOMPARABLE

    def test_truth_preorder_compares_midpoints(self):
        assert compare(Interval(0.0, 0.4), Interval(0.1, 0.5),
                       OrderFamily.TRUTH_PREORDER) is Ordering.LESS
        assert compare(Interval(0.0, 0.6), Interval(0.2, 0.4),
                       OrderFamily.TRUTH_PREORDER) is Ordering.EQUAL

    def test_knowledge_preorder_compares_widths(self):
        assert compare(BOTTOM, Interval(0.5, 0.5),
                       OrderFamily.KNOWLEDGE_PREORDER) is Ordering.LESS
        assert compare(Interval(0.0, 0.2), Interval(0.7, 0.9),
                       OrderFamily.KNOWLEDGE_PREORDER) is Ordering.EQUAL

    def test_strict_and_weak_preorder_steps(self):
        assert compare(BOTTOM, TRUE,
                       OrderFamily.KNOWLEDGE_PREORDER) is Ordering.LESS
        assert compare(Interval(0.1, 0.2), Interval(0.6, 0.7),
                       OrderFamily.KNOWLEDGE_PREORDER) is Ordering.EQUAL
        assert compare(Interval(0.8, 0.9), Interval(0.1, 0.2),
                       OrderFamily.TRUTH_PREORDER) is Ordering.GREATER

    @pytest.mark.parametrize("family", (OrderFamily.TRUTH_PREORDER,
                                        OrderFamily.KNOWLEDGE_PREORDER))
    def test_preorders_total_on_grid(self, family):
        for x, y in itertools.product(GRID_INTERVALS, repeat=2):
            assert compare(x, y, family) is not Ordering.INCOMPARABLE

    @pytest.mark.parametrize("family", (OrderFamily.TRUTH_PREORDER,
                                        OrderFamily.KNOWLEDGE_PREORDER))
    @given(x=ivals(), y=ivals(), z=ivals())
    def test_preorders_total_transitive(self, family, x, y, z):
        assert compare(x, x, family, eps=0.0) is Ordering.EQUAL
        assert compare(x, y, family, eps=0.0) is not Ordering.INCOMPARABLE
        xy = compare(x, y, family, eps=0.0)
        yz = compare(y, z, family, eps=0.0)
        if xy is Ordering.LESS and yz is Ordering.LESS:
            assert compare(x, z, family, eps=0.0) is Ordering.LESS

    def test_bilattice_implies_preorder_on_grid(self):
        pairs = ((OrderFamily.TRUTH_BILATTICE, OrderFamily.TRUTH_PREORDER),
                 (OrderFamily.KNOWLEDGE_BILATTICE,
                  OrderFamily.KNOWLEDGE_PREORDER))
        for bilattice, preorder in pairs:
            for x, y in itertools.product(GRID_INTERVALS, repeat=2):
                o = compare(x, y, bilattice)
                if o in (Ordering.LESS, Ordering.EQUAL):
                    assert compare(x, y, preorder) in (Ordering.LESS,
                                                       Ordering.EQUAL)


class TestNegations:
    def test_negate_goldens(self):
        assert negate(Interval(0.42, 1.0)).same_as(Interval(0.0, 0.58))
        assert negate(TRUE).same_as(FALSE)
        assert negate(BOTTOM).same_as(BOTTOM)

    def test_naf_goldens(self):
        assert naf(Interval(0.42, 0.56)).same_as(Interval(0.58, 0.58))
        assert naf(Interval(0.6, 0.8)).same_as(Interval(0.4, 0.4))
        assert naf(BOTTOM).same_as(TRUE)

    @given(x=ivals())
    def test_negate_involutive_and_width_preserving(self, x):
        assert negate(negate(x)).same_as(x, eps=1e-12)
        assert abs(negate(x).width - x.width) <= 1e-12

    @given(x=ivals())
    def test_naf_always_exact(self, x):
        assert naf(x).width == 0.0

    def test_naf_not_involutive(self):
        assert not naf(naf(BOTTOM)).same_as(BOTTOM)

    def test_inconsistent_absorbs(self):
        assert negate(INCONSISTENT) is INCONSISTENT
        assert naf(INCONSISTENT) is INCONSISTENT


class TestConjunctionDisjunction:
    def test_tnorm_goldens(self):
        assert tnorm(TRUE, Interval(0.6, 0.8)).same_as(Interval(0.6, 0.8))
        assert tnorm(Interval(0.7, 0.9),
                     Interval(0.6, 0.8)).same_as(Interval(0.42, 0.72))

    def test_tconorm_goldens(self):
        got = tconorm(Interval(0.2842, 0.406), Interval(0.15, 0.15))
        assert got.same_as(Interval(0.39157, 0.4951), eps=1e-6)
        assert tconorm(Interval(0.4, 0.4),
                       Interval(0.0, 0.7)).same_as(Interval(0.4, 0.82))

    def test_inconsistent_absorbs(self):
        assert tnorm(INCONSISTENT, TRUE) is INCONSISTENT
        assert tconorm(FALSE, INCONSISTENT) is INCONSISTENT

    @given(x=ivals(), y=ivals())
    def test_commutative_and_closed(self, x, y):
        for op in (tnorm, tconorm):
            a, b = op(x, y), op(y, x)
            assert a.same_as(b, eps=1e-12)
            assert 0.0 <= a.lower <= a.upper <= 1.0

    @given(x=ivals(), y=ivals(), z=ivals())
    def test_monotone_in_each_argument(self, x, y, z):
        # boundwise monotonicity: growing an argument's bounds never
        # shrinks the result's bounds
        lo = Interval(min(y.lower, z.lower), min(y.upper, z.upper))
        hi = Interval(max(y.lower, z.lower), max(y.upper, z.upper))
        for op in (tnorm, tconorm):
            small, big = op(x, lo), op(x, hi)
            assert small.lower <= big.lower + 1e-12
            assert small.upper <= big.upper + 1e-12

    @given(x=ivals())
    def test_units(self, x):
        assert tnorm(x, TRUE).same_as(x, eps=1e-12)
        assert tconorm(x, FALSE).same_as(x, eps=1e-12)


class TestCertaintySelection:
    def test_kagg_narrower_wins_goldens(self):
        assert kagg(Interval(0.3916, 0.495),
                    Interval(0.0, 0.58)).same_as(Interval(0.3916, 0.495))
        assert kagg(TRUE, Interval(0.3, 1.0)).same_as(TRUE)

    def test_kagg_equal_width_conflict_inconsistent(self):
        assert kagg(Interval(0.9, 0.9), TRUE) is INCONSISTENT

    def test_kagg_equal_values_ok(self):
        assert kagg(Interval(0.4, 0.4), Interval(0.4, 0.4)).same_as(
            Interval(0.4, 0.4))

    def test_kagg_goldens(self):
        assert kagg(Interval(0.5, 1.0), Interval(0.4, 0.9)) is INCONSISTENT
        assert kagg(Interval(0.29, 0.29),
                    Interval(0.44, 0.58)).same_as(Interval(0.29, 0.29))
        x = Interval(0.37, 0.62)
        assert kagg(x, x).same_as(x)

    def test_kagg_inconsistent_absorbs(self):
        assert kagg(INCONSISTENT, TRUE) is INCONSISTENT
        assert kagg(Interval(0.2, 0.4), INCONSISTENT) is INCONSISTENT

    @given(x=ivals(), y=ivals())
    @example(x=Interval(0, 0), y=Interval(0, 1e-9))
    def test_kagg_commutative_and_narrowing(self, x, y):
        a, b = kagg(x, y), kagg(y, x)
        if a is INCONSISTENT:
            assert b is INCONSISTENT
            return
        assert a.same_as(b, eps=1e-12)
        assert a.width <= min(x.width, y.width) + EPS_CMP
