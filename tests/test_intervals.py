"""Interval construction rules and the compatibility predicate."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxrigid import (
    CLOSED,
    OPEN,
    EmptyIntervalError,
    Interval,
    InvertedIntervalError,
    Point,
    compatible,
    discretized_compatible,
)
from maxrigid.intervals import _compatible_ends, _exact


def bp(i):
    return Point.breakpoint(i)


def gen(seg, num, den):
    return Point.generic(seg, Fraction(num, den))


def iv(lo, lk, hi, hk):
    return Interval(lo, lk, hi, hk)


class TestConstruction:
    def test_point_module_is_valid(self):
        pm = iv(bp(0), CLOSED, bp(0), CLOSED)
        assert pm.lo == pm.hi

    def test_open_end_at_equal_points_is_empty(self):
        with pytest.raises(EmptyIntervalError):
            iv(bp(0), CLOSED, bp(0), OPEN)
        with pytest.raises(EmptyIntervalError):
            iv(bp(0), OPEN, bp(0), CLOSED)
        with pytest.raises(EmptyIntervalError):
            iv(bp(0), OPEN, bp(0), OPEN)

    def test_inverted_endpoints_rejected(self):
        with pytest.raises(InvertedIntervalError):
            iv(bp(1), CLOSED, bp(0), CLOSED)

    def test_generic_offset_must_be_interior(self):
        with pytest.raises(ValueError):
            Point.generic(0, Fraction(0))
        with pytest.raises(ValueError):
            Point.generic(0, Fraction(1))


class TestExact:
    @pytest.mark.parametrize(
        "text", ["0", "-0", "7", "-3/4", "007/010", "6/4", "-0/5", "12345678901234567890/3"]
    )
    def test_a_string_parses_as_fraction_does(self, text):
        value = _exact(text)
        assert type(value) is Fraction and value == Fraction(text)

    def test_a_zero_denominator_raises_as_fraction_does(self):
        with pytest.raises(ZeroDivisionError):
            _exact("1/0")


class TestPointOrder:
    def test_breakpoint_before_own_segment(self):
        assert bp(0) < gen(0, 1, 3) < bp(1) < gen(1, 1, 100) < bp(2)

    def test_generic_order_within_segment(self):
        assert gen(0, 1, 3) < gen(0, 2, 3)
        assert gen(0, 2, 3) < gen(1, 1, 3)


class TestCompatible:
    def test_nested(self):
        outer = iv(gen(0, 1, 5), CLOSED, gen(0, 4, 5), CLOSED)
        inner = iv(gen(0, 2, 5), CLOSED, gen(0, 3, 5), CLOSED)
        assert compatible(outer, inner)
        assert compatible(inner, outer)

    def test_touch_needs_both_ends_open(self):
        x = gen(0, 1, 2)
        left_open = iv(bp(0), CLOSED, x, OPEN)
        left_closed = iv(bp(0), CLOSED, x, CLOSED)
        right_open = iv(x, OPEN, bp(1), CLOSED)
        right_closed = iv(x, CLOSED, bp(1), CLOSED)
        assert compatible(left_open, right_open)
        assert not compatible(left_closed, right_closed)
        assert not compatible(left_open, right_closed)
        assert not compatible(left_closed, right_open)

    def test_point_module_against_touching_open_interval(self):
        y = gen(0, 1, 2)
        pm = iv(y, CLOSED, y, CLOSED)
        after = iv(y, OPEN, bp(1), CLOSED)
        assert not compatible(pm, after)
        before = iv(bp(0), CLOSED, y, OPEN)
        assert not compatible(pm, before)

    def test_strict_gap(self):
        a = iv(bp(0), CLOSED, gen(0, 1, 3), CLOSED)
        b = iv(gen(0, 2, 3), OPEN, bp(1), OPEN)
        assert compatible(a, b)

    def test_crossing_pair(self):
        a = iv(bp(0), CLOSED, gen(0, 3, 5), OPEN)
        b = iv(gen(0, 2, 5), OPEN, bp(1), CLOSED)
        assert not compatible(a, b)

    def test_reflexive(self):
        a = iv(bp(0), OPEN, gen(0, 1, 2), OPEN)
        assert compatible(a, a)


# four ranked positions, breakpoints and generic points alternating on the line
RANKED = (bp(0), gen(0, 1, 2), bp(1), gen(1, 1, 2))


def ranked_intervals():
    """Every interval on RANKED as (lo rank, lo kind, hi rank, hi kind)."""
    out = [(r, CLOSED, r, CLOSED) for r in range(len(RANKED))]
    for lo, hi in itertools.combinations(range(len(RANKED)), 2):
        out += [(lo, lk, hi, hk) for lk in (CLOSED, OPEN) for hk in (CLOSED, OPEN)]
    return out


def test_exhaustive_pairs_agree_with_the_discretized_oracle():
    """Every pair of intervals on four positions, all kinds: the core on
    integer ranks, ``compatible`` on ``Interval``s and the independent Ext
    computation give the same verdict."""
    ends = ranked_intervals()
    ivals = [iv(RANKED[lo], lk, RANKED[hi], hk) for lo, lk, hi, hk in ends]
    for e, a in zip(ends, ivals):
        for f, b in zip(ends, ivals):
            expected = discretized_compatible(a, b)
            assert compatible(a, b) == expected, (a, b)
            assert _compatible_ends(*e, *f) == expected, (e, f)


# hypothesis machinery: random intervals over a fixed small point pool

_kinds = st.sampled_from([CLOSED, OPEN])


@st.composite
def points(draw, segments=2, denominator=12):
    if draw(st.booleans()):
        return Point.breakpoint(draw(st.integers(0, segments)))
    seg = draw(st.integers(0, segments - 1))
    num = draw(st.integers(1, denominator - 1))
    return Point.generic(seg, Fraction(num, denominator))


@st.composite
def intervals(draw):
    p, q = draw(points()), draw(points())
    if p == q:
        return Interval(p, CLOSED, q, CLOSED)
    lo, hi = (p, q) if p < q else (q, p)
    return Interval(lo, draw(_kinds), hi, draw(_kinds))


@given(intervals(), intervals())
@settings(max_examples=300)
def test_compatible_is_symmetric(a, b):
    assert compatible(a, b) == compatible(b, a)


@given(intervals())
@settings(max_examples=100)
def test_compatible_is_reflexive(a):
    assert compatible(a, a)


@given(
    intervals(),
    intervals(),
    st.lists(st.integers(1, 99), min_size=11, max_size=11, unique=True),
)
@settings(max_examples=300)
def test_order_pattern_determines_compatibility(a, b, values):
    """Relabeling generic offsets monotonically never changes the verdict."""
    values = sorted(values)

    def relabel_point(p):
        if p.is_breakpoint:
            return p
        k = p.offset.numerator * 12 // p.offset.denominator  # recover k of k/12
        return Point.generic(p.index, Fraction(values[k - 1], 100))

    def relabel(ivl):
        return Interval(
            relabel_point(ivl.lo), ivl.lo_kind, relabel_point(ivl.hi), ivl.hi_kind
        )

    assert compatible(a, b) == compatible(relabel(a), relabel(b))
