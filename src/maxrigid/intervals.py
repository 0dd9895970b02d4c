"""Flavored intervals on a subdivided line.

The point domain is combinatorial: a point is either a breakpoint
``a_0 < a_1 < ... < a_n`` of a subdivision of [0, 1], or a generic point
strictly inside one of the open segments ``(a_j, a_{j+1})``.  Positions
inside a segment are exact rationals, so point equality is exact and no
comparison ever touches floating point: ``Point`` and ``continuous.Breakpoints``
take only what ``_exact``, the one exact-rational rule, accepts.

An interval carries an independent closed/open flag at each end, giving
the four shapes [a,b], [a,b), (a,b] and (a,b).  Two intervals are
*compatible* exactly when one of the following holds:

  * one is contained in the other (as point sets),
  * they are strictly separated (a gap between them), or
  * they touch at a single point and both are open there.

Touching with a closed end on either side, and genuine crossings, are not
compatible.  The verdict depends only on the order of the four endpoints
and on the four kinds (``_compatible_ends``).  For direct sums of interval
modules over the linearly ordered line this predicate characterises
vanishing of self-extensions, which is how the maximality tables decide it
(``continuous._Tables``); it is cross-checked against an independent
discretized Ext computation in :mod:`maxrigid.bridge`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction


class BoundaryKind(IntEnum):
    """Endpoint flavor; CLOSED sorts before OPEN in canonical orderings."""

    CLOSED = 0
    OPEN = 1

    def __str__(self) -> str:
        return self.name.lower()


CLOSED = BoundaryKind.CLOSED
OPEN = BoundaryKind.OPEN


class InvalidIntervalError(ValueError):
    """Base error for malformed intervals."""


class EmptyIntervalError(InvalidIntervalError):
    """Equal endpoints with an open end denote the empty set, not a module."""


class InvertedIntervalError(InvalidIntervalError):
    """Upper endpoint strictly below the lower endpoint."""


_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?", re.ASCII)


def _exact(value) -> Fraction:
    """``value`` as a Fraction: a Fraction, an int, or a string ``str(Fraction)`` writes.

    Anything else raises TypeError before ``Fraction`` sees it: Fraction
    would take a float at its binary value, a boolean as 0 or 1, and would
    expand a decimal exponent such as ``"1e-4000000"`` into a power of ten.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if type(value) is str and (match := _RATIONAL.fullmatch(value)):
        return Fraction(int(match[1]), int(match[2] or 1))  # "1/0" raises ZeroDivisionError
    raise TypeError(f"not an exact rational: {value!r}")


def _check_kinds(*kinds) -> None:
    """Raise TypeError unless every kind is a BoundaryKind (0 is not CLOSED)."""
    for kind in kinds:
        if not isinstance(kind, BoundaryKind):
            raise TypeError(f"not a BoundaryKind: {kind!r}")


def _check_ints(*indices) -> None:
    """Raise TypeError unless every index is a plain int (a float or a bool is not)."""
    for i in indices:
        if type(i) is not int:
            raise TypeError(f"not an int index: {i!r}")


@dataclass(frozen=True, order=True, slots=True)
class Point:
    """A breakpoint (offset 0) or a generic point inside a segment.

    ``index`` is the breakpoint index when ``offset == 0`` and the segment
    index otherwise; ``offset`` is the exact position within the open
    segment, rescaled to (0, 1).  Lexicographic order on
    ``(index, offset)`` is the order on the line: breakpoint ``i``
    precedes every generic point of segment ``i``, which precedes
    breakpoint ``i + 1``.  A float or boolean ``index`` raises TypeError, as
    does an ``offset`` that ``_exact`` refuses: a float, boolean or decimal string.
    """

    index: int
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        _check_ints(self.index)
        if self.index < 0:
            raise ValueError(f"negative point index: {self.index}")
        object.__setattr__(self, "offset", _exact(self.offset))
        if not 0 <= self.offset < 1:
            raise ValueError(f"segment offset outside [0, 1): {self.offset}")

    @classmethod
    def breakpoint(cls, i: int) -> "Point":
        return cls(i)

    @classmethod
    def generic(cls, segment: int, offset) -> "Point":
        offset = _exact(offset)
        if not 0 < offset < 1:
            raise ValueError(f"generic offset must lie strictly in (0, 1): {offset}")
        return cls(segment, offset)

    @property
    def is_breakpoint(self) -> bool:
        return self.offset == 0

    def __str__(self) -> str:
        if self.is_breakpoint:
            return f"a{self.index}"
        return f"x{self.index}:{self.offset}"


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    """A nonempty flavored interval; point modules must be closed-closed.

    The field order (lo, lo_kind, hi, hi_kind) doubles as the canonical
    sort key, with closed sorting before open.
    """

    lo: Point
    lo_kind: BoundaryKind
    hi: Point
    hi_kind: BoundaryKind

    def __post_init__(self):
        _check_kinds(self.lo_kind, self.hi_kind)
        if self.hi < self.lo:
            raise InvertedIntervalError(f"InvertedInterval({self.lo} > {self.hi})")
        if self.lo == self.hi and (self.lo_kind is not CLOSED or self.hi_kind is not CLOSED):
            raise EmptyIntervalError(f"EmptyInterval(open end at {self.lo})")

    def __str__(self) -> str:
        lb = "[" if self.lo_kind is CLOSED else "("
        rb = "]" if self.hi_kind is CLOSED else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"


def _compatible_ends(ilo, ilk, ihi, ihk, jlo, jlk, jhi, jhk) -> bool:
    """The compatibility predicate on the endpoints and kinds of two intervals.

    Endpoints are compared only with ``<`` and ``==`` and kinds only with
    ``==``, so any order-preserving relabeling of the points gives the same
    verdict: ``compatible`` passes ``Point``s, and the test oracles pass
    integer ranks of points.
    """
    if ihi < jlo or jhi < ilo:  # a strict gap
        return True
    if ihi == jlo and ihk == OPEN and jlk == OPEN or jhi == ilo and jhk == OPEN and ilk == OPEN:
        return True  # touching, open on both sides
    if (ilo < jlo or ilo == jlo and (ilk == CLOSED or jlk == OPEN)) and (
        jhi < ihi or jhi == ihi and (ihk == CLOSED or jhk == OPEN)
    ):
        return True  # j inside i
    return (jlo < ilo or jlo == ilo and (jlk == CLOSED or ilk == OPEN)) and (
        ihi < jhi or ihi == jhi and (jhk == CLOSED or ihk == OPEN)
    )  # i inside j


def compatible(i: Interval, j: Interval) -> bool:
    """Whether the two interval modules admit no extension in either direction.

    Symmetric, reflexive, and dependent only on the order pattern of the
    four endpoints together with the four boundary kinds.  Nesting and a
    strict gap are always fine; a shared endpoint is fine only when both
    intervals are open there.
    """
    return _compatible_ends(i.lo, i.lo_kind, i.hi, i.hi_kind, j.lo, j.lo_kind, j.hi, j.hi_kind)
