"""Hand-transcribed reference data for one segment.

The ten maximal rigid encodings on a single segment and their five
projected images on the three-vertex segment quiver, kept literal so the
enumerators are checked against fixed values rather than against
themselves.  The encodings come in pairs sharing their anchored summands
and differing in the family side; each pair projects onto one image.
"""

from maxrigid import (
    CLOSED,
    LEFT,
    OPEN,
    RIGHT,
    BreakpointRep,
    Breakpoints,
    BreakSummand,
    FamilyChoice,
    FiniteInterval,
)

from oracles import canonicalize


def _rep(grid, summands, family):
    return canonicalize(
        BreakpointRep(grid=grid, summands=tuple(summands), families=(family,))
    )


def ten_reps(grid: Breakpoints) -> list[BreakpointRep]:
    """The complete list for n=1, ordered in projection pairs."""
    full_cc = BreakSummand(0, CLOSED, 1, CLOSED)
    full_oc = BreakSummand(0, OPEN, 1, CLOSED)
    full_co = BreakSummand(0, CLOSED, 1, OPEN)
    full_oo = BreakSummand(0, OPEN, 1, OPEN)
    pt0 = BreakSummand(0, CLOSED, 0, CLOSED)
    pt1 = BreakSummand(1, CLOSED, 1, CLOSED)

    right_closed = FamilyChoice(0, RIGHT, 1, CLOSED)
    right_open = FamilyChoice(0, RIGHT, 1, OPEN)
    left_closed = FamilyChoice(0, LEFT, 0, CLOSED)
    left_open = FamilyChoice(0, LEFT, 0, OPEN)

    return [
        _rep(grid, [full_cc, full_oc, pt1], right_closed),
        _rep(grid, [full_cc, full_oc, pt1], left_open),
        _rep(grid, [full_cc, full_oc, full_oo], right_open),
        _rep(grid, [full_cc, full_oc, full_oo], left_open),
        _rep(grid, [full_cc, full_co, full_oo], right_open),
        _rep(grid, [full_cc, full_co, full_oo], left_open),
        _rep(grid, [pt0, pt1, full_cc], right_closed),
        _rep(grid, [pt0, pt1, full_cc], left_closed),
        _rep(grid, [pt0, full_co, full_cc], right_open),
        _rep(grid, [pt0, full_co, full_cc], left_closed),
    ]


def five_projected_sets() -> list[frozenset[FiniteInterval]]:
    """Projected images on the 3-vertex segment quiver, one per pair above."""
    f = FiniteInterval
    return [
        frozenset({f(1, 3), f(3, 3), f(2, 3)}),
        frozenset({f(1, 3), f(2, 2), f(2, 3)}),
        frozenset({f(1, 3), f(2, 2), f(1, 2)}),
        frozenset({f(1, 1), f(3, 3), f(1, 3)}),
        frozenset({f(1, 1), f(1, 2), f(1, 3)}),
    ]
