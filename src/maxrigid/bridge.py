"""Transfer between continuous encodings and finite linear quivers.

Endpoint flavors become vertex choices on two auxiliary quivers:

  * the *refined* quiver has 3n+1 vertices: each breakpoint a_i flanked
    by one-sided satellites a_i+ (just after) and a_i- (just before);
  * the *segment* quiver has 2n+1 vertices: the breakpoints interleaved
    with one vertex per open segment.

Projecting a breakpoint representation drops the generic families and
rewrites each anchored summand on the refined quiver, then merges each
segment's two satellites into the segment vertex (a bijection on interval
modules); ``project`` does both in one step.  Over maximal rigid sets it is
onto and every image has exactly 2^n preimages: per segment the family side
is left or right, and for each side the summands force the anchor, which
``fiber_reps`` reads off one pass over the family rows of ``_Tables.adj``.

``discretized_compatible`` is the independent oracle for the interval
compatibility predicate: it replays a pair of flavored intervals as
interval modules on an ad-hoc linear quiver (every endpoint gets its own
satellites) and asks for Ext vanishing in both directions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .cliques import is_clique
from .continuous import (
    LEFT,
    RIGHT,
    BreakpointRep,
    Breakpoints,
    BreakSummand,
    FamilyChoice,
    Side,
    _tables,
    validate_rep,
)
from .intervals import CLOSED, OPEN, BoundaryKind, Interval
from .finite import FiniteInterval, LinearQuiver, ext_dim


class NoAnchorError(RuntimeError):
    """No admissible family anchor survives against the given summands."""


class AmbiguousAnchorError(RuntimeError):
    """More than one family anchor survives; the summands underdetermine it."""


class NotMaximalRigidImageError(ValueError):
    """``fiber_reps`` got a segment-quiver set that is not maximal rigid."""


def refined_quiver(n: int) -> LinearQuiver:
    """The 3n+1 vertex quiver a_0, a_0+, a_1-, a_1, ..., a_n-, a_n."""
    labels = []
    for i in range(n + 1):
        labels.append(f"a{i}")
        if i < n:
            labels.append(f"a{i}+")
            labels.append(f"a{i + 1}-")
    return LinearQuiver(3 * n + 1, tuple(labels))


def segment_quiver(n: int) -> LinearQuiver:
    """The 2n+1 vertex quiver a_0, a_01, a_1, a_12, ..., a_n."""
    labels = []
    for i in range(n + 1):
        labels.append(f"a{i}")
        if i < n:
            labels.append(f"a{i}{i + 1}")
    return LinearQuiver(2 * n + 1, tuple(labels))


@dataclass(frozen=True)
class RefinedRep:
    """Interval modules on the refined quiver avoiding forbidden endpoints.

    Vertices are 1-based; breakpoint a_i sits at 3i+1, its right satellite
    a_i+ at 3i+2 and its left satellite a_i- at 3i.  No summand may start
    at a left satellite or end at a right satellite.
    """

    n: int
    summands: frozenset[FiniteInterval]

    def __post_init__(self):
        top = 3 * self.n + 1
        for s in self.summands:
            if s.b > top:
                raise ValueError(f"summand {s} out of range on the refined quiver")
            if s.a % 3 == 0:
                raise ValueError(f"summand {s} starts at a left satellite")
            if s.b % 3 == 2:
                raise ValueError(f"summand {s} ends at a right satellite")


def to_refined(rep: BreakpointRep) -> RefinedRep:
    """Rewrite the anchored summands on the refined quiver; families vanish."""
    validate_rep(rep)
    out = set()
    for s in rep.summands:
        a = 3 * s.lo + 1 if s.lo_kind is CLOSED else 3 * s.lo + 2
        b = 3 * s.hi + 1 if s.hi_kind is CLOSED else 3 * s.hi
        out.add(FiniteInterval(a, b))
    return RefinedRep(rep.grid.n, frozenset(out))


def condense(refined: RefinedRep) -> frozenset[FiniteInterval]:
    """Merge satellites into segment vertices: a bijection onto the segment quiver."""
    out = set()
    for s in refined.summands:
        if s.a % 3 == 1:
            u = 2 * (s.a - 1) // 3 + 1
        else:  # right satellite a_i+
            u = 2 * (s.a - 2) // 3 + 2
        if s.b % 3 == 1:
            v = 2 * (s.b - 1) // 3 + 1
        else:  # left satellite a_j-
            v = 2 * s.b // 3
        out.add(FiniteInterval(u, v))
    return frozenset(out)


def expand(image: Iterable[FiniteInterval], n: int) -> RefinedRep:
    """Inverse of :func:`condense`."""
    top = 2 * n + 1
    out = set()
    for s in image:
        if s.b > top:
            raise ValueError(f"summand {s} out of range on the segment quiver")
        a = 3 * (s.a - 1) // 2 + 1 if s.a % 2 == 1 else 3 * (s.a - 2) // 2 + 2
        b = 3 * (s.b - 1) // 2 + 1 if s.b % 2 == 1 else 3 * s.b // 2
        out.add(FiniteInterval(a, b))
    return RefinedRep(n, frozenset(out))


def project(rep: BreakpointRep) -> frozenset[FiniteInterval]:
    """``condense(to_refined(rep))`` in one step: a_i is 2i+1, an OPEN (== 1) end moves inward."""
    validate_rep(rep)
    return frozenset(
        FiniteInterval(2 * s.lo + 1 + s.lo_kind, 2 * s.hi + 1 - s.hi_kind) for s in rep.summands
    )


def pull_back_summands(image: Iterable[FiniteInterval], n: int) -> tuple[BreakSummand, ...]:
    """The anchored summands that ``project`` maps onto the set; odd vertices are closed ends."""
    top = 2 * n + 1
    out = []
    for s in image:
        if s.b > top:
            raise ValueError(f"summand {s} out of range on the segment quiver")
        lo_kind, hi_kind = (OPEN, CLOSED)[s.a % 2], (OPEN, CLOSED)[s.b % 2]
        out.append(BreakSummand((s.a - 1) // 2, lo_kind, s.b // 2, hi_kind))
    return tuple(sorted(out))


def _forced_families(n: int, smask: int, keys: Iterable) -> list[FamilyChoice]:
    """Per (segment, side) key, the one family row of ``_tables(n)`` holding all of ``smask``."""
    tables = _tables(n)
    survivors: dict[tuple[int, Side], list[FamilyChoice]] = {}  # the table's own objects
    for fam, row in zip(tables.families, tables.adj[len(tables.summands) :]):
        if row & smask == smask:
            survivors.setdefault((fam.segment, fam.side), []).append(fam)
    out = []
    for segment, side in keys:
        fams = survivors.get((segment, side), [])
        if not fams:
            raise NoAnchorError(f"no anchor for segment {segment}, side {side}")
        if len(fams) > 1:
            anchors = [(fam.anchor, fam.anchor_kind) for fam in fams]
            raise AmbiguousAnchorError(f"anchors {anchors} all fit segment {segment}, side {side}")
        out.append(fams[0])
    return out


def forced_anchor(
    segment: int, side: Side, summands: Iterable[BreakSummand], n: int
) -> tuple[int, BoundaryKind]:
    """The unique (anchor, flavor) whose family is compatible with the summands.

    Searched in the pass over the family rows of ``_Tables.adj`` that
    ``fiber_reps`` makes.  Zero or several survivors mean the summands do
    not come from a maximal rigid projection and abort loudly.
    """
    (fam,) = _forced_families(n, _tables(n).mask(summands), [(segment, Side(side))])
    return fam.anchor, fam.anchor_kind


def fiber_reps(image: Iterable[FiniteInterval], grid: Breakpoints) -> list[BreakpointRep]:
    """The 2^n preimages of a maximal rigid segment-quiver set.

    Raises NotMaximalRigidImageError unless the pulled-back summands are
    2n+1 distinct vertices forming a clique of ``_Tables.adj``: exact, as
    compatibility is Ext vanishing on images and 2n+1 rigid modules tilt.
    The reps share the summands and the table's families and come in
    ``rep_sort_key`` order: ``product`` takes "left" before "right".
    """
    n = grid.n
    tables = _tables(n)
    summands = pull_back_summands(image, n)
    smask = tables.mask(summands)
    if not len(summands) == smask.bit_count() == 2 * n + 1 or not is_clique(tables.adj, smask):
        raise NotMaximalRigidImageError(f"NotMaximalRigidImage({','.join(map(str, summands))})")
    fams = _forced_families(n, smask, itertools.product(range(n), (LEFT, RIGHT)))
    pairs = zip(fams[0::2], fams[1::2])  # (left, right) per segment
    return [BreakpointRep(grid, summands, fs) for fs in itertools.product(*pairs)]


def discretized_compatible(i: Interval, j: Interval) -> bool:
    """Replay a pair of intervals on an ad-hoc quiver and test Ext vanishing.

    Every endpoint p of the two intervals contributes three consecutive
    vertices p-, p, p+; a closed end lands on p, an open lower end on p+
    and an open upper end on p-.  The pair is compatible exactly when Ext
    vanishes in both directions between the translated modules.
    """
    points = sorted({i.lo, i.hi, j.lo, j.hi})
    index = {p: k for k, p in enumerate(points)}
    quiver = LinearQuiver(3 * len(points))

    def translate(iv: Interval) -> FiniteInterval:
        k = index[iv.lo]
        a = 3 * k + 2 if iv.lo_kind is CLOSED else 3 * k + 3
        l = index[iv.hi]
        b = 3 * l + 2 if iv.hi_kind is CLOSED else 3 * l + 1
        return FiniteInterval(a, b)

    fi, fj = translate(i), translate(j)
    return ext_dim(quiver, fi, fj) == 0 and ext_dim(quiver, fj, fi) == 0
