"""Transfer between continuous encodings and finite linear quivers.

Endpoint flavors become vertex choices on two auxiliary quivers:

  * the *refined* quiver has 3n+1 vertices: each breakpoint a_i flanked
    by one-sided satellites a_i+ (just after) and a_i- (just before);
  * the *segment* quiver has 2n+1 vertices: the breakpoints interleaved
    with one vertex per open segment.

``project`` maps a breakpoint representation to the segment quiver: families
vanish, closed ends stay on breakpoint vertices and open ends move inward to
the segment vertex.  ``condense`` and ``expand`` translate between the
refined and segment quivers (a bijection on interval modules).  Over maximal
rigid sets ``project`` is onto and every image has exactly 2^n preimages:
per segment the family side is left or right, and for each side the summands
force the anchor, which ``fiber_reps`` reads off one pass over the family
rows of ``_Tables.adj``.  Both stay on integers until they build their
output: ``fiber_reps`` maps each image interval (a, b) to its summand vertex
through one index per n, and ``project`` unions cached one-interval sets.

``discretized_compatible`` is the independent oracle for the interval
compatibility predicate: it replays a pair of flavored intervals as
interval modules on an ad-hoc linear quiver (every endpoint gets its own
satellites) and asks for Ext vanishing in both directions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

from .cliques import bits, is_clique
from .continuous import (
    LEFT,
    RIGHT,
    BreakpointRep,
    Breakpoints,
    BreakSummand,
    Side,
    _tables,
    validate_rep,
)
from .counting import claim
from .intervals import CLOSED, OPEN, Interval
from .finite import FiniteInterval, LinearQuiver, _single, ext_dim


class NotMaximalRigidImageError(ValueError):
    """``fiber_reps`` got a segment-quiver set that is not maximal rigid."""


def segment_quiver(n: int) -> LinearQuiver:
    """The 2n+1 vertex quiver a_0, a_01, a_1, a_12, ..., a_n.

    Vertex 2i+1 is breakpoint a_i and vertex 2i+2 the open segment from a_i to a_{i+1}.
    """
    return LinearQuiver(2 * n + 1)


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
    """The summands' image on the segment quiver: a_i is 2i+1, an OPEN (== 1) end moves inward.

    The image is the union of the cached one-interval sets
    ``finite._single``, so no ``FiniteInterval`` is built or hashed per call.
    """
    validate_rep(rep)
    return frozenset().union(
        *[_single(2 * s.lo + 1 + s.lo_kind, 2 * s.hi + 1 - s.hi_kind) for s in rep.summands]
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


@functools.cache
def _image_index(n: int) -> tuple[dict[tuple[int, int], int], list[tuple[int, Side]]]:
    """The summand vertex of each segment-quiver interval (a, b), and the (segment, side) pairs.

    The vertices are those of ``_tables(n)`` and the end map is ``project``'s.
    """
    index = {
        (2 * s.lo + 1 + s.lo_kind, 2 * s.hi + 1 - s.hi_kind): v
        for v, s in enumerate(_tables(n).summands)
    }
    return index, list(itertools.product(range(n), (LEFT, RIGHT)))


def fiber_reps(image: Iterable[FiniteInterval], grid: Breakpoints) -> list[BreakpointRep]:
    """The 2^n preimages of a maximal rigid segment-quiver set.

    Reads ``image`` once and maps each interval to its summand vertex of
    ``_Tables.adj``.  Raises NotMaximalRigidImageError unless those are
    2n+1 distinct vertices forming a clique: exact, as compatibility is Ext
    vanishing on images and 2n+1 rigid modules tilt.  The forced families
    are then the family rows that hold every summand, and a ``claim`` checks
    there is one per (segment, side).  Vertex order is dataclass order and
    "left" < "right", so the summands come out sorted, the families pair up
    per segment and ``product`` yields the reps in ``rep_sort_key`` order.
    The reps share the table's own summand and family objects.
    """
    n = grid.n
    tables = _tables(n)
    index, sides = _image_index(n)
    image = list(image)
    smask = 0
    for s in image:
        v = index.get((s.a, s.b))
        if v is None:
            raise ValueError(f"summand {s} out of range on the segment quiver")
        smask |= 1 << v
    if not len(image) == smask.bit_count() == 2 * n + 1 or not is_clique(tables.adj, smask):
        names = ",".join(map(str, pull_back_summands(image, n)))
        raise NotMaximalRigidImageError(f"NotMaximalRigidImage({names})")
    summands = tuple(tables.summands[v] for v in bits(smask))
    rows = tables.adj[len(tables.summands) :]
    fams = [fam for fam, row in zip(tables.families, rows) if row & smask == smask]
    claim([(fam.segment, fam.side) for fam in fams] == sides, "one forced anchor per segment side")
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
