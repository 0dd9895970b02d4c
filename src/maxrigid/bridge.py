"""Transfer between continuous encodings and finite linear quivers.

Endpoint flavors become vertex choices on two auxiliary quivers:

  * the *refined* quiver has 3n+1 vertices: each breakpoint a_i flanked
    by one-sided satellites a_i+ (just after) and a_i- (just before);
  * the *segment* quiver has 2n+1 vertices: the breakpoints interleaved
    with one vertex per open segment.

One vertex rule places every end: a closed end on point i sits at
stride * i + 1 and an open end one vertex inward, a lower end at
stride * i + 2 and an upper end at stride * i, with stride 2 on the segment
quiver, 3 on the refined quiver and 4 on ``continuous._Tables``' A_{4n+1}
(the grid refined by one generic point per segment).  As CLOSED == 0 and
OPEN == 1, a summand [a_k, a_l] lands on [stride * k + 1 + lo_kind,
stride * l + 1 - hi_kind]; ``BreakSummand.code`` and ``_Tables`` compute
it, ``pull_back_summands`` inverts it at stride 2, ``expand`` applies it at
stride 3 to that inverse and ``condense`` takes stride 3 back to stride 2
(a bijection on interval modules).

``project`` maps a breakpoint representation to the segment quiver: families
vanish and the summands follow the rule at stride 2.  Over maximal rigid
sets ``project`` is onto and every image has exactly 2^n preimages: per
segment the family side is left or right, and for each side the summands
force the anchor, which ``fiber_reps`` reads off the summands' common
closed neighbourhood in ``_Tables``.
``verify`` does not call ``fiber_reps``: it checks the enumerator's fibers
against a rule that reads the anchors off the image alone
(``verify._forced_by_rule``), as ``fiber_reps`` reads the enumerator's
block table and closed rows: it pairs its one mask by ``_forced_pairs``, the
one-mask form of the enumerator's ``_forced_pairs_batch`` and its reference
in the tests.  ``project`` and ``fiber_reps`` stay on integers until
they build their output, by the code b * b + a of an image interval [a, b]
(``BreakSummand.code``): ``fiber_reps`` indexes
``_Tables.code_vertex`` with it, and ``project`` unions the one-interval
sets ``_single`` caches by it, so ``project`` builds nothing sized by n.

``discretized_compatible`` is the independent oracle for the interval
compatibility predicate: it replays a pair of flavored intervals as
interval modules on an ad-hoc linear quiver (every endpoint gets its own
satellites: the rule at stride 3, one vertex up) and asks for Ext vanishing
in both directions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product, repeat
from math import isqrt
from operator import itemgetter
from typing import Iterable

from .cliques import bits, common_neighbourhood
from .continuous import BreakpointRep, Breakpoints, BreakSummand, _forced_pairs, _summand_codes, _tables
from .counting import _check_count
from .intervals import CLOSED, OPEN, Interval
from .finite import FiniteInterval, LinearQuiver, _build, ext_dim


class NotMaximalRigidImageError(ValueError):
    """``fiber_reps`` got a segment-quiver set that is not maximal rigid."""


def segment_quiver(n: int) -> LinearQuiver:
    """The 2n+1 vertex quiver a_0, a_01, a_1, a_12, ..., a_n.

    Vertex 2i+1 is breakpoint a_i and vertex 2i+2 the open segment from a_i to a_{i+1}.
    """
    _check_count(n, "segment")
    return LinearQuiver(2 * n + 1)


@dataclass(frozen=True, slots=True)
class RefinedRep:
    """Interval modules on the refined quiver avoiding forbidden endpoints.

    Vertices are 1-based; breakpoint a_i sits at 3i+1, its right satellite
    a_i+ at 3i+2 and its left satellite a_i- at 3i.  No summand may start
    at a left satellite or end at a right satellite.
    """

    n: int
    summands: frozenset[FiniteInterval]

    def __post_init__(self):
        _check_count(self.n, "segment")
        top = 3 * self.n + 1
        for s in self.summands:
            if s.b > top:
                raise ValueError(f"summand {s} out of range on the refined quiver")
            if s.a % 3 == 0:
                raise ValueError(f"summand {s} starts at a left satellite")
            if s.b % 3 == 2:
                raise ValueError(f"summand {s} ends at a right satellite")


def condense(refined: RefinedRep) -> frozenset[FiniteInterval]:
    """Merge satellites into segment vertices: the module's vertex rule from stride 3 to stride 2.

    A start 3i+1 or 3i+2 goes to 2i+1 or 2i+2 and an end 3i+1 or 3i to
    2i+1 or 2i: a bijection onto the segment quiver's interval modules.
    """
    return frozenset(FiniteInterval((2 * s.a + 2) // 3, (2 * s.b + 1) // 3) for s in refined.summands)


def expand(image: Iterable[FiniteInterval], n: int) -> RefinedRep:
    """Inverse of :func:`condense`: the module's vertex rule at stride 3 on ``pull_back_summands``."""
    ends = ((3 * s.lo + 1 + s.lo_kind, 3 * s.hi + 1 - s.hi_kind) for s in pull_back_summands(image, n))
    return RefinedRep(n, frozenset(FiniteInterval(a, b) for a, b in ends))


@functools.cache
def _single(code: int) -> frozenset[FiniteInterval]:
    """{[a, b]} for the code b * b + a, built once; as 1 <= a <= b, b is isqrt(code).

    ``frozenset().union`` of these copies the hashes they store, where
    ``frozenset`` of intervals calls the dataclass ``__hash__``.
    """
    b = isqrt(code)
    return frozenset((FiniteInterval(code - b * b, b),))


def project(rep: BreakpointRep) -> frozenset[FiniteInterval]:
    """The summands' image on the segment quiver: a_i is 2i+1, an OPEN (== 1) end moves inward.

    Validated as by ``validate_rep``, the image is the union of the cached
    sets ``_single(code)`` of the summands' codes: no ``FiniteInterval`` is
    built per call once the sets are cached, no dataclass ``__hash__`` runs,
    and nothing sized by n is built.
    """
    return frozenset().union(*map(_single, _summand_codes(rep)))


def pull_back_summands(image: Iterable[FiniteInterval], n: int) -> tuple[BreakSummand, ...]:
    """The anchored summands that ``project`` maps onto the set; odd vertices are closed ends."""
    _check_count(n, "segment")
    top = 2 * n + 1
    out = []
    for s in image:
        if s.b > top:
            raise ValueError(f"summand {s} out of range on the segment quiver")
        lo_kind, hi_kind = (OPEN, CLOSED)[s.a % 2], (OPEN, CLOSED)[s.b % 2]
        out.append(BreakSummand((s.a - 1) // 2, lo_kind, s.b // 2, hi_kind))
    return tuple(sorted(out))


def fiber_reps(image: Iterable[FiniteInterval], grid: Breakpoints) -> list[BreakpointRep]:
    """The 2^n preimages of a maximal rigid segment-quiver set.

    Reads ``image`` once and maps each interval [a, b] to its summand vertex
    (code b * b + a).  Raises NotMaximalRigidImageError unless those are
    2n+1 distinct vertices forming a clique: exact, as compatibility is Ext
    vanishing on images and 2n+1 rigid modules tilt.  The forced families
    are the family bits of the summands' ``common_neighbourhood``, paired
    per segment by ``continuous._forced_pairs``, which claims one per
    (segment, side) and those of different segments pairwise adjacent.
    Vertex order is dataclass order, so the summands come out sorted and
    ``product`` yields the reps in (summands, families) order.  The reps share
    the table's own objects and one summand tuple, and are built by
    ``finite._build``, with the collector left as it is: there are only 2^n
    of them.
    ``verify`` does not call it; the tests check its families against
    ``verify._forced_by_rule`` on every image for n <= 4.
    """
    n = grid.n
    tables = _tables(n)
    image = list(image)
    smask = 0
    for s in image:
        if s.b > 2 * n + 1:
            raise ValueError(f"summand {s} out of range on the segment quiver")
        smask |= 1 << tables.code_vertex[s.b * s.b + s.a]
    vertices = bits(smask)
    common = common_neighbourhood(tables.closed, vertices)
    if not len(image) == len(vertices) == 2 * n + 1 or common & smask != smask:
        names = ",".join(map(str, pull_back_summands(image, n)))
        raise NotMaximalRigidImageError(f"NotMaximalRigidImage({names})")
    summands, family = itemgetter(*vertices)(tables.summands), tables.families
    pairs = [(family[l], family[r]) for l, r in _forced_pairs(tables, common >> len(tables.summands))]
    return _build(BreakpointRep, 1 << n, grid=repeat(grid), summands=repeat(summands), families=product(*pairs))


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
        return FiniteInterval(3 * index[iv.lo] + 2 + iv.lo_kind, 3 * index[iv.hi] + 2 - iv.hi_kind)

    fi, fj = translate(i), translate(j)
    return ext_dim(quiver, fi, fj) == 0 and ext_dim(quiver, fj, fi) == 0
