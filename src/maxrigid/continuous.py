"""Finite encodings of interval-decomposable representations on a subdivided line.

A representation is stored against a grid of breakpoints
``0 = a_0 < a_1 < ... < a_n = 1`` as

  * ``summands``: flavored intervals whose endpoints are breakpoints, and
  * ``families``: one choice per open segment of a two-member family of
    generic-endpoint intervals.  A right-sided family contributes, for
    every x in the segment, the pair with both flavors at the moving left
    end and a fixed anchored right end; a left-sided family is the mirror
    image.  The anchor is a breakpoint with its own boundary flavor.

Rigidity and maximality are read off one compatibility graph per n
(``_Tables``): its vertices are every breakpoint summand and every family
choice, and a rep is rigid when its vertices form a clique and maximal
rigid when no breakpoint summand extends that clique (``cliques``).  The
maximal rigid encodings are the maximal cliques of that graph, so one
Bron-Kerbosch run lists them (``enumerate_maximal_rigid_reps``).  Each
family stands at one generic position of its segment, and the graph is
Ext^1 vanishing on the segment quiver of the breakpoints and those
positions; ``_Tables`` says why both are exact and why generic-endpoint
summands need no vertex.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import compress

from .cliques import common_neighbourhood, max_cliques
from .counting import _check_count, claim
from .finite import _check_cap, _collector_paused, _pair_tables, _rank
from .intervals import (
    CLOSED,
    OPEN,
    BoundaryKind,
    EmptyIntervalError,
    Interval,
    InvertedIntervalError,
    Point,
    _check_ints,
    _check_kinds,
    _exact,
)


class Side(str, Enum):
    LEFT = "left"
    RIGHT = "right"

    def __str__(self) -> str:
        return self.value


LEFT = Side.LEFT
RIGHT = Side.RIGHT

MAX_N = 5  # the enumeration cap: n=5 already has 1,881,152 maximal rigid reps


class InvalidRepError(ValueError):
    """Base error for malformed representation encodings."""


class DuplicateSummandError(InvalidRepError):
    def __init__(self, summand):
        super().__init__(f"DuplicateSummand({summand})")


class MissingFamilyError(InvalidRepError):
    def __init__(self, segment: int):
        super().__init__(f"MissingFamily({segment})")


class DuplicateFamilyError(InvalidRepError):
    def __init__(self, segment: int):
        super().__init__(f"DuplicateFamily({segment})")


class BadAnchorRangeError(InvalidRepError):
    def __init__(self, family):
        super().__init__(
            f"BadAnchorRange(segment={family.segment}, side={family.side}, anchor={family.anchor})"
        )


class NotRigidError(ValueError):
    """Maximality was asked of a representation that is not rigid."""


@dataclass(frozen=True, order=True, slots=True)
class BreakSummand:
    """A flavored interval with both endpoints at breakpoints, by index.

    ``code`` is b * b + a for the image [a, b] under ``bridge.project``; as
    1 <= a <= b, equal codes mean equal summands, whatever n, and
    b = isqrt(code) (``bridge._single`` keys its cache by it).  It takes no
    part in equality, hashing, ordering or printing.
    """

    lo: int
    lo_kind: BoundaryKind
    hi: int
    hi_kind: BoundaryKind
    code: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the checks ``as_interval`` would make, on the indices themselves
        _check_kinds(self.lo_kind, self.hi_kind)
        _check_ints(self.lo, self.hi)
        for i in (self.lo, self.hi):
            if i < 0:
                raise ValueError(f"negative point index: {i}")
        if self.hi < self.lo:
            raise InvertedIntervalError(f"InvertedInterval(a{self.lo} > a{self.hi})")
        if self.lo == self.hi and (self.lo_kind is not CLOSED or self.hi_kind is not CLOSED):
            raise EmptyIntervalError(f"EmptyInterval(open end at a{self.lo})")
        b = 2 * self.hi + 1 - self.hi_kind
        object.__setattr__(self, "code", b * b + 2 * self.lo + 1 + self.lo_kind)

    def as_interval(self) -> Interval:
        return Interval(
            Point.breakpoint(self.lo), self.lo_kind, Point.breakpoint(self.hi), self.hi_kind
        )

    def __str__(self) -> str:
        lb = "[" if self.lo_kind is CLOSED else "("
        rb = "]" if self.hi_kind is CLOSED else ")"
        return f"{lb}a{self.lo},a{self.hi}{rb}"


@dataclass(frozen=True, order=True, slots=True)
class FamilyChoice:
    """One segment's two-member family of generic-endpoint intervals.

    For ``side == RIGHT`` the members at position x are the intervals
    from x (closed resp. open) to breakpoint ``anchor`` with flavor
    ``anchor_kind``; for ``side == LEFT`` the anchored end is on the left
    and x is the upper end.
    """

    segment: int
    side: Side
    anchor: int
    anchor_kind: BoundaryKind

    def __post_init__(self):
        _check_kinds(self.anchor_kind)
        _check_ints(self.segment, self.anchor)
        if self.segment < 0 or self.anchor < 0:
            raise ValueError("segment and anchor indices must be nonnegative")
        if not isinstance(self.side, Side):  # as for kinds, "right" is not RIGHT
            raise TypeError(f"not a Side: {self.side!r}")

    def members(self, x: Point) -> tuple[Interval, Interval]:
        far, kind = Point.breakpoint(self.anchor), self.anchor_kind
        if self.side is RIGHT:
            return Interval(x, CLOSED, far, kind), Interval(x, OPEN, far, kind)
        return Interval(far, kind, x, CLOSED), Interval(far, kind, x, OPEN)

    def __str__(self) -> str:
        kb_open, kb_close = ("[", "]") if self.anchor_kind is CLOSED else ("(", ")")
        if self.side is RIGHT:
            pair = f"{{[x,a{self.anchor}{kb_close},(x,a{self.anchor}{kb_close}}}"
        else:
            pair = f"{{{kb_open}a{self.anchor},x],{kb_open}a{self.anchor},x)}}"
        return f"{pair}@seg{self.segment}"


@dataclass(frozen=True, slots=True)
class Breakpoints:
    """The subdivision 0 = a_0 < a_1 < ... < a_n = 1 (exact rationals).

    Each value goes through ``intervals._exact``, so a float, a boolean or
    a decimal or exponent string raises TypeError.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(map(_exact, self.values))
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError("need at least two breakpoints")
        if vals[0] != 0 or vals[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def uniform(cls, n: int) -> "Breakpoints":
        _check_count(n, "segment")
        return cls(tuple(Fraction(i, n) for i in range(n + 1)))

    @property
    def n(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True, slots=True)
class BreakpointRep:
    """A finitely encoded representation: grid, anchored summands, families."""

    grid: Breakpoints
    summands: tuple[BreakSummand, ...]
    families: tuple[FamilyChoice, ...]


def sample_offsets(k: int) -> tuple[Fraction, ...]:
    """k equispaced interior fractions; k=2 gives (1/3, 2/3)."""
    return tuple(Fraction(i, k + 1) for i in range(1, k + 1))


def _lowest_unnamed(named, n: int) -> int:
    """The lowest of segments 0..n-1 not in ``named``; the caller knows one is missing."""
    return next(j for j in range(n) if j not in named)


def _summand_codes(rep: BreakpointRep) -> set[int]:
    """Make ``validate_rep``'s checks; the set of the summands' ``code``s."""
    n = rep.grid.n
    codes = set()
    for s in rep.summands:
        if s.lo < 0 or s.hi > n:
            raise InvalidRepError(f"SummandIndexOutOfRange({s})")
        if s.code in codes:
            raise DuplicateSummandError(s)
        codes.add(s.code)
    by_segment: dict[int, FamilyChoice] = {}
    for f in rep.families:
        if not 0 <= f.segment < n:
            raise InvalidRepError(f"SegmentOutOfRange({f.segment})")
        if f.segment in by_segment:
            raise DuplicateFamilyError(f.segment)
        by_segment[f.segment] = f
        if f.side is RIGHT and not f.segment + 1 <= f.anchor <= n:
            raise BadAnchorRangeError(f)
        if f.side is LEFT and not 0 <= f.anchor <= f.segment:
            raise BadAnchorRangeError(f)
    if len(by_segment) < n:
        raise MissingFamilyError(_lowest_unnamed(by_segment, n))
    return codes


def validate_rep(rep: BreakpointRep) -> None:
    """Raise InvalidRepError unless the encoding is well formed.

    Checks summand index ranges and distinctness (by ``BreakSummand.code``,
    so no dataclass ``__hash__`` runs), one family per segment, and the
    side/anchor range constraint (a right family must anchor beyond its
    segment, a left family at or before it).  The first fault in summand
    order, then family order, is the one raised.
    """
    _summand_codes(rep)


def is_uniform(rep: BreakpointRep) -> bool:
    """Whether the encoding satisfies the profile conditions of the class.

    From every generic point c the visible far endpoints must be
    breakpoints, must not depend on the flavor at c, must be constant
    across c's segment, and exactly one anchored family must be visible.
    On an encoding that ``validate_rep`` accepts these all hold by
    construction: summands have breakpoint ends only, so none has an end
    at c; the members of another segment's family move in that segment;
    so c sees exactly the two members of its own segment's family, one
    anchor paired across both flavors at c.  Encodings that
    ``validate_rep`` rejects are not uniform, so the conditions are
    exactly that it does not raise.
    """
    try:
        validate_rep(rep)
    except InvalidRepError:
        return False
    return True


def is_rigid(rep: BreakpointRep) -> bool:
    """Whether the rep's summands and families form a clique of ``_Tables.adj``.

    One generic position per segment settles the continuum statement for
    valid encodings (``_Tables``).  Two members of one family are always
    nested, and a valid rep has one family per segment, so the graph's
    edges cover every pair that has to be checked.
    """
    _, mask, common = _vertex_mask(rep)
    return common & mask == mask


def all_break_summands(n: int) -> list[BreakSummand]:
    """Every flavored breakpoint interval on n segments, built in dataclass order."""
    return [
        BreakSummand(i, lk, j, hk)
        for i in range(n + 1) for lk in (CLOSED, OPEN)
        for j in range(i, n + 1) for hk in (CLOSED, OPEN)
        if j > i or lk is hk is CLOSED  # at j = i only the point module [a_i, a_i]
    ]


def all_family_choices(n: int) -> list[FamilyChoice]:
    """Every admissible family choice on n segments, built in dataclass order: segment j
    takes left anchors 0..j, then right ones, so f is at (2n+2)*segment + 2*anchor + kind."""
    return [
        FamilyChoice(j, LEFT if s <= j else RIGHT, s, kind)
        for j in range(n) for s in range(n + 1) for kind in (CLOSED, OPEN)
    ]


class _Tables:
    """The compatibility graph for n segments: the one integer core.

    Vertex ``si < S`` is the breakpoint summand ``summands[si]`` and vertex
    ``S + fi`` is the family choice ``families[fi]``, where ``S`` is the
    summand count: summand ``s`` is ``code_vertex[s.code]``, and a family's
    ``fi`` is a formula of it (``all_family_choices``).  Two vertices are adjacent in
    ``adj`` when every member of one is compatible with every member of the
    other; ``cliques.common_neighbourhood`` over ``closed[v] = adj[v] | 1 << v``
    decides rigidity, maximality and ``bridge.fiber_reps``' forced families;
    ``sides`` lists the (segment, side) pair of each of those in family order.

    The rows are read off the finite model.  The 2n+1 points a_0 < x_0 <
    a_1 < ... < a_n, x_j the one generic position of segment j, have the
    segment quiver A_{4n+1}: a_i is vertex 4i+1, x_j is 4j+3 and the gaps
    between points are the even vertices.  Under ``bridge.project``'s rule
    (a closed end stays on its point, an open end moves inward to the gap)
    a summand is one interval there and a family is two, and two flavored
    intervals are compatible exactly when their images have no Ext^1 either
    way.  So v is in u's closed row when every member of v is in the
    ``common_neighbourhood`` of u's members in ``_pair_tables``.  One
    position per segment is enough: compatibility depends only on the order
    pattern of the ends, and a family's moving end has one pattern against
    every breakpoint and against every other segment's moving end.

    Two families on one segment are never adjacent, as a rep holds one
    family per segment: their members share the moving end x.  A right and
    a left family cross at ``[x,b*]`` and ``[a*,x]``; two right families
    whose anchored ends differ, B < B' as flavored points, cross at
    ``[x,B]`` and ``(x,B']``; two left families are the mirror image.

    Generic-endpoint summands need no vertex.  Each one either has the shape
    of the family on the segment of its lower generic endpoint, and is then
    already present, or is incompatible with some member of that family.
    For a right family ``[y,b*], (y,b*]`` on segment j (a left family is
    the mirror image), a candidate whose lower end x is generic in j is:

      * a point module ``[x,x]``, which collides with ``(x,b*]``;
      * an interval with two generic ends or with the moving end on the
        right, which crosses ``[y,b*]`` for some y in j;
      * an interval ``(x,b'*']`` of the family's shape, which crosses a
        member on one side of x if ``b' != b`` and is not nested with one
        if the anchor flavors differ.

    So a summand set is maximal rigid as soon as no breakpoint summand can
    be added (``is_maximal_rigid``).
    """

    def __init__(self, n: int):
        self.n = n
        self.summands = all_break_summands(n)
        vertex = {s.code: v for v, s in enumerate(self.summands)}
        self.code_vertex = [vertex.get(c) for c in range(max(vertex) + 1)]
        self.families = all_family_choices(n)
        self.sides = [(j, side) for j in range(n) for side in (LEFT, RIGHT)]
        self.summand_mask = (1 << len(self.summands)) - 1

        m = 4 * n + 1
        ranks = [[_rank(m, 4 * s.lo + 1 + s.lo_kind, 4 * s.hi + 1 - s.hi_kind)]
                 for s in self.summands]
        for f in self.families:  # d = 0: the member closed at x; d = 1: the open one
            x, far = 4 * f.segment + 3, 4 * f.anchor + 1
            if f.side is RIGHT:
                ranks.append([_rank(m, x + d, far - f.anchor_kind) for d in (0, 1)])
            else:
                ranks.append([_rank(m, far + f.anchor_kind, x - d) for d in (0, 1)])
        masks = [sum(1 << r for r in rs) for rs in ranks]
        rows = _pair_tables(m)
        commons = [common_neighbourhood(rows, rs) for rs in ranks]
        self.closed = [sum([1 << v for v, k in enumerate(masks) if c & k == k]) for c in commons]
        self.adj = [row ^ 1 << v for v, row in enumerate(self.closed)]


_tables = functools.cache(_Tables)


def _vertex_mask(rep: BreakpointRep) -> tuple[_Tables, int, int]:
    """Validate the rep; its n's tables, vertex bitmask and ``common_neighbourhood``."""
    codes = _summand_codes(rep)
    tables = _tables(rep.grid.n)
    vertex, base, step = tables.code_vertex, len(tables.summands), 2 * tables.n + 2
    vertices = [vertex[c] for c in codes]
    vertices += [base + step * f.segment + 2 * f.anchor + f.anchor_kind for f in rep.families]
    return tables, sum([1 << v for v in vertices]), common_neighbourhood(tables.closed, vertices)


def is_maximal_rigid(rep: BreakpointRep) -> bool:
    """Whether the rep is a clique of ``_Tables.adj`` that no summand extends.

    Raises NotRigidError when the representation is not rigid (not a
    clique).  Only breakpoint summands are tried: a generic-endpoint one
    never extends a rep (the argument is in ``_Tables``).
    """
    tables, mask, common = _vertex_mask(rep)
    if common & mask != mask:
        raise NotRigidError("NotRigid")
    return common & tables.summand_mask == mask & tables.summand_mask


def rep_sort_key(rep: BreakpointRep):
    return (rep.summands, rep.families)


def enumerate_maximal_rigid_reps(grid: Breakpoints, max_n: int = MAX_N) -> list[BreakpointRep]:
    """All maximal rigid encodings on the grid, canonical and sorted.

    These are the maximal cliques of ``_Tables.adj`` that hold one family
    per segment, which every maximal clique does (the third point), so
    one Bron-Kerbosch run over the whole graph lists them:

      * every maximal rigid rep is a maximal clique (proven): no summand
        extends it, and no family does, as the rep has a family on every
        segment and two families on one segment are never adjacent;
      * a maximal clique with one family per segment is a maximal rigid
        rep (proven): it is well formed, a clique, and no breakpoint
        summand extends it, nor does a generic-endpoint one (``_Tables``);
      * every maximal clique has a family on every segment (checked, not
        proven): a clique holds at most one family per segment, and a
        ``claim`` on each distinct family mask that it holds n family
        vertices stops the run with ClaimError on a counterexample.

    The search runs on the graph with its vertex numbering reversed:
    vertex v of ``_Tables`` is bit V-1-v, so the summands, which come
    first there, are the high bits and the families the low ones, and the
    binary digits of a mask, most significant first, list its vertices in
    ``_Tables`` order.  One plain descending sort of the clique masks is
    then ``rep_sort_key`` order, by this argument.  Both vertex ranges
    follow ``all_break_summands`` and ``all_family_choices``, which are
    built in dataclass order, so comparing two reps is comparing their
    ascending summand vertex tuples, then their family vertex tuples.  Of
    two vertex sets of equal size, the one holding the lowest vertex in
    which they differ has the lexicographically smaller tuple and, with
    the numbering reversed, the higher mask.  The summand part of a mask
    lies above its family part, so the masks compare by summand set first
    and by family set on a tie, and each of those comparisons is between
    sets of equal size as long as every clique holds 2n+1 summands and n
    families.  Hence a second ``claim``, on each distinct summand mask,
    that it holds 2n+1 summands (checked, not proven here: it holds when
    the summands' image under ``bridge.project`` is a tilting set on
    A_{2n+1}, which has 2n+1 members).

    The reps are built in one pass over the sorted masks.  Each new
    summand mask makes one summand tuple, which its reps share, and each
    distinct family mask makes one family tuple, kept for the call and
    shared by every rep with those families.  The search, the sort and
    the build run with the garbage collector paused, as
    ``finite.enumerate_maximal_rigid`` builds its sets: the reps hold no
    reference cycles.  ``max_n`` (default ``MAX_N``) guards against
    accidental huge runs.
    """
    n = grid.n
    _check_cap("n", n, max_n)
    tables = _tables(n)
    width, split = len(tables.adj), len(tables.families)
    adj = [int(format(row, f"0{width}b")[::-1], 2) for row in reversed(tables.adj)]
    low = (1 << split) - 1
    flags = bytes.maketrans(b"01", b"\0\1")

    def members(items: list, mask: int) -> tuple:
        """The items whose vertex bit is set: the mask's digits, one per item, as 0/1 bytes."""
        return tuple(compress(items, format(mask, f"0{len(items)}b").encode().translate(flags)))

    family_tuples: dict[int, tuple[FamilyChoice, ...]] = {}
    last, out = -1, []
    with _collector_paused():
        cliques = max_cliques(adj)
        cliques.sort(reverse=True)
        for clique in cliques:
            smask = clique >> split
            if smask != last:
                last = smask
                summands = members(tables.summands, smask)
                claim(len(summands) == 2 * n + 1, "every maximal clique holds 2n+1 summands")
            fmask = clique & low
            families = family_tuples.get(fmask)
            if families is None:
                families = members(tables.families, fmask)
                claim(len(families) == n, "every maximal clique holds one family per segment")
                family_tuples[fmask] = families
            out.append(BreakpointRep(grid, summands, families))
    return out
