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
Bron-Kerbosch run lists them (``enumerate_maximal_rigid_reps``).
Compatibility of two intervals depends only on the order pattern of their
endpoints and the boundary flavors, and a family's moving end has a single
order pattern against every breakpoint and against the moving end of any
other segment's family.  So each segment's family is placed at one generic
position, strictly between its breakpoints, and every statement quantified
over all generic positions becomes a finite bitmask test.
Generic-endpoint summands never need to be tried as additions: the family
on a segment already collides with, or has the shape of, every one of them
(see ``_Tables``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .cliques import bits, is_clique, is_maximal_clique, max_cliques
from .counting import NonPositiveCountError, claim
from .finite import ResourceLimitError
from .intervals import (
    CLOSED,
    OPEN,
    BoundaryKind,
    EmptyIntervalError,
    Interval,
    InvertedIntervalError,
    Point,
    _compatible_ends,
)


class Side(str, Enum):
    LEFT = "left"
    RIGHT = "right"

    def __str__(self) -> str:
        return self.value


LEFT = Side.LEFT
RIGHT = Side.RIGHT


class InvalidRepError(ValueError):
    """Base error for malformed representation encodings."""


class DuplicateSummandError(InvalidRepError):
    def __init__(self, summand):
        super().__init__(f"DuplicateSummand({summand})")
        self.summand = summand


class MissingFamilyError(InvalidRepError):
    def __init__(self, segment: int):
        super().__init__(f"MissingFamily({segment})")
        self.segment = segment


class DuplicateFamilyError(InvalidRepError):
    def __init__(self, segment: int):
        super().__init__(f"DuplicateFamily({segment})")
        self.segment = segment


class BadAnchorRangeError(InvalidRepError):
    def __init__(self, family):
        super().__init__(
            f"BadAnchorRange(segment={family.segment}, side={family.side}, anchor={family.anchor})"
        )
        self.family = family


class NotRigidError(ValueError):
    """Maximality was asked of a representation that is not rigid."""


@dataclass(frozen=True, order=True)
class BreakSummand:
    """A flavored interval with both endpoints at breakpoints, by index."""

    lo: int
    lo_kind: BoundaryKind
    hi: int
    hi_kind: BoundaryKind

    def __post_init__(self):
        # the checks ``as_interval`` would make, on the indices themselves
        for i in (self.lo, self.hi):
            if i < 0:
                raise ValueError(f"negative point index: {i}")
        if self.hi < self.lo:
            raise InvertedIntervalError(f"InvertedInterval(a{self.lo} > a{self.hi})")
        if self.lo == self.hi and (self.lo_kind is not CLOSED or self.hi_kind is not CLOSED):
            raise EmptyIntervalError(f"EmptyInterval(open end at a{self.lo})")

    def as_interval(self) -> Interval:
        return Interval(
            Point.breakpoint(self.lo), self.lo_kind, Point.breakpoint(self.hi), self.hi_kind
        )

    def __str__(self) -> str:
        lb = "[" if self.lo_kind is CLOSED else "("
        rb = "]" if self.hi_kind is CLOSED else ")"
        return f"{lb}a{self.lo},a{self.hi}{rb}"


@dataclass(frozen=True, order=True)
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
        if self.segment < 0 or self.anchor < 0:
            raise ValueError("segment and anchor indices must be nonnegative")
        if not isinstance(self.side, Side):
            object.__setattr__(self, "side", Side(self.side))

    def member_ends(self, x, far) -> tuple[tuple, tuple]:
        """Both members as (lo, lo_kind, hi, hi_kind), moving end x, anchored end far.

        The ends may be ``Point``s or integer ranks of points (``_Tables``).
        """
        if self.side is RIGHT:
            return (x, CLOSED, far, self.anchor_kind), (x, OPEN, far, self.anchor_kind)
        return (far, self.anchor_kind, x, CLOSED), (far, self.anchor_kind, x, OPEN)

    def members(self, x: Point) -> tuple[Interval, Interval]:
        closed, open_ = self.member_ends(x, Point.breakpoint(self.anchor))
        return Interval(*closed), Interval(*open_)

    def __str__(self) -> str:
        kb_open, kb_close = ("[", "]") if self.anchor_kind is CLOSED else ("(", ")")
        if self.side is RIGHT:
            pair = f"{{[x,a{self.anchor}{kb_close},(x,a{self.anchor}{kb_close}}}"
        else:
            pair = f"{{{kb_open}a{self.anchor},x],{kb_open}a{self.anchor},x)}}"
        return f"{pair}@seg{self.segment}"


@dataclass(frozen=True)
class Breakpoints:
    """The subdivision 0 = a_0 < a_1 < ... < a_n = 1 (exact rationals)."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError("need at least two breakpoints")
        if vals[0] != 0 or vals[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def uniform(cls, n: int) -> "Breakpoints":
        if n < 1:
            raise NonPositiveCountError("segment count must be >= 1")
        return cls(tuple(Fraction(i, n) for i in range(n + 1)))

    @property
    def n(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class BreakpointRep:
    """A finitely encoded representation: grid, anchored summands, families."""

    grid: Breakpoints
    summands: tuple[BreakSummand, ...]
    families: tuple[FamilyChoice, ...]

    @property
    def n(self) -> int:
        return self.grid.n


def sample_offsets(k: int) -> tuple[Fraction, ...]:
    """k equispaced interior fractions; k=2 gives (1/3, 2/3)."""
    return tuple(Fraction(i, k + 1) for i in range(1, k + 1))


def validate_rep(rep: BreakpointRep) -> None:
    """Raise InvalidRepError unless the encoding is well formed.

    Checks summand index ranges and distinctness, one family per segment,
    and the side/anchor range constraint (a right family must anchor
    beyond its segment, a left family at or before it).
    """
    n = rep.grid.n
    seen_summands = set()
    for s in rep.summands:
        if s.lo < 0 or s.hi > n:
            raise InvalidRepError(f"SummandIndexOutOfRange({s})")
        if s in seen_summands:
            raise DuplicateSummandError(s)
        seen_summands.add(s)
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
    for j in range(n):
        if j not in by_segment:
            raise MissingFamilyError(j)


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

    Every family is placed at one generic position of its segment, which
    realizes every order pattern a pair can exhibit, so the finite check
    settles the continuum statement for valid encodings.  Two members of
    one family are always nested, and a valid rep has one family per
    segment, so the graph's edges cover every pair that has to be checked.
    """
    validate_rep(rep)
    tables = _tables(rep.grid.n)
    return is_clique(tables.adj, tables.mask(rep.summands, rep.families))


def all_break_summands(n: int) -> list[BreakSummand]:
    """Every flavored breakpoint interval on n segments, canonically sorted."""
    out = [BreakSummand(i, CLOSED, i, CLOSED) for i in range(n + 1)]
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for lk in (CLOSED, OPEN):
                for hk in (CLOSED, OPEN):
                    out.append(BreakSummand(i, lk, j, hk))
    return sorted(out)


def all_family_choices(n: int) -> list[FamilyChoice]:
    """Every admissible family choice on n segments, canonically sorted."""
    out = []
    for j in range(n):
        for s in range(j + 1, n + 1):
            for kind in (CLOSED, OPEN):
                out.append(FamilyChoice(j, RIGHT, s, kind))
        for s in range(0, j + 1):
            for kind in (CLOSED, OPEN):
                out.append(FamilyChoice(j, LEFT, s, kind))
    return sorted(out)


class _Tables:
    """The compatibility graph for n segments: the one integer core.

    Vertex ``si < S`` is the breakpoint summand ``summands[si]`` and vertex
    ``S + fi`` is the family choice ``families[fi]``, where ``S`` is the
    summand count; ``sindex`` and ``findex`` map a summand or family to its
    vertex, and ``summand_mask`` holds the summand vertices.  ``adj[v]``
    is the neighbor bitmask of vertex v: two vertices are adjacent when
    every member of one is compatible with every member of the other.
    Rigidity is ``cliques.is_clique``, maximality
    ``cliques.is_maximal_clique`` within the summands, enumeration
    ``cliques.max_cliques`` on the whole graph, and ``bridge.fiber_reps``
    reads the family rows.

    Every pair is decided on integer ranks: breakpoint i is ``2 * i`` and
    the one generic position of segment j is ``2 * j + 1``.  That is the
    order of ``Point``, and ``_compatible_ends`` only compares endpoints,
    so each verdict equals ``compatible`` on the points.  One position per
    segment is enough: a family's moving end x has a single order pattern
    against every breakpoint and against the moving end of any other
    segment, so a verdict at one x is the verdict at every x.

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
        self.sindex = {s: i for i, s in enumerate(self.summands)}
        self.families = all_family_choices(n)
        self.findex = {f: len(self.summands) + i for i, f in enumerate(self.families)}
        self.summand_mask = (1 << len(self.summands)) - 1

        members = [((s.lo * 2, s.lo_kind, s.hi * 2, s.hi_kind),) for s in self.summands]
        members += [fam.member_ends(fam.segment * 2 + 1, fam.anchor * 2) for fam in self.families]
        self.adj = [0] * len(members)
        for u, ends in enumerate(members):
            for v in range(u + 1, len(members)):
                if all(_compatible_ends(*a, *b) for a in ends for b in members[v]):
                    self.adj[u] |= 1 << v
                    self.adj[v] |= 1 << u

    def mask(self, summands: Iterable[BreakSummand], families: Iterable[FamilyChoice] = ()) -> int:
        """The vertex bitmask of the given summands and families."""
        return sum({1 << self.sindex[s] for s in summands} | {1 << self.findex[f] for f in families})


_TABLES_CACHE: dict[int, _Tables] = {}


def _tables(n: int) -> _Tables:
    if n not in _TABLES_CACHE:
        _TABLES_CACHE[n] = _Tables(n)
    return _TABLES_CACHE[n]


def is_maximal_rigid(rep: BreakpointRep) -> bool:
    """Whether the rep is a clique of ``_Tables.adj`` that no summand extends.

    Raises NotRigidError when the representation is not rigid (not a
    clique).  Only breakpoint summands are tried: every generic-endpoint
    summand either has the shape of the family on the segment of its lower
    generic endpoint, so it is already present, or is incompatible with a
    member of that family (the argument is in ``_Tables``).
    """
    validate_rep(rep)
    tables = _tables(rep.grid.n)
    mask = tables.mask(rep.summands, rep.families)
    if not is_clique(tables.adj, mask):
        raise NotRigidError("NotRigid")
    return is_maximal_clique(tables.adj, mask, tables.summand_mask)


def rep_sort_key(rep: BreakpointRep):
    return (rep.summands, rep.families)


def _check_cap(n: int, max_n: int) -> None:
    """Raise ResourceLimitError if ``enumerate_maximal_rigid_reps`` refuses n segments."""
    if n > max_n:
        raise ResourceLimitError(f"n={n} exceeds cap {max_n}; raise max_n to proceed")


def enumerate_maximal_rigid_reps(grid: Breakpoints, max_n: int = 5) -> list[BreakpointRep]:
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
        ``claim`` on each clique that it holds n family vertices stops
        the run with ClaimError on a counterexample.

    The cliques are grouped by summand mask, the groups sorted by summand
    vertices and the family vertices sorted within each group.  Both
    vertex ranges follow ``all_break_summands`` and ``all_family_choices``,
    which are canonically sorted, so vertex order is dataclass order and
    the result is in ``rep_sort_key`` order.  The reps of one group share
    its summand tuple.
    """
    n = grid.n
    _check_cap(n, max_n)
    tables = _tables(n)
    split = len(tables.summands)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for clique in max_cliques(tables.adj):
        fams = bits(clique >> split)
        claim(len(fams) == n, "every maximal clique holds one family per segment")
        groups.setdefault(clique & tables.summand_mask, []).append(tuple(fams))
    out = []
    for smask in sorted(groups, key=bits):
        summands = tuple(tables.summands[si] for si in bits(smask))
        for fams in sorted(groups.pop(smask)):
            out.append(BreakpointRep(grid, summands, tuple(tables.families[fi] for fi in fams)))
    return out
