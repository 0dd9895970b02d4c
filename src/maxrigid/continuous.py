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
rigid when no breakpoint summand extends that clique (``cliques``).  Each
family stands at one generic position of its segment, and the graph is
Ext^1 vanishing on the segment quiver A_{4n+1} of the breakpoints and those
positions; ``_Tables`` says why both are exact and why generic-endpoint
summands need no vertex.  The maximal rigid encodings are 2^n per tilting
set of the segment quiver A_{2n+1}, which ``finite._gap_keys`` lists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain, product, repeat, starmap
from operator import and_, rshift

from .cliques import common_neighbourhood
from .counting import _check_count, claim
from .finite import _build, _check_cap, _enumerate, _pair_tables, _rank, _rows
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
    """Whether the rep's summands and families are in each other's ``_Tables.closed`` rows.

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
    ``fi`` is a formula of it (``all_family_choices``).  The closed row
    ``closed[v]`` holds v and every vertex adjacent to it: one whose every
    member is compatible with every member of v.  ``common_neighbourhood``
    over closed rows decides rigidity, maximality and the forced families
    (``_forced_pairs``).  ``blocks[j]`` is the shift of segment j's 2n+2
    family bits and a dict from each block of them with one left and one
    right family, by ``FamilyChoice.side``, to those (left, right) indices.

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
        sides = [([], []) for _ in range(n)]
        for fi, f in enumerate(self.families):
            sides[f.segment][f.side is RIGHT].append(fi)
        self.blocks = [(ls[0], {(1 << l | 1 << r) >> ls[0]: (l, r) for l in ls for r in rs}) for ls, rs in sides]
        self.summand_mask = (1 << len(self.summands)) - 1

        m = 4 * n + 1
        ends = [[(4 * s.lo + 1 + s.lo_kind, 4 * s.hi + 1 - s.hi_kind)] for s in self.summands]
        for f in self.families:  # d = 0: the member closed at x; d = 1: the open one
            x, far = 4 * f.segment + 3, 4 * f.anchor + 1
            ends.append([(x + d, far - f.anchor_kind) if f.side is RIGHT else (far + f.anchor_kind, x - d)
                         for d in (0, 1)])
        ranks = [[_rank(m, a, b) for a, b in pair] for pair in ends]
        rows = _pair_tables(m)
        members = [sum(1 << r for r in rs) for rs in ranks]
        commons = (common_neighbourhood(rows, rs) for rs in ranks)
        self.closed = [sum(1 << w for w, ms in enumerate(members) if common & ms == ms) for common in commons]


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
    """Whether the rep is rigid and no summand is in every one of its closed rows.

    Raises NotRigidError when the representation is not rigid (not a
    clique).  Only breakpoint summands are tried: a generic-endpoint one
    never extends a rep (the argument is in ``_Tables``).
    """
    tables, mask, common = _vertex_mask(rep)
    if common & mask != mask:
        raise NotRigidError("NotRigid")
    return common & tables.summand_mask == mask & tables.summand_mask


class _Memo(dict):
    """A dict that makes each missing value as ``make(key)`` and keeps it, so a hit is one C
    lookup.  ``make`` must not refer to the memo: that cycle would outlive the caller until
    a collection."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _forced_pairs(tables: _Tables, fmask: int) -> list[tuple[int, int]]:
    """The (left, right) indices of the families in ``fmask``, the family bits of a summand
    set's ``common_neighbourhood``, one pair per segment in segment order.

    Two ``claim``s make the pairs a fiber: there is one per (segment, side),
    as each segment's block of ``fmask`` is a key of its dict in
    ``_Tables.blocks`` (one lookup per segment; a block with two families on
    a side or none is not), and families of different segments are pairwise
    adjacent.  This is the one-mask path, which ``bridge.fiber_reps`` takes,
    and the reference that the tests hold ``_forced_pairs_batch``, the
    enumerator's batched form, to.
    """
    width = (1 << 2 * tables.n + 2) - 1
    pairs = [block.get(fmask >> shift & width) for shift, block in tables.blocks]
    claim(None not in pairs, "one forced anchor per segment side")
    closed, split, adjacent = tables.closed, len(tables.summands), fmask
    for l, r in pairs:  # keep the families adjacent to both, and l and r
        adjacent &= (closed[split + l] & closed[split + r]) >> split | 1 << l | 1 << r
    claim(adjacent == fmask, "forced families of different segments are pairwise adjacent")
    return pairs


def _forced_pairs_batch(tables: _Tables, fmasks: list[int]) -> list[tuple[tuple[int, int], ...]]:
    """``_forced_pairs`` of each mask of ``fmasks``, in order, each as a tuple, with both claims.

    The enumerator's fiber step, a batch of masks per chunk of keys.  Each
    pass is C-level over the whole batch: per segment, its block of every
    mask (``rshift``, ``and_``) is looked up in its ``_Tables.blocks`` dict,
    and the side claim, with ``_forced_pairs``' message, is that no lookup
    missed.  ``rows``, made for the call from ``tables.closed``, holds for
    each (left, right) pair that occurs the family bits adjacent to both,
    and the two.  Families of one segment are never adjacent, so a mask is
    the ``functools.reduce`` AND of its pairs' rows exactly when its
    families of different segments are pairwise adjacent: the adjacency
    claim, with ``_forced_pairs``' message.  ``fiber_reps`` keeps the
    one-mask ``_forced_pairs``: routed through here, one mask per call, a
    split took ~4.5 times as long at n = 4.
    """
    width, closed, split = (1 << 2 * tables.n + 2) - 1, tables.closed, len(tables.summands)
    columns = [list(map(block.get, map(and_, map(rshift, fmasks, repeat(shift)), repeat(width))))
               for shift, block in tables.blocks]
    claim(not any(None in column for column in columns), "one forced anchor per segment side")
    rows = {(l, r): (closed[split + l] & closed[split + r]) >> split | 1 << l | 1 << r
            for l, r in set(chain.from_iterable(columns))}
    ands = functools.reduce(functools.partial(map, and_), [map(rows.__getitem__, column) for column in columns])
    claim(list(ands) == fmasks, "forced families of different segments are pairwise adjacent")
    return list(zip(*columns))


def enumerate_maximal_rigid_reps(grid: Breakpoints) -> list[BreakpointRep]:
    """All maximal rigid encodings on the grid, canonical and sorted.

    Under ``bridge.project`` the summands are the intervals of the segment
    quiver A_{2n+1}, two adjacent in ``_Tables`` exactly when their images
    have no Ext^1 either way.  A family is forced by a summand set when it
    is adjacent to every summand.  The reps are the 2^n per tilting set T
    of A_{2n+1}: T's summands and one forced family per segment.

      * <=: ``_forced_pairs_batch`` claims, once per forced mask, one forced
        family per (segment, side) and that those of different segments
        are pairwise adjacent.  So each rep built is a clique with one
        family per segment, and no summand extends it: no breakpoint one,
        as none extends T, and no generic-endpoint one, by ``_Tables``'
        argument.
      * =>: a maximal rigid rep's summands are a rigid set on A_{2n+1};
        with 2n+1 of them they are a tilting set T, which forces each of
        its families.  The 2n+1 is what the tests' Bron-Kerbosch oracle
        claims on every maximal clique; agreement with the paper's formula
        for n <= 64 shows it there, given the paper.

    ``finite._gap_keys`` lists T at period 2 (one breakpoint), coding each
    image by its summand vertex: vertex order is dataclass order, so the
    codes order images by start, 2*lo + 1 + lo_kind, as a shift keeps,
    and within a start by (hi, hi_kind), which puts [a, j] below [a, b]
    whenever j < b - 1 but [a, 2h] above [a, 2h+1].  The 66 vertices at
    ``MAX_N`` lie below ``_gap_keys``' mark 255.
    Sorted, the keys are the summand tuples in ascending order.
    ``finite._enumerate`` runs the build, one chunk of sorted keys at a
    time, and each key's reps come in its place: its summand tuple 2^n
    times beside its fiber's family tuples.  So the reps come in
    (summands, families) order, and none is sorted.
    Per chunk, ``finite._rows`` gathers, in one C pass each, the summand
    tuples from ``tables.summands`` and the forced masks from
    ``family_bits``, each summand vertex's closed row shifted to its family
    bits: a key's mask is the AND of its tuple, by ``functools.reduce``.
    The chunk's masks that ``fibers``, a plain dict made by this call,
    lacks are split in one ``_forced_pairs_batch`` call, and each one's
    fiber, the list of its family tuples by ``product`` over its (left,
    right) pairs, is stored there.  So both claims run once per distinct
    mask, summed over the chunks, and a known mask is one C lookup.  Equal
    family tuples are one object: they come from a ``_Memo``, keyed by
    index tuples (no dataclass ``__hash__`` runs).  Neither dict refers to
    itself, so both are freed by reference counts on return, and nothing
    outlives the call.
    Beside the reps a chunk holds its masks, its summand tuples and one
    gather at a time, its index tuple and result, ``_CHUNK`` * (2n+1) + 1
    pointers each.  The summand tuples are read into a list before the
    build, which stops at the last rep and so would keep a lazy gather,
    never read to its end, until it returns.  No list of each key's fiber
    or mask is kept beside the reps: they raised the tracemalloc peak by
    ~1.2 MB and ~2.6 MB.
    n is at most ``MAX_N``, checked before the tables of n are built.
    """
    n = grid.n
    _check_cap("n", n, MAX_N)
    tables = _tables(n)
    split, width, family = len(tables.summands), 2 * n + 1, tables.families.__getitem__
    code = {(2 * s.lo + 1 + s.lo_kind, 2 * s.hi + 1 - s.hi_kind): v for v, s in enumerate(tables.summands)}
    family_bits = [row >> split for row in tables.closed[:split]]
    family_tuples = _Memo(lambda t: tuple(map(family, t)))
    fibers = {}

    def build(flat: bytes) -> list[BreakpointRep]:  # the reps of a chunk of keys, splitting its new masks
        masks = list(map(functools.reduce, repeat(and_), _rows(flat, family_bits, width)))
        new = list(set(masks).difference(fibers))
        tuples = map(map, repeat(family_tuples.__getitem__), starmap(product, _forced_pairs_batch(tables, new)))
        fibers.update(zip(new, map(list, tuples)))
        summands = list(_rows(flat, tables.summands, width))
        return _build(BreakpointRep, len(masks) << n, grid=repeat(grid),
                      summands=chain.from_iterable(map(repeat, summands, repeat(1 << n))),
                      families=chain.from_iterable(map(fibers.__getitem__, masks)))

    return _enumerate(width, 2, code, build)
