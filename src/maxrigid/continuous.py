"""Finite encodings of interval-decomposable representations on a subdivided line.

A representation is stored against a grid of breakpoints
``0 = a_0 < a_1 < ... < a_n = 1`` as

  * ``summands``: flavored intervals whose endpoints are breakpoints, and
  * ``families``: one choice per open segment of a two-member family of
    generic-endpoint intervals.  A right-sided family contributes, for
    every x in the segment, the pair with both flavors at the moving left
    end and a fixed anchored right end; a left-sided family is the mirror
    image.  The anchor is a breakpoint with its own boundary flavor.

Rigidity, maximality and profile computations are decided on finite
sampled models.  Compatibility of two intervals depends only on the order
pattern of their endpoints and the boundary flavors, so statements
quantified over every generic position reduce to finitely many exact
sample positions, provided the samples realize every order pattern that
can occur.  The maximality sweep therefore instantiates family members
both at fixed sample fractions and at witness positions placed below, at,
between and above each candidate's own generic positions; the equal-
position pattern is what rules out, for example, a generic point module
sitting inside a segment that carries a family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .cliques import bits, max_cliques
from .finite import ResourceLimitError
from .intervals import (
    CLOSED,
    OPEN,
    BoundaryKind,
    Interval,
    Point,
    compatible,
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
        self.as_interval()  # validates shape (nonempty, not inverted)

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

    def members(self, x: Point) -> tuple[Interval, Interval]:
        far = Point.breakpoint(self.anchor)
        if self.side is RIGHT:
            return (
                Interval(x, CLOSED, far, self.anchor_kind),
                Interval(x, OPEN, far, self.anchor_kind),
            )
        return (
            Interval(far, self.anchor_kind, x, CLOSED),
            Interval(far, self.anchor_kind, x, OPEN),
        )

    def matches(self, interval: Interval) -> bool:
        """Whether ``interval`` has the shape of one of this family's members."""
        if self.side is RIGHT:
            return (
                not interval.lo.is_breakpoint
                and interval.lo.index == self.segment
                and interval.hi == Point.breakpoint(self.anchor)
                and interval.hi_kind is self.anchor_kind
            )
        return (
            not interval.hi.is_breakpoint
            and interval.hi.index == self.segment
            and interval.lo == Point.breakpoint(self.anchor)
            and interval.lo_kind is self.anchor_kind
        )

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
            raise ValueError("segment count must be >= 1")
        return cls(tuple(Fraction(i, n) for i in range(n + 1)))

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def position(self, p: Point) -> Fraction:
        """Concrete coordinate of a combinatorial point on this grid."""
        if p.is_breakpoint:
            return self.values[p.index]
        lo, hi = self.values[p.index], self.values[p.index + 1]
        return lo + p.offset * (hi - lo)


@dataclass(frozen=True)
class BreakpointRep:
    """A finitely encoded representation: grid, anchored summands, families."""

    grid: Breakpoints
    summands: tuple[BreakSummand, ...]
    families: tuple[FamilyChoice, ...]

    @property
    def n(self) -> int:
        return self.grid.n


@dataclass(frozen=True)
class SampledModel:
    """Finite witness: summand intervals plus family members at sample points."""

    intervals: tuple[Interval, ...]


@dataclass(frozen=True)
class Profile:
    """The eight endpoint sets seen from a generic point c.

    Right-hand sets collect far endpoints d at or beyond the next
    breakpoint, keyed by (flavor at c, flavor at d); left-hand sets
    collect far endpoints at or before the previous breakpoint, keyed by
    (flavor at d, flavor at c).
    """

    r_cc: frozenset[Point]
    r_co: frozenset[Point]
    r_oc: frozenset[Point]
    r_oo: frozenset[Point]
    l_cc: frozenset[Point]
    l_oc: frozenset[Point]
    l_co: frozenset[Point]
    l_oo: frozenset[Point]

    def all_sets(self) -> tuple[frozenset[Point], ...]:
        return (self.r_cc, self.r_co, self.r_oc, self.r_oo,
                self.l_cc, self.l_oc, self.l_co, self.l_oo)


def sample_offsets(k: int) -> tuple[Fraction, ...]:
    """k equispaced interior fractions; k=2 gives (1/3, 2/3)."""
    return tuple(Fraction(i, k + 1) for i in range(1, k + 1))


DEFAULT_FRESH = (Fraction(1, 6), Fraction(1, 2), Fraction(5, 6))


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


def sample_model(rep: BreakpointRep, samples_per_segment: int = 2) -> SampledModel:
    """Summand intervals plus both family members at each sample position."""
    ivals = [s.as_interval() for s in rep.summands]
    for fam in rep.families:
        for off in sample_offsets(samples_per_segment):
            ivals.extend(fam.members(Point.generic(fam.segment, off)))
    return SampledModel(tuple(ivals))


def endpoint_profile(model: SampledModel, c: Point) -> Profile:
    """The eight endpoint sets of the model as seen from generic point c."""
    if c.is_breakpoint:
        raise ValueError(f"profile point must be generic, got {c}")
    nxt = Point.breakpoint(c.index + 1)
    prev = Point.breakpoint(c.index)
    right: dict[tuple, set] = {key: set() for key in itertools.product((CLOSED, OPEN), repeat=2)}
    left: dict[tuple, set] = {key: set() for key in itertools.product((CLOSED, OPEN), repeat=2)}
    for iv in model.intervals:
        if iv.lo == c and iv.hi >= nxt:
            right[(iv.lo_kind, iv.hi_kind)].add(iv.hi)
        if iv.hi == c and iv.lo <= prev:
            left[(iv.lo_kind, iv.hi_kind)].add(iv.lo)
    return Profile(
        r_cc=frozenset(right[(CLOSED, CLOSED)]),
        r_co=frozenset(right[(CLOSED, OPEN)]),
        r_oc=frozenset(right[(OPEN, CLOSED)]),
        r_oo=frozenset(right[(OPEN, OPEN)]),
        l_cc=frozenset(left[(CLOSED, CLOSED)]),
        l_oc=frozenset(left[(OPEN, CLOSED)]),
        l_co=frozenset(left[(CLOSED, OPEN)]),
        l_oo=frozenset(left[(OPEN, OPEN)]),
    )


def is_uniform(rep: BreakpointRep) -> bool:
    """Whether the encoding satisfies the profile conditions of the class.

    From every generic point the visible far endpoints must be
    breakpoints, must not depend on the flavor at the moving point (the
    sets pair up), must be constant across each segment, and exactly one
    anchored family must be visible in total.  Encodings that
    ``validate_rep`` rejects are not uniform; that covers duplicate
    summands and families, which the profile sets cannot see.
    """
    try:
        validate_rep(rep)
    except InvalidRepError:
        return False
    model = sample_model(rep, 2)
    for j in range(rep.grid.n):
        profiles = [
            endpoint_profile(model, Point.generic(j, off)) for off in sample_offsets(2)
        ]
        p = profiles[0]
        if any(other != p for other in profiles[1:]):
            return False
        if any(not d.is_breakpoint for s in p.all_sets() for d in s):
            return False
        if p.r_cc != p.r_oc or p.r_co != p.r_oo:
            return False
        if p.l_cc != p.l_co or p.l_oc != p.l_oo:
            return False
        if len(p.r_cc) + len(p.r_co) + len(p.l_cc) + len(p.l_oc) != 1:
            return False
    return True


def is_rigid(rep: BreakpointRep, samples_per_segment: int = 2) -> bool:
    """Pairwise compatibility of the sampled model decides rigidity.

    Two sample positions per segment realize every order pattern a pair
    of summands can exhibit, so the finite check settles the continuum
    statement for valid encodings.
    """
    validate_rep(rep)
    ivals = sample_model(rep, samples_per_segment).intervals
    return all(compatible(a, b) for a, b in itertools.combinations(ivals, 2))


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


class _Candidate:
    __slots__ = ("interval", "positions", "match_mask")

    def __init__(self, interval: Interval, positions: tuple, match_mask: int):
        self.interval = interval
        self.positions = positions  # ((segment, offset), ...) of generic endpoints
        self.match_mask = match_mask  # families whose member shape this is


class _Tables:
    """Per-(n, samples, fresh) compatibility tables backing the maximality sweep.

    Summands, families and candidate summands are indexed once; all the
    pair predicates are collapsed into bitmasks so that testing one
    candidate against a representation costs a few integer operations.
    """

    def __init__(self, n: int, samples_per_segment: int, fresh: tuple[Fraction, ...]):
        self.n = n
        self.samples = sample_offsets(samples_per_segment)
        self.fresh = fresh
        self.summands = all_break_summands(n)
        self.sindex = {s: i for i, s in enumerate(self.summands)}
        self.ivals = [s.as_interval() for s in self.summands]
        count = len(self.summands)
        self.full_mask = (1 << count) - 1

        self.adj = [0] * count
        for i in range(count):
            for j in range(i + 1, count):
                if compatible(self.ivals[i], self.ivals[j]):
                    self.adj[i] |= 1 << j
                    self.adj[j] |= 1 << i

        self.families = all_family_choices(n)
        self.findex = {f: i for i, f in enumerate(self.families)}
        self.fam_members = [
            tuple(
                m
                for off in self.samples
                for m in fam.members(Point.generic(fam.segment, off))
            )
            for fam in self.families
        ]

        # summand/family compatibility: breakpoint endpoints interact with a
        # family's moving endpoint in a single order pattern, so the sampled
        # members decide the for-all-x statement.
        self.fam_pool = [0] * len(self.families)
        self.s_famok = [0] * count
        for fi, members in enumerate(self.fam_members):
            for si, ival in enumerate(self.ivals):
                if all(compatible(ival, m) for m in members):
                    self.fam_pool[fi] |= 1 << si
                    self.s_famok[si] |= 1 << fi

        # family/family compatibility across distinct segments
        self.famadj = [0] * len(self.families)
        for fi in range(len(self.families)):
            for fj in range(fi + 1, len(self.families)):
                if self.families[fi].segment == self.families[fj].segment:
                    continue
                if all(
                    compatible(a, b)
                    for a in self.fam_members[fi]
                    for b in self.fam_members[fj]
                ):
                    self.famadj[fi] |= 1 << fj
                    self.famadj[fj] |= 1 << fi

        self.candidates = list(self._make_candidates())
        self.cand_smask = []
        self.cand_famok = []
        for cand in self.candidates:
            smask = 0
            for si, ival in enumerate(self.ivals):
                if compatible(cand.interval, ival):
                    smask |= 1 << si
            self.cand_smask.append(smask)
            fmask = 0
            for fi, fam in enumerate(self.families):
                if self._family_ok(cand, fam):
                    fmask |= 1 << fi
            self.cand_famok.append(fmask)

    def _make_candidates(self) -> Iterator[_Candidate]:
        n = self.n
        kinds = (CLOSED, OPEN)
        for j in range(n):
            for off in self.fresh:
                p = Point.generic(j, off)
                # one generic endpoint, one anchored breakpoint endpoint
                for s in range(j + 1, n + 1):
                    for ak in kinds:
                        fam_bit = 1 << self.findex[FamilyChoice(j, RIGHT, s, ak)]
                        for gk in kinds:
                            yield _Candidate(
                                Interval(p, gk, Point.breakpoint(s), ak),
                                ((j, off),),
                                fam_bit,
                            )
                for s in range(0, j + 1):
                    for ak in kinds:
                        fam_bit = 1 << self.findex[FamilyChoice(j, LEFT, s, ak)]
                        for gk in kinds:
                            yield _Candidate(
                                Interval(Point.breakpoint(s), ak, p, gk),
                                ((j, off),),
                                fam_bit,
                            )
                # generic point module
                yield _Candidate(Interval(p, CLOSED, p, CLOSED), ((j, off),), 0)
            # both endpoints generic, same segment
            for o1, o2 in itertools.combinations(self.fresh, 2):
                for k1 in kinds:
                    for k2 in kinds:
                        yield _Candidate(
                            Interval(Point.generic(j, o1), k1, Point.generic(j, o2), k2),
                            ((j, o1), (j, o2)),
                            0,
                        )
        # both endpoints generic, different segments
        for j1, j2 in itertools.combinations(range(n), 2):
            for o1 in self.fresh:
                for o2 in self.fresh:
                    for k1 in kinds:
                        for k2 in kinds:
                            yield _Candidate(
                                Interval(Point.generic(j1, o1), k1, Point.generic(j2, o2), k2),
                                ((j1, o1), (j2, o2)),
                                0,
                            )

    def _family_ok(self, cand: _Candidate, fam: FamilyChoice) -> bool:
        """Candidate compatible with the family's members at every position.

        The sampled positions realize the patterns away from the
        candidate; witness positions below, at, between and above the
        candidate's own offsets realize the remaining ones, including
        exact coincidence with the moving endpoint.
        """
        own = sorted({off for seg, off in cand.positions if seg == fam.segment})
        offsets = set(self.samples)
        offsets.update(own)
        if own:
            offsets.add(own[0] / 2)
            offsets.add((own[-1] + 1) / 2)
            offsets.update((a + b) / 2 for a, b in zip(own, own[1:]))
        for off in sorted(offsets):
            for member in fam.members(Point.generic(fam.segment, off)):
                if not compatible(cand.interval, member):
                    return False
        return True


_TABLES_CACHE: dict[tuple, _Tables] = {}


def _tables(n: int, samples_per_segment: int = 2, fresh: tuple[Fraction, ...] = DEFAULT_FRESH) -> _Tables:
    fresh = tuple(sorted({Fraction(f) for f in fresh}))
    key = (n, samples_per_segment, fresh)
    if key not in _TABLES_CACHE:
        _TABLES_CACHE[key] = _Tables(n, samples_per_segment, fresh)
    return _TABLES_CACHE[key]


def _no_generic_addable(tables: _Tables, smask: int, fmask: int) -> bool:
    """No generic-endpoint candidate outside the families can be added."""
    for ci in range(len(tables.candidates)):
        if tables.candidates[ci].match_mask & fmask:
            continue
        if (
            tables.cand_smask[ci] & smask == smask
            and tables.cand_famok[ci] & fmask == fmask
        ):
            return False
    return True


def is_maximal_rigid(
    rep: BreakpointRep,
    samples_per_segment: int = 2,
    fresh: Sequence[Fraction] = DEFAULT_FRESH,
) -> bool:
    """Whether no summand outside the representation can be added rigidly.

    The candidate space is exhaustive up to order-pattern equivalence:
    every flavored breakpoint interval, intervals with one generic
    endpoint at fresh positions in each segment, intervals with two
    generic endpoints, and generic point modules.  A generic candidate
    matching the shape of a chosen family member counts as already
    present.  Raises NotRigidError when the representation is not rigid.
    """
    if not is_rigid(rep, samples_per_segment):
        raise NotRigidError("NotRigid")
    tables = _tables(rep.grid.n, samples_per_segment, tuple(Fraction(f) for f in fresh))
    smask = 0
    for s in rep.summands:
        smask |= 1 << tables.sindex[s]
    fmask = 0
    for f in rep.families:
        fmask |= 1 << tables.findex[f]
    for si in range(len(tables.summands)):
        bit = 1 << si
        if smask & bit:
            continue
        if tables.adj[si] & smask == smask and tables.s_famok[si] & fmask == fmask:
            return False
    return _no_generic_addable(tables, smask, fmask)


def canonicalize(rep: BreakpointRep) -> BreakpointRep:
    """Sort summands and families; equal canonical forms = isomorphic encodings."""
    return BreakpointRep(
        grid=rep.grid,
        summands=tuple(sorted(rep.summands)),
        families=tuple(sorted(rep.families)),
    )


def rep_sort_key(rep: BreakpointRep):
    return (rep.summands, rep.families)


def enumerate_maximal_rigid_reps(grid: Breakpoints, max_n: int = 5) -> list[BreakpointRep]:
    """All maximal rigid encodings on the grid, canonical and sorted.

    Backtracks over one family choice per segment, prunes summands by
    compatibility with the chosen families, enumerates maximal cliques of
    the remaining compatibility graph, and keeps the cliques that survive
    the full generic-candidate sweep.
    """
    n = grid.n
    if n > max_n:
        raise ResourceLimitError(f"n={n} exceeds cap {max_n}; raise max_n to proceed")
    tables = _tables(n)
    per_segment = [
        [fi for fi, fam in enumerate(tables.families) if fam.segment == j]
        for j in range(n)
    ]
    out = []
    for combo in itertools.product(*per_segment):
        if any(
            not tables.famadj[a] >> b & 1
            for a, b in itertools.combinations(combo, 2)
        ):
            continue
        fmask = 0
        pool = tables.full_mask
        for fi in combo:
            fmask |= 1 << fi
            pool &= tables.fam_pool[fi]
        for clique in max_cliques(tables.adj, pool):
            if _no_generic_addable(tables, clique, fmask):
                out.append(
                    BreakpointRep(
                        grid=grid,
                        summands=tuple(tables.summands[i] for i in bits(clique)),
                        families=tuple(tables.families[fi] for fi in combo),
                    )
                )
    out.sort(key=rep_sort_key)
    return out
