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
            raise ValueError("segment count must be >= 1")
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
    statement for valid encodings.  The pairs are read off the ``_Tables``
    masks built at the same sample positions (``_Tables.rigid``).
    """
    validate_rep(rep)
    tables = _tables(rep.grid.n, samples_per_segment)
    return tables.rigid(*tables.masks(rep.summands, rep.families))


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


def _probe_offsets(samples: tuple[Fraction, ...], own: tuple[Fraction, ...]) -> set[Fraction]:
    """Offsets at which a family's members are checked against one candidate.

    ``own`` holds the candidate's sorted generic offsets in the family's
    segment.  The samples realize the patterns away from the candidate;
    ``own`` and the witnesses below, between and above it realize the
    remaining ones, including exact coincidence with the moving endpoint.
    """
    out = set(samples).union(own)
    if own:
        out.update((own[0] / 2, (own[-1] + 1) / 2))
        out.update((a + b) / 2 for a, b in zip(own, own[1:]))
    return out


class _Tables:
    """Per-(n, samples) compatibility masks: the one integer core.

    Summands and families are indexed once and every pair predicate is a
    bitmask: ``adj`` (summand/summand), ``fam_pool``/``s_famok`` (summand
    against a family's members at every sample, by family/by summand) and
    ``famadj`` (families on distinct segments).  Rigidity, maximality,
    enumeration and ``bridge.forced_anchor`` all read them.  ``sweep``
    builds the generic-candidate masks, which also depend on the fresh
    offsets, only when a maximality sweep first needs them.

    Every pair is decided on integer ranks.  A build sorts every offset it
    places a point at once; with W one more than their number, breakpoint
    i becomes ``i * W`` and generic point (j, off) ``j * W + rank(off)``,
    ranks 1..W-1.  That is exactly the order of ``Point`` (equal offsets
    share a rank), and ``_compatible_ends`` only compares endpoints, so
    each verdict equals ``compatible`` on the points.  An offset that was
    not collected has no rank (a ``KeyError``), never a guessed one.
    """

    def __init__(self, n: int, samples_per_segment: int):
        self.n = n
        self.samples = sample_offsets(samples_per_segment)
        self.summands = all_break_summands(n)
        self.sindex = {s: i for i, s in enumerate(self.summands)}
        self.families = all_family_choices(n)
        self.findex = {f: i for i, f in enumerate(self.families)}
        count = len(self.summands)
        self.full_mask = (1 << count) - 1
        self._sweeps: dict[tuple, tuple[list[int], list[int], list[int]]] = {}

        w = len(self.samples) + 1  # the samples are sorted: sample k has rank k
        ends = [(s.lo * w, s.lo_kind, s.hi * w, s.hi_kind) for s in self.summands]
        sampled = [
            [m for r in range(1, w) for m in fam.member_ends(fam.segment * w + r, fam.anchor * w)]
            for fam in self.families
        ]

        self.adj = [0] * count
        for i in range(count):
            for j in range(i + 1, count):
                if _compatible_ends(*ends[i], *ends[j]):
                    self.adj[i] |= 1 << j
                    self.adj[j] |= 1 << i

        # summand/family compatibility: breakpoint endpoints interact with a
        # family's moving endpoint in a single order pattern, so the sampled
        # members decide the for-all-x statement.
        self.fam_pool = [0] * len(self.families)
        self.s_famok = [0] * count
        for fi, members in enumerate(sampled):
            for si, e in enumerate(ends):
                if all(_compatible_ends(*e, *m) for m in members):
                    self.fam_pool[fi] |= 1 << si
                    self.s_famok[si] |= 1 << fi

        # family/family compatibility across distinct segments
        self.famadj = [0] * len(self.families)
        for fi in range(len(self.families)):
            for fj in range(fi + 1, len(self.families)):
                if self.families[fi].segment == self.families[fj].segment:
                    continue
                if all(_compatible_ends(*a, *b) for a in sampled[fi] for b in sampled[fj]):
                    self.famadj[fi] |= 1 << fj
                    self.famadj[fj] |= 1 << fi

    def masks(self, summands: Iterable[BreakSummand], families: Iterable[FamilyChoice] = ()):
        """The (summand, family) bitmasks of the given summands and families."""
        smask = sum({1 << self.sindex[s] for s in summands})
        return smask, sum({1 << self.findex[f] for f in families})

    def rigid(self, smask: int, fmask: int) -> bool:
        """The sampled model's pairwise check on the masked summands and families.

        Two members of one family are always nested, and a valid rep has
        one family per segment, so ``famadj`` covers every family pair.
        """
        return all(
            (self.adj[si] | 1 << si) & smask == smask and self.s_famok[si] & fmask == fmask
            for si in bits(smask)
        ) and all((self.famadj[fi] | 1 << fi) & fmask == fmask for fi in bits(fmask))

    def sweep(self, fresh: Iterable) -> tuple[list[int], list[int], list[int]]:
        """``(cand_match, cand_smask, cand_famok)`` at these fresh offsets, built once.

        Per generic candidate, in order: the families whose member shape it
        has, the summands it is compatible with, and the families it is
        compatible with at every position.
        """
        key = tuple(fresh)
        if key in self._sweeps:
            return self._sweeps[key]
        fresh = tuple(sorted({Fraction(f) for f in key}))
        for off in fresh:
            Point.generic(0, off)  # raises unless the offset lies in (0, 1)
        owns = [()] + [(f,) for f in fresh] + list(itertools.combinations(fresh, 2))
        offsets = sorted({off for own in owns for off in _probe_offsets(self.samples, own)})
        rank = {off: r for r, off in enumerate(offsets, 1)}
        w = len(offsets) + 1
        # ranks to check a family at, keyed by the candidate's own ranks there
        probe = {
            tuple(rank[o] for o in own): sorted(rank[o] for o in _probe_offsets(self.samples, own))
            for own in owns
        }
        # members_at[fi][r]: both members of family fi at rank r of its segment
        members_at = [
            [fam.member_ends(fam.segment * w + r, fam.anchor * w) for r in range(w)]
            for fam in self.families
        ]
        ends = [(s.lo * w, s.lo_kind, s.hi * w, s.hi_kind) for s in self.summands]
        candidates, cand_match = map(list, zip(*self._make_candidates(w, rank, fresh)))
        cand_smask, cand_famok = [], []
        for c in candidates:
            cand_smask.append(sum(1 << si for si, e in enumerate(ends) if _compatible_ends(*c, *e)))
            # compatible with a family's members at every position: the
            # probe ranks of the family's segment realize every pattern
            probes = [
                probe[tuple(sorted({p % w for p in (c[0], c[2]) if p % w and p // w == j}))]
                for j in range(self.n)
            ]
            fmask = 0
            for fi, fam in enumerate(self.families):
                at = members_at[fi]
                if all(_compatible_ends(*c, *m) for r in probes[fam.segment] for m in at[r]):
                    fmask |= 1 << fi
            cand_famok.append(fmask)
        self._sweeps[key] = cand_match, cand_smask, cand_famok
        return self._sweeps[key]

    def _make_candidates(self, w: int, rank: dict, fresh: tuple[Fraction, ...]) -> Iterator[tuple]:
        kinds = (CLOSED, OPEN)
        for j in range(self.n):
            for off in fresh:
                x = j * w + rank[off]
                # one generic endpoint, one anchored breakpoint endpoint: the
                # shape of a member of the family it matches
                for side in (RIGHT, LEFT):
                    for fi, fam in enumerate(self.families):
                        if fam.segment == j and fam.side is side:
                            for ends in fam.member_ends(x, fam.anchor * w):
                                yield ends, 1 << fi
                yield (x, CLOSED, x, CLOSED), 0  # generic point module
            # both endpoints generic, same segment
            same = itertools.combinations(fresh, 2)
            for (o1, o2), k1, k2 in itertools.product(same, kinds, kinds):
                yield (j * w + rank[o1], k1, j * w + rank[o2], k2), 0
        # both endpoints generic, different segments
        pairs = itertools.combinations(range(self.n), 2)
        for (j1, j2), o1, o2, k1, k2 in itertools.product(pairs, fresh, fresh, kinds, kinds):
            yield (j1 * w + rank[o1], k1, j2 * w + rank[o2], k2), 0


_TABLES_CACHE: dict[tuple, _Tables] = {}


def _tables(n: int, samples_per_segment: int = 2) -> _Tables:
    key = (n, samples_per_segment)
    if key not in _TABLES_CACHE:
        _TABLES_CACHE[key] = _Tables(n, samples_per_segment)
    return _TABLES_CACHE[key]


def _live_candidates(sweep: tuple[list[int], list[int], list[int]], fmask: int) -> list[int]:
    """Step 1 of the generic-candidate sweep: what one family choice leaves open.

    Keeps the summand mask (``cand_smask``) of every generic-endpoint
    candidate that matches the shape of no chosen family member and is
    compatible with every chosen family.  Every candidate is tested, so
    the sweep stays exhaustive; the result depends on the families alone
    and is shared by every summand set tested under the same choice.
    """
    return [
        smask
        for match, smask, famok in zip(*sweep)
        if not match & fmask and famok & fmask == fmask
    ]


def _generic_addable(live: list[int], smask: int) -> bool:
    """Step 2 of the sweep: some live candidate is compatible with every summand."""
    return any(sm & smask == smask for sm in live)


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
    validate_rep(rep)
    tables = _tables(rep.grid.n, samples_per_segment)
    smask, fmask = tables.masks(rep.summands, rep.families)
    if not tables.rigid(smask, fmask):
        raise NotRigidError("NotRigid")
    sweep = tables.sweep(fresh)  # first, so that bad fresh offsets always raise
    for si in bits(tables.full_mask & ~smask):
        if tables.adj[si] & smask == smask and tables.s_famok[si] & fmask == fmask:
            return False
    return not _generic_addable(_live_candidates(sweep, fmask), smask)


def canonicalize(rep: BreakpointRep) -> BreakpointRep:
    """Sort summands and families; equal canonical forms = isomorphic encodings."""
    return BreakpointRep(
        grid=rep.grid,
        summands=tuple(sorted(rep.summands)),
        families=tuple(sorted(rep.families)),
    )


def rep_sort_key(rep: BreakpointRep):
    return (rep.summands, rep.families)


def _family_choices(
    tables: _Tables,
    per_segment: list[list[int]],
    fams: tuple[int, ...],
    allowed: int,
    fmask: int,
    pool: int,
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Every pairwise compatible choice of one family per segment, extending ``fams``.

    Backtracks segment by segment: a family is tried only if its bit is
    set in ``allowed``, the meet of the ``famadj`` rows of the families
    chosen so far, and ``pool`` is narrowed by its ``fam_pool`` as it is
    chosen.  Yields ``(family indices, family bitmask, summand pool)`` in
    increasing index order.
    """
    if len(fams) == len(per_segment):
        yield fams, fmask, pool
        return
    for fi in per_segment[len(fams)]:
        if allowed >> fi & 1:
            yield from _family_choices(
                tables,
                per_segment,
                fams + (fi,),
                allowed & tables.famadj[fi],
                fmask | 1 << fi,
                pool & tables.fam_pool[fi],
            )


def enumerate_maximal_rigid_reps(grid: Breakpoints, max_n: int = 5) -> list[BreakpointRep]:
    """All maximal rigid encodings on the grid, canonical and sorted.

    Backtracks over one family choice per segment (``_family_choices``).
    For each complete choice the live generic candidates are computed
    once; every maximal clique of the pool's compatibility graph that none
    of them extends is kept.

    Reps are collected as (summand indices, family indices) and sorted as
    integer tuples before any ``BreakpointRep`` is built.  Both index
    spaces come from ``all_break_summands`` and ``all_family_choices``,
    which are canonically sorted, so index order is dataclass order and
    the result is in ``rep_sort_key`` order.
    """
    n = grid.n
    if n > max_n:
        raise ResourceLimitError(f"n={n} exceeds cap {max_n}; raise max_n to proceed")
    tables = _tables(n)
    sweep = tables.sweep(DEFAULT_FRESH)
    per_segment = [
        [fi for fi, fam in enumerate(tables.families) if fam.segment == j]
        for j in range(n)
    ]
    all_families = (1 << len(tables.families)) - 1
    choices = _family_choices(tables, per_segment, (), all_families, 0, tables.full_mask)
    out: list = []
    for fams, fmask, pool in choices:
        live = _live_candidates(sweep, fmask)
        out.extend(
            (tuple(bits(clique)), fams)
            for clique in max_cliques(tables.adj, pool)
            if not _generic_addable(live, clique)
        )
    out.sort()
    # replaced in place, so that the keys and the reps never both fill memory
    for k, (sis, fis) in enumerate(out):
        out[k] = BreakpointRep(
            grid=grid,
            summands=tuple(tables.summands[si] for si in sis),
            families=tuple(tables.families[fi] for fi in fis),
        )
    return out
