"""Independent oracles for the maximality tables, the finite enumeration and the fiber route.

``maxrigid.continuous`` decides rigidity, maximality and uniformity on one
integer rank per segment.  The helpers here decide the same questions the
older, longer way, so that the suite can compare the two:

  * ``sample_model`` and ``endpoint_profile`` place both members of every
    family at k exact sample positions and read the eight endpoint sets a
    generic point sees; ``profile_uniform`` is the profile test of the
    class on them.
  * ``sweep`` builds every generic-endpoint candidate at fresh offsets and
    its masks against the breakpoint summands and the families;
    ``live_candidates`` and ``generic_addable`` are the sweep's two steps.
  * ``maximal_oracle`` decides maximality from the sampled model with
    ``compatible`` on points, then runs the sweep.
  * ``finite_max_cliques`` lists the maximal rigid sets on A_m by
    Bron-Kerbosch on the pairwise compatibility graph, the route
    ``finite.enumerate_maximal_rigid`` took before the Catalan recursion.
  * ``searched_anchors`` finds the anchors a side admits with ``compatible``
    on sampled family members, and ``fiber_by_anchor`` builds a fiber from
    them with new ``FamilyChoice`` objects; ``bridge.fiber_reps`` reads the
    same anchors off the family rows of ``_Tables.adj``.
  * ``to_refined`` and ``refined_quiver`` are the refined-quiver route:
    ``condense(to_refined(rep))`` is ``project``'s oracle.
  * ``canonicalize`` sorts an encoding's summands and families.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from maxrigid import (
    CLOSED,
    LEFT,
    OPEN,
    RIGHT,
    BreakpointRep,
    FamilyChoice,
    FiniteInterval,
    Interval,
    InvalidRepError,
    LinearQuiver,
    NotRigidError,
    Point,
    RefinedRep,
    all_break_summands,
    all_family_choices,
    compatible,
    pull_back_summands,
    sample_offsets,
    validate_rep,
)
from maxrigid.cliques import bits, max_cliques
from maxrigid.finite import _pair_tables
from maxrigid.intervals import _compatible_ends


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


def profile_uniform(rep: BreakpointRep) -> bool:
    """The profile conditions of the class, read off the sampled model.

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


DEFAULT_FRESH = (Fraction(1, 6), Fraction(1, 2), Fraction(5, 6))


def random_fresh(rng: random.Random) -> tuple[Fraction, ...]:
    """Three distinct interior fractions avoiding the k = 2 and k = 4 samples."""
    pool = [Fraction(k, 24) for k in range(1, 24)]
    # denominators of 24 never collide with fifths; thirds are removed
    pool = [p for p in pool if p not in (Fraction(1, 3), Fraction(2, 3))]
    return tuple(sorted(rng.sample(pool, 3)))


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


@dataclass(frozen=True)
class Sweep:
    """Every generic candidate on ranks ``j * w + r`` and its three masks.

    Per candidate, in order: the families whose member shape it has
    (``cand_match``), the summands it is compatible with (``cand_smask``)
    and the families it is compatible with at every position
    (``cand_famok``).  Bits index ``all_break_summands(n)`` and
    ``all_family_choices(n)``.
    """

    w: int
    candidates: list[tuple]
    cand_match: list[int]
    cand_smask: list[int]
    cand_famok: list[int]


@functools.lru_cache(maxsize=64)
def sweep(n: int, fresh: tuple = DEFAULT_FRESH, samples_per_segment: int = 2) -> Sweep:
    """The generic-candidate sweep at these fresh offsets and sample count."""
    samples = sample_offsets(samples_per_segment)
    families = all_family_choices(n)
    fresh = tuple(sorted({Fraction(f) for f in fresh}))
    for off in fresh:
        Point.generic(0, off)  # raises unless the offset lies in (0, 1)
    owns = [()] + [(f,) for f in fresh] + list(itertools.combinations(fresh, 2))
    offsets = sorted({off for own in owns for off in _probe_offsets(samples, own)})
    rank = {off: r for r, off in enumerate(offsets, 1)}
    w = len(offsets) + 1
    # ranks to check a family at, keyed by the candidate's own ranks there
    probe = {
        tuple(rank[o] for o in own): sorted(rank[o] for o in _probe_offsets(samples, own))
        for own in owns
    }
    # members_at[fi][r]: both members of family fi at rank r of its segment
    members_at = [
        [fam.member_ends(fam.segment * w + r, fam.anchor * w) for r in range(w)]
        for fam in families
    ]
    ends = [(s.lo * w, s.lo_kind, s.hi * w, s.hi_kind) for s in all_break_summands(n)]
    candidates, cand_match = map(list, zip(*_make_candidates(n, families, w, rank, fresh)))
    cand_smask, cand_famok = [], []
    for c in candidates:
        cand_smask.append(sum(1 << si for si, e in enumerate(ends) if _compatible_ends(*c, *e)))
        # compatible with a family's members at every position: the
        # probe ranks of the family's segment realize every pattern
        probes = [
            probe[tuple(sorted({p % w for p in (c[0], c[2]) if p % w and p // w == j}))]
            for j in range(n)
        ]
        fmask = 0
        for fi, fam in enumerate(families):
            at = members_at[fi]
            if all(_compatible_ends(*c, *m) for r in probes[fam.segment] for m in at[r]):
                fmask |= 1 << fi
        cand_famok.append(fmask)
    return Sweep(w, candidates, cand_match, cand_smask, cand_famok)


def _make_candidates(n: int, families: list, w: int, rank: dict, fresh: tuple) -> Iterator[tuple]:
    kinds = (CLOSED, OPEN)
    for j in range(n):
        for off in fresh:
            x = j * w + rank[off]
            # one generic endpoint, one anchored breakpoint endpoint: the
            # shape of a member of the family it matches
            for side in (RIGHT, LEFT):
                for fi, fam in enumerate(families):
                    if fam.segment == j and fam.side is side:
                        for ends in fam.member_ends(x, fam.anchor * w):
                            yield ends, 1 << fi
            yield (x, CLOSED, x, CLOSED), 0  # generic point module
        # both endpoints generic, same segment
        same = itertools.combinations(fresh, 2)
        for (o1, o2), k1, k2 in itertools.product(same, kinds, kinds):
            yield (j * w + rank[o1], k1, j * w + rank[o2], k2), 0
    # both endpoints generic, different segments
    pairs = itertools.combinations(range(n), 2)
    for (j1, j2), o1, o2, k1, k2 in itertools.product(pairs, fresh, fresh, kinds, kinds):
        yield (j1 * w + rank[o1], k1, j2 * w + rank[o2], k2), 0


def live_candidates(sw: Sweep, fmask: int) -> list[int]:
    """Step 1 of the sweep: what one family choice leaves open.

    Keeps the summand mask of every candidate that matches the shape of no
    chosen family member and is compatible with every chosen family.
    """
    return [
        smask
        for match, smask, famok in zip(sw.cand_match, sw.cand_smask, sw.cand_famok)
        if not match & fmask and famok & fmask == fmask
    ]


def generic_addable(live: list[int], smask: int) -> bool:
    """Step 2 of the sweep: some live candidate is compatible with every summand."""
    return any(sm & smask == smask for sm in live)


def maximal_oracle(
    rep: BreakpointRep, samples_per_segment: int = 4, fresh: tuple = DEFAULT_FRESH
) -> bool:
    """Maximality without the tables: breakpoint summands, then the sweep.

    Rigidity and the breakpoint test use ``compatible`` on the sampled
    model; a generic candidate counts as addable when the sweep leaves it
    live and it is compatible with every summand.
    """
    validate_rep(rep)
    ivals = sample_model(rep, samples_per_segment).intervals
    if not all(compatible(a, b) for a, b in itertools.combinations(ivals, 2)):
        raise NotRigidError("NotRigid")
    summands = all_break_summands(rep.n)
    present = set(rep.summands)
    for s in summands:
        if s not in present and all(compatible(s.as_interval(), iv) for iv in ivals):
            return False
    families = all_family_choices(rep.n)
    smask = sum(1 << summands.index(s) for s in rep.summands)
    fmask = sum(1 << families.index(f) for f in rep.families)
    sw = sweep(rep.n, tuple(fresh), samples_per_segment)
    return not generic_addable(live_candidates(sw, fmask), smask)


def sampled_masks(n: int, samples_per_segment: int) -> dict[str, list[int]]:
    """The ``_Tables`` graph as four mask lists, built on ``Point``s at k samples.

    The lists are the summand/summand, family-to-summand, summand-to-family
    and family/family blocks of the adjacency rows (see ``historical_masks``
    in ``test_continuous.py``).

    Each family's members stand at every sample position of its segment
    and every pair is decided by ``compatible``, so this is the k-sampled
    build the one-rank tables replace.
    """
    summands = [s.as_interval() for s in all_break_summands(n)]
    families = all_family_choices(n)
    members = [
        [m for off in sample_offsets(samples_per_segment)
         for m in fam.members(Point.generic(fam.segment, off))]
        for fam in families
    ]
    out = {"adj": [0] * len(summands), "fam_pool": [0] * len(families),
           "s_famok": [0] * len(summands), "famadj": [0] * len(families)}
    for (i, a), (j, b) in itertools.combinations(enumerate(summands), 2):
        if compatible(a, b):
            out["adj"][i] |= 1 << j
            out["adj"][j] |= 1 << i
    for fi, ms in enumerate(members):
        for si, s in enumerate(summands):
            if all(compatible(s, m) for m in ms):
                out["fam_pool"][fi] |= 1 << si
                out["s_famok"][si] |= 1 << fi
    for fi, fj in itertools.combinations(range(len(families)), 2):
        if families[fi].segment != families[fj].segment and all(
            compatible(a, b) for a in members[fi] for b in members[fj]
        ):
            out["famadj"][fi] |= 1 << fj
            out["famadj"][fj] |= 1 << fi
    return out


def finite_max_cliques(m: int) -> list[tuple[int, ...]]:
    """The maximal cliques of the A_m compatibility graph, as sorted index tuples.

    An index is a position in ``all_intervals``; the list is sorted, which
    is the order ``enumerate_maximal_rigid`` returns the sets in.
    """
    return sorted(tuple(bits(mask)) for mask in max_cliques(_pair_tables(m)[2]))


def searched_anchors(segment, side, summands, n) -> list[tuple]:
    """Every (anchor, flavor) on this side of the segment whose family members
    at the default sample offsets are compatible with every summand."""
    ivals = [s.as_interval() for s in summands]
    anchors = range(segment + 1, n + 1) if side is RIGHT else range(0, segment + 1)
    xs = [Point.generic(segment, off) for off in sample_offsets(2)]
    return [
        (anchor, kind)
        for anchor in anchors
        for kind in (CLOSED, OPEN)
        if all(
            compatible(m, iv)
            for x in xs
            for m in FamilyChoice(segment, side, anchor, kind).members(x)
            for iv in ivals
        )
    ]


def fiber_by_anchor(image, grid) -> list[BreakpointRep]:
    """The preimages of a maximal rigid segment-quiver set, anchor by searched anchor.

    Raises ValueError unless every side of every segment admits exactly one anchor.
    """
    n = grid.n
    summands = pull_back_summands(image, n)
    anchors = {}
    for j, side in itertools.product(range(n), (LEFT, RIGHT)):
        (anchors[(j, side)],) = searched_anchors(j, side, summands, n)
    out = []
    for sides in itertools.product((LEFT, RIGHT), repeat=n):
        families = tuple(
            FamilyChoice(j, side, *anchors[(j, side)]) for j, side in enumerate(sides)
        )
        out.append(BreakpointRep(grid=grid, summands=summands, families=families))
    return out


def refined_quiver(n: int) -> LinearQuiver:
    """The 3n+1 vertex quiver a_0, a_0+, a_1-, a_1, ..., a_n-, a_n."""
    labels = []
    for i in range(n + 1):
        labels.append(f"a{i}")
        if i < n:
            labels.append(f"a{i}+")
            labels.append(f"a{i + 1}-")
    return LinearQuiver(3 * n + 1, tuple(labels))


def to_refined(rep: BreakpointRep) -> RefinedRep:
    """Rewrite the anchored summands on the refined quiver; families vanish."""
    validate_rep(rep)
    out = set()
    for s in rep.summands:
        a = 3 * s.lo + 1 if s.lo_kind is CLOSED else 3 * s.lo + 2
        b = 3 * s.hi + 1 if s.hi_kind is CLOSED else 3 * s.hi
        out.add(FiniteInterval(a, b))
    return RefinedRep(rep.grid.n, frozenset(out))


def canonicalize(rep: BreakpointRep) -> BreakpointRep:
    """Sort summands and families; equal canonical forms = isomorphic encodings."""
    return BreakpointRep(
        grid=rep.grid,
        summands=tuple(sorted(rep.summands)),
        families=tuple(sorted(rep.families)),
    )
