"""Independent oracles for the maximality tables, the finite enumeration and the fiber route.

``maxrigid.continuous`` decides rigidity, maximality and uniformity on one
graph per n, read off Ext^1 vanishing on a finite linear quiver.  The
helpers here decide the same questions the older, longer way, so that the
suite can compare the two:

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
  * ``gap_keys_by_insertion`` is ``finite._gap_keys`` as it was before
    templates: each range holds plain keys, and the top [a, b] joins each
    left key where ``bisect_left`` puts its code; ``_gap_keys`` must
    return the same list, order included.
  * ``pair_tables`` is ``finite._pair_tables`` as it was before interval
    ranks came by formula and rows came from runs: the interval list, a
    ``{FiniteInterval: rank}`` dict and the open adjacency rows, from the
    pair loop over ``ext_dim``.
  * ``tables_pair_loop`` is the ``_Tables`` graph as it was built before
    its rows were read off ``finite._pair_tables``: breakpoint i at rank
    2i, segment j's generic position at 2j+1, and ``_compatible_ends`` on
    every vertex pair.  ``member_ends`` gives a family's two members as
    end tuples on such ranks, for it and for ``sweep``.
  * ``searched_anchors`` finds the anchors a side admits with ``compatible``
    on sampled family members, and ``fiber_by_anchor`` builds a fiber from
    them with new ``FamilyChoice`` objects; ``bridge.fiber_reps`` reads the
    same anchors off the family rows of ``_Tables.closed``.
  * ``to_refined`` and ``refined_quiver`` are the refined-quiver route:
    ``condense(to_refined(rep))`` is ``project``'s oracle.
  * ``canonicalize`` sorts an encoding's summands and families, and
    ``rep_sort_key`` is the (summands, families) order that both
    enumerators and ``fiber_reps`` list reps in without sorting them.
  * ``validate_rep_two_loops`` is ``validate_rep`` as it was written with a
    membership test before each insertion and a scan over every segment for
    a missing family; the library's version must raise the same first error.
  * ``hash_mask`` and ``image_vertices`` index summands by their dataclass
    hash and segment-quiver images by their (a, b) tuple, as ``_Tables.mask``
    and a per-n image index did before summands had integer codes;
    ``_Tables.code_vertex`` must give the same vertices.  ``findex`` looks
    families up by their dataclass hash, as ``_Tables.findex`` did before
    family vertices came by formula.
  * ``is_clique`` and ``is_maximal_clique`` test one row per vertex, as
    the library did before it read both verdicts off
    ``cliques.common_neighbourhood``.
  * ``rep_from_dict_reference`` is ``cli.rep_from_dict`` as it was written
    with its own literal spellings of kinds and sides; the library's
    decoder must return an equal rep or raise the same error.
  * ``open_rows`` is the adjacency rows of a ``_Tables``: each closed row
    less its own vertex.
  * ``enumerate_by_groups`` is ``enumerate_maximal_rigid_reps`` as it was
    written before the gap-vertex recursion: one Bron-Kerbosch run on
    ``open_rows`` with its vertex bits reversed, the cliques grouped by
    summand mask and taken in descending mask order, with a ``claim`` that
    each holds 2n+1 summands and one family per segment; the library's
    list must equal it, order included.
  * ``shaped_counts`` counts the tilting sets of A_{4n+1} of rep shape by
    the free/split recursion, with integers only; it must equal the
    paper's ``continuous_count``.
  * ``reflect`` is the line reversal: [a, b] -> [m+1-b, m+1-a] on A_m, the
    duality D followed by renumbering the vertices of the opposite quiver,
    and x -> 1-x on summands, families and reps.  It keeps Ext^1
    vanishing, so it must permute the compatibility rows of either model
    and its maximal rigid objects among themselves; no second
    implementation is needed to check either.
  * ``collections_during``, ``in_oldest_generation`` and ``dead_cycle``
    read the cyclic collector's side of a call, for the collector contract
    of ``finite._enumerate``: the generation of each collection that
    started while it ran, whether objects sit in ``gc.get_objects(2)``,
    and a weak reference to an unreachable cycle that only a collection
    frees.
"""

from __future__ import annotations

import functools
import gc
import itertools
import random
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from maxrigid import (
    CLOSED,
    LEFT,
    OPEN,
    RIGHT,
    BadAnchorRangeError,
    BoundaryKind,
    BreakpointRep,
    Breakpoints,
    BreakSummand,
    DuplicateFamilyError,
    DuplicateSummandError,
    FamilyChoice,
    FiniteInterval,
    Interval,
    InvalidRepError,
    LinearQuiver,
    MissingFamilyError,
    NotRigidError,
    Point,
    RefinedRep,
    Side,
    all_break_summands,
    all_family_choices,
    all_intervals,
    compatible,
    ext_dim,
    pull_back_summands,
    sample_offsets,
    validate_rep,
)
from maxrigid.cliques import bits, max_cliques
from maxrigid.continuous import _lowest_unnamed, _tables
from maxrigid.counting import claim
from maxrigid.finite import _pair_tables, _shift_tables
from maxrigid.intervals import InvalidIntervalError, _compatible_ends


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


def member_ends(fam: FamilyChoice, x, far) -> tuple[tuple, tuple]:
    """Both members as (lo, lo_kind, hi, hi_kind), moving end x, anchored end far."""
    if fam.side is RIGHT:
        return (x, CLOSED, far, fam.anchor_kind), (x, OPEN, far, fam.anchor_kind)
    return (far, fam.anchor_kind, x, CLOSED), (far, fam.anchor_kind, x, OPEN)


def tables_pair_loop(n: int) -> list[int]:
    """The adjacency rows of the ``_Tables(n)`` graph, one ``_compatible_ends`` pair at a time.

    Breakpoint i is rank 2i and the one generic position of segment j is
    2j+1, the order of ``Point``; two vertices are adjacent when every
    member of one is compatible with every member of the other.
    """
    members = [((s.lo * 2, s.lo_kind, s.hi * 2, s.hi_kind),) for s in all_break_summands(n)]
    members += [member_ends(f, f.segment * 2 + 1, f.anchor * 2) for f in all_family_choices(n)]
    adj = [0] * len(members)
    for u, v in itertools.combinations(range(len(members)), 2):
        if all(_compatible_ends(*a, *b) for a in members[u] for b in members[v]):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


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
        [member_ends(fam, fam.segment * w + r, fam.anchor * w) for r in range(w)]
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
                        for ends in member_ends(fam, x, fam.anchor * w):
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
    summands = all_break_summands(rep.grid.n)
    present = set(rep.summands)
    for s in summands:
        if s not in present and all(compatible(s.as_interval(), iv) for iv in ivals):
            return False
    families = all_family_choices(rep.grid.n)
    smask = sum(1 << summands.index(s) for s in rep.summands)
    fmask = sum(1 << families.index(f) for f in rep.families)
    sw = sweep(rep.grid.n, tuple(fresh), samples_per_segment)
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
    adj = [row & ~(1 << v) for v, row in enumerate(_pair_tables(m))]
    return sorted(tuple(bits(mask)) for mask in max_cliques(adj))


def open_rows(tables) -> list[int]:
    """The open adjacency rows of ``tables``: each closed row without its own vertex."""
    return [row ^ 1 << v for v, row in enumerate(tables.closed)]


def enumerate_by_groups(grid: Breakpoints) -> list[BreakpointRep]:
    """The maximal rigid reps on ``grid`` in ``rep_sort_key`` order, from one Bron-Kerbosch run.

    The run is on ``open_rows(_tables(n))`` with its vertex numbering reversed:
    vertex v is bit V-1-v, so the summands, which come first there, are
    the high bits, and the binary digits of a mask, most significant
    first, list its vertices in ``_Tables`` order.  The cliques are
    grouped by summand mask, the groups taken in descending mask order and
    the family masks descending within each.  Of two vertex sets of equal
    size, the one holding the lowest vertex in which they differ has the
    smaller vertex tuple and the higher reversed mask, so this is
    ``rep_sort_key`` order as long as every clique holds 2n+1 summands
    and n families: a ``claim`` on each group and on each of its family
    masks checks both.
    """
    n = grid.n
    tables = _tables(n)
    width, split = len(tables.closed), len(tables.families)
    adj = [int(format(row, f"0{width}b")[::-1], 2) for row in reversed(open_rows(tables))]

    def members(items: list, mask: int) -> tuple:
        return tuple(itertools.compress(items, map(int, format(mask, f"0{len(items)}b"))))

    groups: dict[int, list[int]] = {}
    for clique in max_cliques(adj):
        groups.setdefault(clique >> split, []).append(clique & ((1 << split) - 1))
    out = []
    for smask in sorted(groups, reverse=True):
        summands = members(tables.summands, smask)
        claim(len(summands) == 2 * n + 1, "every maximal clique holds 2n+1 summands")
        for fmask in sorted(groups[smask], reverse=True):
            families = members(tables.families, fmask)
            claim(len(families) == n, "every maximal clique holds one family per segment")
            out.append(BreakpointRep(grid, summands, families))
    return out


def shaped_counts(top: int) -> list[int]:
    """The tilting sets of A_{4n+1} of rep shape, for n = 1..top, by the free/split recursion.

    free(a, b) counts them on [a, b], and split(a, b) is the sum over the
    gap vertex k of free(a, k-1) * free(k+1, b), an empty range counting
    1.  Read mod 4, free(a, b) is split(a, b) for a summand shape (a = 1
    or 2, b = 0 or 1), split(a+1, b) for a right family's closed member
    (a = 3, b = 0 or 1), whose open partner [a+1, b] tops the rest,
    split(a, b-1) for a left one (a = 1 or 2, b = 3), and 0 otherwise, as
    an open member never stands alone.  Shapes repeat with period 4, so
    free(a, b) is held at [a % 4][b - a + 1], the empty range at 0.
    """
    m = 4 * top + 1
    free = [[1] + [0] * m for _ in range(4)]

    def split(a: int, b: int) -> int:
        return sum(free[a % 4][k - a] * free[(k + 1) % 4][b - k] for k in range(a, b + 1))

    for length in range(1, m + 1):
        for a in range(1, 5):
            b = a + length - 1
            if a % 4 in (1, 2) and b % 4 in (0, 1):
                free[a % 4][length] = split(a, b)
            elif a % 4 == 3 and b % 4 in (0, 1):
                free[a % 4][length] = split(a + 1, b)
            elif a % 4 in (1, 2) and b % 4 == 3:
                free[a % 4][length] = split(a, b - 1)
    return [free[1][4 * n + 1] for n in range(1, top + 1)]


def reflect(size: int, item):
    """``item`` read from the other end of the line.

    On A_m (``size`` = m) an interval [a, b] becomes [m+1-b, m+1-a]: the
    duality D followed by renumbering the vertices of the opposite quiver.
    On n segments (``size`` = n), x -> 1-x sends a summand (lo, lk, hi,
    hk) to (n-hi, hk, n-lo, lk), a family (j, side, b, k) to (n-1-j, the
    other side, n-b, k), and a rep to the canonical rep of their images
    on the reflected grid.
    """
    if isinstance(item, FiniteInterval):
        return FiniteInterval(size + 1 - item.b, size + 1 - item.a)
    if isinstance(item, BreakSummand):
        return BreakSummand(size - item.hi, item.hi_kind, size - item.lo, item.lo_kind)
    if isinstance(item, FamilyChoice):
        side = LEFT if item.side is RIGHT else RIGHT
        return FamilyChoice(size - 1 - item.segment, side, size - item.anchor, item.anchor_kind)
    return BreakpointRep(
        Breakpoints(tuple(1 - v for v in reversed(item.grid.values))),
        tuple(sorted(reflect(size, s) for s in item.summands)),
        tuple(sorted(reflect(size, f) for f in item.families)),
    )


def gap_keys_by_insertion(m: int, period: int, code: dict[tuple[int, int], int]) -> list[bytes]:
    """The [1, m] keys of ``finite._gap_keys``, in its order, with plain keys in every range."""
    shifts = _shift_tables(code, period, m // period + 1)
    ranges = {(a, a - 1): [b""] for a in range(1, period + 1)}

    def part(a: int, b: int) -> list[bytes]:
        t = (a - 1) // period
        return [key.translate(shifts[t]) for key in ranges[a - t * period, b - t * period]] if t else ranges[a, b]

    for b in range(1, m + 1):
        for a in range(min(b, period), 0, -1):
            keys = ranges[a, b] = []
            c = code[a, b]
            top = bytes((c,))
            for k in range(a, b + 1):
                rights = part(k + 1, b)
                keys += [head + right for left in part(a, k - 1)
                         for i in (bisect_left(left, c),) for head in (left[:i] + top + left[i:],)
                         for right in rights]
            if b < m or a > 1:
                keys.sort()
    return ranges[1, m]


def pair_tables(m: int) -> tuple[list[FiniteInterval], dict[FiniteInterval, int], list[int]]:
    """The intervals of A_m, their ranks by dict and the compatibility rows
    without the diagonal, one ``ext_dim`` pair at a time."""
    q = LinearQuiver(m)
    ivs = all_intervals(q)
    index = {iv: k for k, iv in enumerate(ivs)}
    adj = [0] * len(ivs)
    for i, j in itertools.combinations(ivs, 2):
        if ext_dim(q, i, j) == 0 and ext_dim(q, j, i) == 0:
            adj[index[i]] |= 1 << index[j]
            adj[index[j]] |= 1 << index[i]
    return ivs, index, adj


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
    return LinearQuiver(3 * n + 1)


def to_refined(rep: BreakpointRep) -> RefinedRep:
    """Rewrite the anchored summands on the refined quiver; families vanish."""
    validate_rep(rep)
    out = set()
    for s in rep.summands:
        a = 3 * s.lo + 1 if s.lo_kind is CLOSED else 3 * s.lo + 2
        b = 3 * s.hi + 1 if s.hi_kind is CLOSED else 3 * s.hi
        out.add(FiniteInterval(a, b))
    return RefinedRep(rep.grid.n, frozenset(out))


def rep_sort_key(rep: BreakpointRep) -> tuple:
    return (rep.summands, rep.families)


def canonicalize(rep: BreakpointRep) -> BreakpointRep:
    """Sort summands and families; equal canonical forms = isomorphic encodings."""
    return BreakpointRep(
        grid=rep.grid,
        summands=tuple(sorted(rep.summands)),
        families=tuple(sorted(rep.families)),
    )


def validate_rep_two_loops(rep: BreakpointRep) -> None:
    """``validate_rep`` with one hash per membership test and one per insertion."""
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


@functools.cache
def _summand_index(n: int) -> dict:
    return {s: v for v, s in enumerate(_tables(n).summands)}


@functools.cache
def findex(n: int) -> dict:
    """The vertex of each family choice at n, keyed by the choice (its dataclass hash)."""
    tables = _tables(n)
    return {f: len(tables.summands) + i for i, f in enumerate(tables.families)}


def hash_mask(n: int, summands, families) -> int:
    """The vertex bitmask of summands and families, each looked up by its dataclass hash."""
    sindex, fvertex = _summand_index(n), findex(n)
    return sum({1 << sindex[s] for s in summands} | {1 << fvertex[f] for f in families})


def is_clique(adjacency, mask: int) -> bool:
    """Whether the vertices of ``mask`` are pairwise adjacent, one row at a time."""
    return all((adjacency[v] | 1 << v) & mask == mask for v in bits(mask))


def is_maximal_clique(adjacency, mask: int, within: int) -> bool:
    """Whether no vertex of ``within`` outside the clique ``mask`` extends it, one row at a time."""
    return not any(adjacency[v] & mask == mask for v in bits(within & ~mask))


@functools.cache
def image_vertices(n: int) -> dict[tuple[int, int], int]:
    """The summand vertex of each segment-quiver interval, keyed by its (a, b) tuple.

    The ends are ``project``'s: a_i is 2i+1 and an open end moves inward.
    """
    return {
        (2 * s.lo + 1 + s.lo_kind, 2 * s.hi + 1 - s.hi_kind): v
        for v, s in enumerate(_tables(n).summands)
    }


_KINDS_REFERENCE = {"closed": CLOSED, "open": OPEN}


def _expect_keys_reference(obj, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise InvalidRepError(f"NotAnObject({where})")
    extra = set(obj) - allowed
    if extra:
        raise InvalidRepError(f"UnknownKey({sorted(extra)[0]}) in {where}")


def _kind_reference(value, where: str) -> BoundaryKind:
    if type(value) is not str or value not in _KINDS_REFERENCE:
        raise InvalidRepError(f"BadBoundaryKind({value!r}) in {where}")
    return _KINDS_REFERENCE[value]


def _int_reference(value) -> int:
    """A JSON integer; floats, strings and booleans raise TypeError."""
    if type(value) is not int:
        raise TypeError(f"not an integer: {value!r}")
    return value


def rep_from_dict_reference(data: dict) -> BreakpointRep:
    """``cli.rep_from_dict`` with the literal spellings ``"closed"``, ``"open"``,
    ``"left"`` and ``"right"``, and its helpers copied beside it."""
    if not isinstance(data, dict):
        raise InvalidRepError("TopLevelNotAnObject")
    _expect_keys_reference(data, {"n", "alpha", "t_part", "families"}, "top level")
    try:
        n = _int_reference(data["n"])
    except (KeyError, TypeError):
        raise InvalidRepError("MissingOrBadField(n)") from None
    for field in ("t_part", "families"):
        if field in data and not isinstance(data[field], list):
            raise InvalidRepError(f"NotAList({field})")
    summands = []
    for entry in data.get("t_part", []):
        _expect_keys_reference(entry, {"lo", "lo_kind", "hi", "hi_kind"}, "t_part entry")
        try:
            summands.append(
                BreakSummand(
                    _int_reference(entry["lo"]),
                    _kind_reference(entry["lo_kind"], "t_part entry"),
                    _int_reference(entry["hi"]),
                    _kind_reference(entry["hi_kind"], "t_part entry"),
                )
            )
        except InvalidIntervalError as exc:
            raise InvalidRepError(str(exc)) from None
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, InvalidRepError):
                raise
            raise InvalidRepError("MissingOrBadField(t_part)") from None
    families = []
    for entry in data.get("families", []):
        _expect_keys_reference(entry, {"segment", "side", "anchor", "anchor_kind"}, "families entry")
        side = entry.get("side")
        if side not in ("left", "right"):
            raise InvalidRepError(f"BadSide({side!r})")
        try:
            families.append(
                FamilyChoice(
                    _int_reference(entry["segment"]),
                    Side(side),
                    _int_reference(entry["anchor"]),
                    _kind_reference(entry["anchor_kind"], "families entry"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, InvalidRepError):
                raise
            raise InvalidRepError("MissingOrBadField(families)") from None
    if "alpha" in data and data["alpha"] is not None:
        if not isinstance(data["alpha"], list):
            raise InvalidRepError("BadAlpha")
        try:
            grid = Breakpoints(tuple(data["alpha"]))
        except (TypeError, ValueError, ZeroDivisionError):
            raise InvalidRepError("BadAlpha") from None
        if grid.n != n:
            raise InvalidRepError(f"AlphaLengthMismatch(n={n}, points={grid.n + 1})")
    elif n > len(families):
        # a valid encoding names each of the n segments exactly once
        raise MissingFamilyError(_lowest_unnamed({f.segment for f in families}, n))
    else:
        grid = Breakpoints.uniform(n)
    return BreakpointRep(grid=grid, summands=tuple(summands), families=tuple(families))


def collections_during(call):
    """``call()``'s result and the generation of each collection that started while it ran,
    in order, as a ``gc.callbacks`` hook sees them."""
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(record)
    try:
        return call(), generations
    finally:
        gc.callbacks.remove(record)


def in_oldest_generation(objs) -> bool:
    """Whether every object of ``objs`` is in ``gc.get_objects(2)``."""
    oldest = set(map(id, gc.get_objects(2)))
    return all(id(obj) in oldest for obj in objs)


class _Node:
    pass


def dead_cycle() -> weakref.ref:
    """A weak reference to a new object that refers to itself and to nothing else: only a
    collection frees it."""
    node = _Node()
    node.self = node
    return weakref.ref(node)
