"""The cross-checks behind ``maxrigid verify``.

Each check replays a fast path against its independent oracle and
returns ``(label, ok)``; :func:`checks` yields them in the order the CLI
prints them.  The per-n enumeration checks take the two lists of
:func:`enumerations` as arguments: ``checks`` builds them once per n and
drops them before the next.  The acceptance suite calls the same
functions, so the CLI and the tests cannot drift apart.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, groupby, product
from operator import attrgetter
from typing import Iterator

from . import bridge, counting, finite
from .continuous import (
    BreakpointRep,
    Breakpoints,
    _tables,
    all_break_summands,
    enumerate_maximal_rigid_reps,
)
from .intervals import CLOSED, OPEN, Interval, Point, compatible

Result = tuple[str, bool]


def closed_forms() -> Result:
    """Hom/Ext closed forms against brute force, resolutions and the Euler form, m <= 6."""
    ok = all(
        finite.hom_dim(q, i, j) == finite.hom_dim_bruteforce(q, i, j)
        and finite.ext_dim(q, i, j) == finite.ext_dim_resolution(q, i, j)
        and finite.hom_dim(q, i, j) - finite.ext_dim(q, i, j) == finite.euler_form(q, i, j)
        for q in map(finite.LinearQuiver, range(1, 7))
        for i in finite.all_intervals(q)
        for j in finite.all_intervals(q)
    )
    return "hom/ext closed forms match enumeration and resolution oracles (m <= 6)", ok


def tilting_agrees(q: finite.LinearQuiver, ivs: list[finite.FiniteInterval], bits: int) -> bool:
    """Whether tilting and maximal rigid agree on the subset of ``ivs`` picked by ``bits``."""
    subset = frozenset(iv for k, iv in enumerate(ivs) if bits >> k & 1)
    return finite.is_tilting(q, subset) == finite.is_maximal_rigid_set(q, subset)


def tilting_iff_maximal_rigid() -> Result:
    """Tilting <=> maximal rigid on every subset of interval modules, m <= 4."""
    ok = True
    for m in range(1, 5):
        q = finite.LinearQuiver(m)
        ivs = finite.all_intervals(q)
        ok = ok and all(tilting_agrees(q, ivs, bits) for bits in range(1 << len(ivs)))
    return "tilting <=> maximal rigid on every subset (m <= 4)", ok


def grid_compatibility(n: int) -> Result:
    """Compatibility against the discretized Ext oracle on all breakpoint intervals.

    ``intervals.compatible`` and the library's closed rows must both give the
    oracle's verdict; ``all_break_summands`` order is the rows' summand order.
    """
    ivals = [s.as_interval() for s in all_break_summands(n)]
    closed = _tables(n).closed
    ok = all(
        compatible(a, b) == bool(closed[u] >> v & 1) == bridge.discretized_compatible(a, b)
        for u, a in enumerate(ivals)
        for v, b in enumerate(ivals)
    )
    return f"compatibility matches the discretized Ext oracle (grid pairs, n={n})", ok


def _random_point(rng: random.Random, n: int, pool: dict) -> Point:
    if rng.random() < 0.4:
        return Point.breakpoint(rng.randrange(n + 1))
    segment = rng.randrange(n)
    return Point.generic(segment, rng.choice(pool[segment]))


def random_interval(rng: random.Random, n: int, pool: dict) -> Interval:
    """A random flavored interval on n segments.

    Endpoints are breakpoints (probability 0.4) or generic points at an
    offset from ``pool[segment]``; a point interval is closed-closed, any
    other draws both flavors.
    """
    lo, hi = sorted((_random_point(rng, n, pool), _random_point(rng, n, pool)))
    if lo == hi:
        return Interval(lo, CLOSED, hi, CLOSED)
    return Interval(lo, rng.choice((CLOSED, OPEN)), hi, rng.choice((CLOSED, OPEN)))


def random_compatibility(seed: int) -> Result:
    """Compatibility against the discretized Ext oracle on 10,000 random pairs over 3 segments.

    Each segment draws 6 generic offsets k/60 first.
    """
    rng = random.Random(seed)
    pool = {seg: [Fraction(rng.randrange(1, 60), 60) for _ in range(6)] for seg in range(3)}
    pairs = ((random_interval(rng, 3, pool), random_interval(rng, 3, pool)) for _ in range(10_000))
    ok = all(compatible(a, b) == bridge.discretized_compatible(a, b) for a, b in pairs)
    return f"compatibility matches the discretized Ext oracle (10000 random pairs, seed {seed})", ok


def enumerations(n: int) -> tuple[list[BreakpointRep], list[finite.RigidSet]]:
    """The direct enumeration on n uniform segments and the segment-quiver sets.

    These are the ``reps`` and ``projected`` that the two checks below take.
    """
    reps = enumerate_maximal_rigid_reps(Breakpoints.uniform(n))
    return reps, finite.enumerate_maximal_rigid(bridge.segment_quiver(n))


def enumeration_counts(n: int, reps: list, projected: list) -> list[Result]:
    """Both enumerations against their closed forms."""
    formula = counting.continuous_count(n)
    projected_formula = counting.projected_count(n)
    return [
        (f"n={n}: direct enumeration ({len(reps)}) matches the formula ({formula})",
         len(reps) == formula),
        (f"n={n}: segment-quiver enumeration ({len(projected)}) matches the formula ({projected_formula})",
         len(projected) == projected_formula),
    ]


def _forced_by_rule(image, n: int) -> list[tuple[int, int]]:
    """The (left, right) indices in ``all_family_choices(n)`` of the families that a tilting
    set T (``image``) of the segment quiver A_{2n+1} forces, one pair per segment.

    Segment j is vertex s = 2j+2.  Its right family stands for [s, F_r], F_r
    the largest b over members [s+1, b] of T, or s if there are none; its
    left family for [F_l, s], F_l the smallest a over members [a, s-1], or
    s.  A right family at a_i has F_r = 2i+1 if closed and 2i if open, so
    it is 2i + kind = F_r ^ 1 in its segment's block (CLOSED is 0); a left
    one has F_l = 2i+1 if closed and 2i+2 if open, and is F_l - 1 there.
    It reads T only, none of ``_Tables``' rows.

    Why.  In ``_Tables``' model A_{4n+1}, a vertex v of A_{2n+1} is 2v-1 if
    odd and, if even, 2v-2 as a start and 2v as an end; both maps keep
    order.  The right family whose anchor stands for F >= s has the members
    [4j+3, E] and [4j+4, E], E the image of F as an end, and no summand
    starts at 4j+3 or 4j+4.  Two intervals of A_m are compatible exactly
    when nested or apart by a vertex, so the family is compatible with a
    member [c, d] exactly when

      * c < s and (d < s or d >= F), or c = s and d >= F;
      * c > s and (d <= F or c >= F+2).

    By the second line with c = s+1, F >= F_r.  Now take the member [a, b]
    whose gap is s: the one range of T's tree of ranges and gaps
    (``finite._gap_keys``) that splits at s, so a <= s <= b.  If b > s its
    right part [s+1, b] is a member, and every member that starts at s+1
    lies in that part: the ranges above [a, b] start at or before a, and
    the others lie in one of its parts or past b.  If b = s, none starts at
    s+1: the lowest range above [a, b] that ends past s splits at s+1, and
    every range starts at or before a, in one of that range's parts, or
    past its end.  Either way b = F_r.  As a <= s <= b = F_r, [a, b] fails
    the first line for every F > F_r.  The family at F_r passes both lines:
    if F_r = s a member fails them only by starting at s+1, and none does;
    otherwise a member that fails them is neither nested in nor apart from
    [s+1, F_r].  So the forced right family is the one at F_r.  Reflecting
    A_{2n+1} keeps tilting sets and segment vertices and swaps the sides,
    so the forced left family is the one at F_l = a.  The tests check the
    rule against ``_forced_pairs``, the reference for the enumerator's
    ``_forced_pairs_batch``, on every tilting set for n <= 4, and
    ``verify --n 5`` checks it on every one at n = 5.
    """
    ends, starts = {}, {}  # the largest end per start, the smallest start per end
    for a, b in map(attrgetter("a", "b"), image):
        if ends.get(a, 0) < b:
            ends[a] = b
        if starts.get(b, b) >= a:
            starts[b] = a
    step = 2 * n + 2
    return [(step * j + starts.get(s - 1, s) - 1, step * j + (ends.get(s + 1, s) ^ 1))
            for j, s in enumerate(range(2, 2 * n + 1, 2))]


def _ends_key(intervals) -> bytes:
    """The (a, b) ends of ``intervals``, sorted, as one ``bytes``: equal exactly for equal sets
    of distinct segment-quiver intervals, whose ends are at most 2 * ``MAX_N`` + 1."""
    return bytes(chain.from_iterable(sorted(map(attrgetter("a", "b"), intervals))))


def projection_fibers(n: int, reps: list, projected: list) -> list[Result]:
    """The projection is onto the segment-quiver sets with fibers of exactly 2^n,
    and expanding every set into its fiber gives the direct enumeration.

    ``reps`` is read as runs of equal ``summands`` (tuples the enumerator
    shares), each run projected once.  The expansion holds when the projection
    is onto, the runs strictly ascend, each run's summands are in vertex
    (dataclass) order, its families are, in order, each tuple of ``product``
    over :func:`_forced_by_rule`'s pairs of the image, and each of its reps
    has the first rep's grid, checked once against the uniform one.  The
    rule reads the image alone, so the check is independent of the
    enumerator's ``_forced_pairs_batch`` and ``bridge.fiber_reps``'
    ``_forced_pairs``, which read one block table; it runs none of them and
    builds no rep.  The families are ``_tables(n).families``, the objects
    the enumerator shares, so equal tuples compare by identity.
    The images and the segment-quiver sets are compared as their
    :func:`_ends_key`, so no frozenset is built per set and no
    ``FiniteInterval`` is hashed or compared by its dataclass methods; the
    keys are ``bytes``, which the collector does not track, so keeping them
    starts no collection.
    """
    tables, targets = _tables(n), set(map(_ends_key, map(attrgetter("members"), projected)))
    grid, family = reps[0].grid if reps else None, tables.families
    images, sized, expands, previous = [], True, grid == Breakpoints.uniform(n), ()
    for summands, run in groupby(reps, key=attrgetter("summands")):
        run = list(run)
        image = bridge.project(run[0])
        images.append(key := _ends_key(image))
        sized = sized and len(run) == 2**n
        order = list(map(tables.code_vertex.__getitem__, map(attrgetter("code"), summands)))
        pairs = key in targets and [(family[l], family[r]) for l, r in _forced_by_rule(image, n)]
        expands = (expands and previous < summands and pairs and order == sorted(order)
                   and list(map(attrgetter("families"), run)) == list(product(*pairs))
                   and list(map(attrgetter("grid"), run)).count(grid) == len(run))
        previous = summands
    onto = set(images) == targets
    return [
        (f"n={n}: projection is onto the maximal rigid sets", onto),
        (f"n={n}: every projected image has exactly 2^{n} preimages", sized and len(set(images)) == len(images)),
        (f"n={n}: fiber expansion reproduces the direct enumeration", onto and expands),
    ]


def round_trip(n: int) -> Result:
    """Condensing the expansion of every segment-quiver interval module gives it back."""
    ok = all(
        bridge.condense(bridge.expand([iv], n)) == frozenset([iv])
        for iv in finite.all_intervals(bridge.segment_quiver(n))
    )
    return f"n={n}: refined/segment round-trip on all interval modules", ok


def count_identities() -> Result:
    """count(n) = 2^n * projected(n) and projected(n) = Catalan(2n+1), n <= 64."""
    ok = all(
        counting.continuous_count(n) == 2**n * counting.projected_count(n)
        and counting.projected_count(n) == counting.catalan(2 * n + 1)
        for n in range(1, 65)
    )
    return "count identities hold for n <= 64", ok


def checks(n: int, seed: int) -> Iterator[Result]:
    """Every check of ``maxrigid verify --n n --seed seed``, in print order."""
    yield closed_forms()
    yield tilting_iff_maximal_rigid()
    for k in range(1, n + 1):
        yield grid_compatibility(k)
    yield random_compatibility(seed)
    for k in range(1, n + 1):
        reps, projected = enumerations(k)
        yield from enumeration_counts(k, reps, projected)
        yield from projection_fibers(k, reps, projected)
        del reps, projected  # so the next n is built without this one alive
        yield round_trip(k)
    yield count_identities()
