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
from collections import Counter
from fractions import Fraction
from typing import Iterator

from . import bridge, counting, finite
from .continuous import (
    BreakpointRep,
    Breakpoints,
    all_break_summands,
    enumerate_maximal_rigid_reps,
    rep_sort_key,
)
from .intervals import CLOSED, OPEN, Interval, Point, compatible

Result = tuple[str, bool]


def closed_forms(max_m: int = 6) -> Result:
    """Hom/Ext closed forms against brute force, resolutions and the Euler form."""
    ok = all(
        finite.hom_dim(q, i, j) == finite.hom_dim_bruteforce(q, i, j)
        and finite.ext_dim(q, i, j) == finite.ext_dim_resolution(q, i, j)
        and finite.hom_dim(q, i, j) - finite.ext_dim(q, i, j) == finite.euler_form(q, i, j)
        for q in map(finite.LinearQuiver, range(1, max_m + 1))
        for i in finite.all_intervals(q)
        for j in finite.all_intervals(q)
    )
    return f"hom/ext closed forms match enumeration and resolution oracles (m <= {max_m})", ok


def tilting_agrees(q: finite.LinearQuiver, ivs: list[finite.FiniteInterval], bits: int) -> bool:
    """Whether tilting and maximal rigid agree on the subset of ``ivs`` picked by ``bits``."""
    subset = frozenset(iv for k, iv in enumerate(ivs) if bits >> k & 1)
    return finite.is_tilting(q, subset) == finite.is_maximal_rigid_set(q, subset)


def tilting_iff_maximal_rigid(max_m: int = 4) -> Result:
    """Tilting <=> maximal rigid on every subset of interval modules, m <= max_m."""
    ok = True
    for m in range(1, max_m + 1):
        q = finite.LinearQuiver(m)
        ivs = finite.all_intervals(q)
        ok = ok and all(tilting_agrees(q, ivs, bits) for bits in range(1 << len(ivs)))
    return f"tilting <=> maximal rigid on every subset (m <= {max_m})", ok


def grid_compatibility(n: int) -> Result:
    """Compatibility against the discretized Ext oracle on all breakpoint intervals."""
    ivals = [s.as_interval() for s in all_break_summands(n)]
    ok = all(compatible(a, b) == bridge.discretized_compatible(a, b) for a in ivals for b in ivals)
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


def random_compatibility(
    seed: int, pairs: int = 10_000, denominator: int = 60, offsets: int = 6
) -> Result:
    """Compatibility against the discretized Ext oracle on random pairs over 3 segments.

    Each segment draws ``offsets`` generic offsets k/denominator first.
    """
    rng = random.Random(seed)
    pool = {
        seg: [Fraction(rng.randrange(1, denominator), denominator) for _ in range(offsets)]
        for seg in range(3)
    }
    ok = True
    for _ in range(pairs):
        a = random_interval(rng, 3, pool)
        b = random_interval(rng, 3, pool)
        if compatible(a, b) != bridge.discretized_compatible(a, b):
            ok = False
            break
    return f"compatibility matches the discretized Ext oracle ({pairs} random pairs, seed {seed})", ok


def enumerations(n: int) -> tuple[list[BreakpointRep], list[finite.RigidSet]]:
    """The direct enumeration on n uniform segments and the segment-quiver sets.

    These are the ``reps`` and ``projected`` that the three checks below take.
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


def projection_fibers(n: int, reps: list, projected: list) -> list[Result]:
    """The projection is onto the segment-quiver sets with fibers of exactly 2^n."""
    images = Counter(map(bridge.project, reps))
    return [
        (f"n={n}: projection is onto the maximal rigid sets",
         set(images) == {h.summands for h in projected}),
        (f"n={n}: every projected image has exactly 2^{n} preimages",
         all(v == 2**n for v in images.values())),
    ]


def fiber_expansion(n: int, reps: list, projected: list) -> Result:
    """Expanding every segment-quiver set into its fiber gives the direct enumeration."""
    grid = Breakpoints.uniform(n)
    expanded = [r for h in projected for r in bridge.fiber_reps(h.members, grid)]
    ok = sorted(expanded, key=rep_sort_key) == reps
    return f"n={n}: fiber expansion reproduces the direct enumeration", ok


def round_trip(n: int) -> Result:
    """Condensing the expansion of every segment-quiver interval module gives it back."""
    ok = all(
        bridge.condense(bridge.expand([iv], n)) == frozenset([iv])
        for iv in finite.all_intervals(bridge.segment_quiver(n))
    )
    return f"n={n}: refined/segment round-trip on all interval modules", ok


def count_identities(max_n: int = 64) -> Result:
    """count(n) = 2^n * projected(n) and projected(n) = Catalan(2n+1)."""
    ok = all(
        counting.continuous_count(n) == 2**n * counting.projected_count(n)
        and counting.projected_count(n) == counting.catalan(2 * n + 1)
        for n in range(1, max_n + 1)
    )
    return f"count identities hold for n <= {max_n}", ok


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
        yield fiber_expansion(k, reps, projected)
        del reps, projected  # so the next n is built without this one alive
        yield round_trip(k)
    yield count_identities()
