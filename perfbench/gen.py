"""Seeded inputs for the benchmark workloads.

``make_inputs(workload, seed)`` returns plain JSON-able data; the same seed
always gives the same data.  It runs in the controlling process, before any
timed process starts, so generating inputs counts in no metric.  It imports
``maxrigid`` only to draw from sets the library itself defines (the
maximal rigid sets on the segment quiver and their fibers).
"""

from __future__ import annotations

import json
import random

ENUM_N = 3  # segments for enum-n3
N = 4  # segments for fiber-n4, query-n4 and the compatible probe
M = 10  # vertices for finite-m10

FIBER_DRAWS = 6000  # images per fiber-n4 run; cycled if a run needs more
QUERY_BASES = 256  # distinct maximal reps behind the query-n4 encodings
QUERY_DRAWS = 12000  # encodings per query-n4 run; cycled if a run needs more
FINITE_SAMPLE = 64  # sets of finite-m10 re-checked outside the timed section
COMPAT_PAIRS = 100_000  # calls in the intervals.compatible probe

KINDS = ("intact", "dropped", "foreign")  # query-n4 encoding kinds


def compat_pool(mr) -> list:
    """The n=4 intervals the compatible probe draws pairs from.

    Every breakpoint summand plus both members of every family choice at
    the two default sample positions of its segment.
    """
    pool = [s.as_interval() for s in mr.all_break_summands(N)]
    for fam in mr.all_family_choices(N):
        for off in mr.sample_offsets(2):
            pool.extend(fam.members(mr.Point.generic(fam.segment, off)))
    return pool


def _compat_pairs(mr, rng: random.Random) -> list[list[int]]:
    size = len(compat_pool(mr))
    return [[rng.randrange(size), rng.randrange(size)] for _ in range(COMPAT_PAIRS)]


def _images(mr, n: int) -> list[list[list[int]]]:
    """The maximal rigid sets on the segment quiver for n, canonical order."""
    sets = mr.enumerate_maximal_rigid(mr.segment_quiver(n))
    return [[[s.a, s.b] for s in rs.sorted_summands()] for rs in sets]


def _maximal_reps(mr, rng: random.Random, n: int, count: int) -> list:
    """``count`` seeded maximal reps: a random member of a random image's fiber."""
    images = _images(mr, n)
    grid = mr.Breakpoints.uniform(n)
    out = []
    for _ in range(count):
        image = [mr.FiniteInterval(a, b) for a, b in rng.choice(images)]
        out.append(rng.choice(mr.fiber_reps(image, grid)))
    return out


def _query_texts(mr, rng: random.Random) -> tuple[list[str], list[str]]:
    """One encoding of each kind per seeded maximal rep, as JSON text.

    ``intact`` is a maximal rep (rigid, maximal).  ``dropped`` loses one
    summand, so it stays rigid and the summand can be added back.
    ``foreign`` gains a breakpoint summand outside the rep; maximality
    means no such summand is compatible with all members, so it is not
    rigid.  All three keep the rep's families, so all are uniform.
    """
    every = mr.all_break_summands(N)
    texts, kinds = [], []
    for rep in _maximal_reps(mr, rng, N, QUERY_BASES):
        summands = list(rep.summands)
        dropped = list(summands)
        del dropped[rng.randrange(len(dropped))]
        outside = [s for s in every if s not in rep.summands]
        foreign = sorted(summands + [rng.choice(outside)])
        for kind, chosen in zip(KINDS, (summands, dropped, foreign)):
            variant = mr.BreakpointRep(rep.grid, tuple(chosen), rep.families)
            texts.append(json.dumps(mr.cli.rep_to_dict(variant), sort_keys=True))
            kinds.append(kind)
    return texts, kinds


def _query_order(rng: random.Random, kinds: list[str]) -> list[int]:
    """Blocks of three encodings, one of each kind in seeded order.

    The mix of kinds is fixed at one third each, so that the latency
    percentiles do not move with the share of slow ``intact`` checks.
    """
    by_kind = {k: [i for i, got in enumerate(kinds) if got == k] for k in KINDS}
    order = []
    while len(order) < QUERY_DRAWS:
        block = list(KINDS)
        rng.shuffle(block)
        order.extend(rng.choice(by_kind[k]) for k in block)
    return order


def make_inputs(workload: str, seed: int) -> dict:
    import maxrigid as mr
    import maxrigid.cli  # noqa: F401  (binds mr.cli)

    rng = random.Random(f"{workload}/{seed}")
    if workload == "finite-m10":
        total = mr.catalan(M)
        return {"m": M, "sample": sorted(rng.sample(range(total), FINITE_SAMPLE))}
    inputs = {"n": N, "compat_pairs": _compat_pairs(mr, rng)}
    if workload == "enum-n3":
        (rep,) = _maximal_reps(mr, rng, ENUM_N, 1)
        inputs["n"] = ENUM_N
        inputs["warm_rep"] = mr.cli.rep_to_dict(rep)
    elif workload == "fiber-n4":
        images = _images(mr, N)
        inputs["warm_image"] = images[0]
        inputs["images"] = [rng.choice(images) for _ in range(FIBER_DRAWS)]
    elif workload == "query-n4":
        texts, kinds = _query_texts(mr, rng)
        inputs["texts"] = texts
        inputs["kinds"] = kinds
        inputs["order"] = _query_order(rng, kinds)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
