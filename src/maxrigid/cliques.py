"""Cliques of a compatibility graph over bitmask adjacency.

Vertices are bit positions and ``adjacency[v]`` is the neighbor bitmask of
vertex ``v``, without the bit of ``v`` itself.  A rigid object is a clique
of its model's compatibility graph and a maximal rigid one is a maximal
clique; ``common_neighbourhood`` of its vertices decides both, and
``max_cliques`` (Bron-Kerbosch with pivoting) lists the maximal cliques.
It stops each pivot scan once no vertex of P can do better, and appends
the leaves of an independent P, or of a child with nothing left to add,
without a call; neither changes the set of cliques (see its docstring).
The inner loops are pure bit arithmetic; output order is deterministic for
a given adjacency.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Sequence


def common_neighbourhood(closed: Sequence[int], vertices: Iterable[int]) -> int:
    """The AND of the closed rows ``adjacency[v] | 1 << v`` over ``vertices`` (-1 if none).

    For that ``common`` and the vertices' ``mask``: ``mask`` is a clique iff ``common & mask ==
    mask``, and a clique is maximal within ``within`` iff ``common & within == mask & within``.
    """
    return functools.reduce(operator.and_, map(closed.__getitem__, vertices), -1)


def max_cliques(adjacency: Sequence[int]) -> list[int]:
    """All maximal cliques of the whole graph, as bitmasks.

    Bron-Kerbosch with the Tomita-Tanaka-Takahashi pivot: the vertex of
    ``p | x`` with the most neighbors among the candidates ``p``.  Two
    shortcuts leave the set of cliques unchanged:

      * the pivot scan stops at the first vertex with at least |P| - 1
        neighbours in P.  A vertex of P has at most |P| - 1 there, so only
        a vertex of X adjacent to all of P could do better, and the result
        does not depend on which vertex is the pivot;
      * a child whose P would be empty is a leaf: ``r | v`` is maximal
        unless a vertex of X is adjacent to v, and it is appended without
        a call.  When the pivot has no neighbour in P, P is independent
        (a scan that stops at 0 neighbours had |P| = 1, and a full one saw
        every vertex of P), so every child is such a leaf.  The general
        loop would append the same leaves in the same order; the separate
        loop for that case skips its per-leaf ``p & row`` and ``x |= v``,
        which took ``enum-n3`` ``run_ref`` from 40.6 to 38.6 ref (10 of 10
        alternating pairs, ``BENCH_22.json`` ``independent_p_loop``).

    The empty graph has one maximal clique, the empty one: ``[0]``.
    """
    out: list[int] = []
    append = out.append

    def bk(r: int, p: int, x: int) -> None:
        # p is never empty here
        enough = p.bit_count() - 1
        best, pivot = -1, -1
        t = p | x
        while t:
            v = (t & -t).bit_length() - 1
            t &= t - 1
            c = (adjacency[v] & p).bit_count()
            if c > best:
                best, pivot = c, v
                if c >= enough:
                    break
        if not best:
            while p:
                vbit = p & -p
                if not x & adjacency[vbit.bit_length() - 1]:
                    append(r | vbit)
                p ^= vbit
            return
        cand = p & ~adjacency[pivot]
        while cand:
            vbit = cand & -cand
            row = adjacency[vbit.bit_length() - 1]
            cand ^= vbit
            q = p & row
            if q:
                bk(r | vbit, q, x & row)
            elif not x & row:
                append(r | vbit)
            p ^= vbit
            x |= vbit

    if adjacency:
        bk(0, (1 << len(adjacency)) - 1, 0)
    else:
        append(0)
    del bk  # bk's closure holds bk; that cycle would keep ``out`` alive until a collection
    return out


def bits(mask: int) -> list[int]:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out
