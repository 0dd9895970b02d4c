"""Cliques of a compatibility graph over bitmask adjacency.

Vertices are bit positions and ``adjacency[v]`` is the neighbor bitmask of
vertex ``v``, without the bit of ``v`` itself.  A rigid object is a clique
of its model's compatibility graph and a maximal rigid one is a maximal
clique; ``common_neighbourhood`` of its vertices decides both.  Both models
enumerate by the gap-vertex recursion; ``max_cliques`` (Bron-Kerbosch with
pivoting), deterministic in its order, is the tests' oracle for both.
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
        a call.

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
