"""Cliques of a compatibility graph over bitmask adjacency.

Vertices are bit positions and ``adjacency[v]`` is the neighbor bitmask of
vertex ``v``, without the bit of ``v`` itself.  A rigid object is a clique
of its model's compatibility graph and a maximal rigid one is a maximal
clique; ``common_neighbourhood`` of its vertices decides both, and
``max_cliques`` (Bron-Kerbosch with pivoting) lists the maximal cliques.
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
    ``p | x`` with the most neighbors among the candidates ``p``.
    """
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        best, pivot = -1, -1
        t = p | x
        while t:
            v = (t & -t).bit_length() - 1
            t &= t - 1
            c = (adjacency[v] & p).bit_count()
            if c > best:
                best, pivot = c, v
        cand = p & ~adjacency[pivot]
        while cand:
            vbit = cand & -cand
            v = vbit.bit_length() - 1
            cand ^= vbit
            bk(r | vbit, p & adjacency[v], x & adjacency[v])
            p ^= vbit
            x |= vbit

    bk(0, (1 << len(adjacency)) - 1, 0)
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
