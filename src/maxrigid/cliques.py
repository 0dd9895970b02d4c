"""Cliques of a compatibility graph over bitmask adjacency.

Vertices are bit positions and ``adjacency[v]`` is the neighbor bitmask of
vertex ``v``, without the bit of ``v`` itself.  A rigid object is a clique
of its model's compatibility graph and a maximal rigid one is a maximal
clique; ``common_neighbourhood`` of its vertices decides both.  Both models
enumerate by the gap-vertex recursion; ``max_cliques``, plain Bron-Kerbosch
with pivoting and deterministic in its order, is the tests' oracle for both
and the benchmark's finite probe.
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

    Bron-Kerbosch with the Tomita-Tanaka-Takahashi pivot: the first vertex
    of ``p | x`` with the most neighbours among the candidates ``p``; only
    the candidates outside the pivot's neighbourhood are branched on.  The
    empty graph has one maximal clique, the empty one: ``[0]``.
    """
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if not p | x:
            out.append(r)
            return
        pivot = max(bits(p | x), key=lambda v: (adjacency[v] & p).bit_count())
        for v in bits(p & ~adjacency[pivot]):
            row = adjacency[v]
            bk(r | 1 << v, p & row, x & row)
            p &= ~(1 << v)
            x |= 1 << v

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
