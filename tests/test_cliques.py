"""Clique verdicts and maximal-clique enumeration against a brute-force subset filter."""

import gc
import random
from itertools import combinations

from maxrigid.cliques import bits, common_neighbourhood, max_cliques


def brute_max_cliques(adj, n, subset):
    verts = [v for v in range(n) if subset >> v & 1]
    cliques = []
    for r in range(len(verts) + 1):
        for combo in combinations(verts, r):
            if all(adj[a] >> b & 1 for a, b in combinations(combo, 2)):
                mask = sum(1 << v for v in combo)
                cliques.append(mask)
    maximal = []
    for c in cliques:
        if not any(d != c and d & c == c for d in cliques):
            maximal.append(c)
    return sorted(maximal)


def random_graph(rng, n, p):
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


def test_against_bruteforce():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randrange(1, 11)
        adj = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        got = sorted(max_cliques(adj))
        assert got == brute_max_cliques(adj, n, (1 << n) - 1), (trial, adj)


def test_bits_roundtrip():
    assert bits(0) == []
    assert bits(0b10110) == [1, 2, 4]


def brute_is_clique(adj, mask):
    return all(adj[a] >> b & 1 for a, b in combinations(bits(mask), 2))


def test_predicates_against_bruteforce():
    """The verdicts read off ``common_neighbourhood`` on seeded random graphs and subsets.

    With ``common`` the AND of the closed rows over ``mask``, the set is a
    clique when ``common & mask == mask`` and a clique is maximal within
    ``within`` when ``common & within == mask & within``.  A clique inside
    ``within`` is maximal there exactly when it is among the brute-force
    maximal cliques of ``within``; cliques that stick out of ``within`` are
    maximal when no vertex of ``within`` joins them.
    """
    rng = random.Random(11)
    seen = set()
    for trial in range(300):
        n = rng.randrange(1, 10)
        adj = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        closed = [row | 1 << v for v, row in enumerate(adj)]
        within = rng.randrange(1 << n)
        maximal = brute_max_cliques(adj, n, within)
        cliques = [c for c in range(1 << n) if brute_is_clique(adj, c)]
        masks = [rng.randrange(1 << n), rng.choice(cliques), rng.choice(cliques) & within]
        masks += [rng.choice(maximal)]
        for mask in masks:
            common = common_neighbourhood(closed, bits(mask))
            clique = common & mask == mask
            assert clique == brute_is_clique(adj, mask), (trial, adj, mask)
            if not clique:
                continue
            got = common & within == mask & within
            joins = any(brute_is_clique(adj, mask | 1 << v) for v in bits(within & ~mask))
            assert got == (not joins), (trial, adj, mask, within)
            if mask & ~within == 0:
                assert got == (mask in maximal), (trial, adj, mask, within)
            seen.add((got, mask & ~within == 0))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_max_cliques_leaves_no_cycle_behind():
    """The recursion's closure refers to itself; the result must not wait for a collection."""
    adj = random_graph(random.Random(5), 12, 0.5)
    gc.collect()
    gc.disable()
    try:
        max_cliques(adj)
        assert gc.collect() == 0
    finally:
        gc.enable()
