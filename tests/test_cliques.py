"""Clique verdicts and maximal-clique enumeration against a brute-force subset filter."""

import gc
import hashlib
import random
from itertools import combinations

import pytest

from maxrigid.cliques import bits, common_neighbourhood, max_cliques
from maxrigid.continuous import _tables
from maxrigid.finite import _pair_tables


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


def star(k):
    """Vertex 0 joined to each of 1..k-1."""
    return [(1 << k) - 2] + [1] * (k - 1)


def path(k):
    """Vertex v joined to v - 1 and v + 1."""
    return [(5 << v >> 1) & ((1 << k) - 1) for v in range(k)]


SHAPES = {
    "empty": [],
    "edgeless": [0] * 6,
    "complete": [((1 << 6) - 1) ^ 1 << v for v in range(6)],
    "star": star(6),
    "path": path(7),
    "star and triangle": star(3) + [0b110000, 0b101000, 0b011000],
    "triangle on a star's leaf": [0b1110, 0b1, 0b110001, 0b1, 0b100100, 0b10100],
}


def test_against_bruteforce():
    rng = random.Random(7)
    graphs = [*SHAPES.values()]
    for _ in range(40):
        graphs.append(random_graph(rng, rng.randrange(1, 11), rng.choice([0.2, 0.5, 0.8])))
    for trial, adj in enumerate(graphs):
        n = len(adj)
        assert sorted(max_cliques(adj)) == brute_max_cliques(adj, n, (1 << n) - 1), (trial, adj)


def test_shapes_in_order():
    """The exact lists, order included, on the hand-made shapes.

    Each pivot is the first vertex of P | X with the most neighbours in P.
    The edgeless graph gives its k singletons in vertex order and the
    complete graph one clique; the star and the path give their edges in
    order.  In the star beside a triangle, the first triangle vertex, once
    done, is an X vertex joined to all of the next one's P, so it is the
    pivot there and that branch appends nothing.  In the triangle {2, 4, 5}
    on the leaf 2 of the star centred at 0, the branch of 5 ends with
    P = {2} and X = {4}, adjacent to 2: {2, 5} is not maximal.
    """
    assert max_cliques(SHAPES["empty"]) == [0]
    assert max_cliques(SHAPES["edgeless"]) == [1 << v for v in range(6)]
    assert max_cliques(SHAPES["complete"]) == [(1 << 6) - 1]
    assert max_cliques(SHAPES["star"]) == [1 | 1 << v for v in range(1, 6)]
    assert max_cliques(SHAPES["path"]) == [3 << v for v in range(6)]
    assert max_cliques(SHAPES["star and triangle"]) == [0b11, 0b101, 0b111000]
    assert max_cliques(SHAPES["triangle on a star's leaf"]) == [0b11, 0b101, 0b1001, 0b110100]


MODEL_GRAPHS = {
    # the continuous compatibility graph at n = 3 and the finite one on A_8
    "continuous-n3": (lambda: _tables(3).closed, 3432,
                      "72381161a448bfaca74174f6f0c5f5fdc436f4de047731b618093c1d1f08da6b"),
    "finite-m8": (lambda: _pair_tables(8), 1430,
                  "27bfdeb9907cbe55ee98f8c02f85e768c8a327afaa0091e75c453f2143441fa7"),
}


@pytest.mark.parametrize("name", MODEL_GRAPHS)
def test_order_on_the_model_graphs(name):
    """The whole list, order included, pinned by sha256 on both models' graphs."""
    closed, count, digest = MODEL_GRAPHS[name]
    cliques = max_cliques([row ^ 1 << v for v, row in enumerate(closed())])
    assert len(cliques) == count
    assert hashlib.sha256(",".join(map(str, cliques)).encode()).hexdigest() == digest


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
