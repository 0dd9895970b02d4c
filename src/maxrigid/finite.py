"""Interval modules over the equioriented linear quiver 1 -> 2 -> ... -> m.

Hom and Ext^1 dimensions between interval modules are field-independent,
so everything here is exact integer combinatorics.  Two routes are
provided for each dimension:

  * closed forms used by the library proper, and
  * slow independent oracles (explicit enumeration of commuting scalar
    families for Hom, the two-term projective resolution for Ext^1)
    that the test suite replays against the closed forms.

Maximal rigid sets of interval modules coincide with basic tilting
modules here; there are Catalan(m) of them, enumerated by the Catalan
recursion on the vertex that only the longest module covers.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable

from .cliques import is_clique, is_maximal_clique
from .counting import NonPositiveCountError, claim


class ResourceLimitError(ValueError):
    """Enumeration request beyond the configured size cap."""


@dataclass(frozen=True, order=True)
class FiniteInterval:
    """The vertex range [a, b] supporting an interval module."""

    a: int
    b: int

    def __post_init__(self):
        if not 1 <= self.a <= self.b:
            raise ValueError(f"bad interval bounds [{self.a},{self.b}]")

    def __str__(self) -> str:
        return f"[{self.a},{self.b}]"


@dataclass(frozen=True)
class LinearQuiver:
    """The quiver with vertices 1..m and arrows i -> i+1; labels optional."""

    m: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.m < 1:
            raise NonPositiveCountError(f"vertex count must be >= 1, got {self.m}")
        if self.labels is not None and len(self.labels) != self.m:
            raise ValueError("label count does not match vertex count")

    def check(self, interval: FiniteInterval) -> None:
        if interval.b > self.m:
            raise ValueError(f"interval {interval} out of range on A_{self.m}")


@dataclass(frozen=True)
class RigidSet:
    """A pairwise Ext-compatible set of pairwise distinct interval modules."""

    quiver: LinearQuiver
    summands: frozenset[FiniteInterval]

    def sorted_summands(self) -> tuple[FiniteInterval, ...]:
        return tuple(sorted(self.summands))

    def __str__(self) -> str:
        return "{" + ", ".join(str(s) for s in self.sorted_summands()) + "}"


def all_intervals(q: LinearQuiver) -> list[FiniteInterval]:
    return [FiniteInterval(a, b) for a in range(1, q.m + 1) for b in range(a, q.m + 1)]


def hom_dim(q: LinearQuiver, i: FiniteInterval, j: FiniteInterval) -> int:
    """dim Hom(T_i, T_j); nonzero exactly when j.a <= i.a <= j.b <= i.b."""
    q.check(i)
    q.check(j)
    return 1 if j.a <= i.a <= j.b <= i.b else 0


def hom_dim_bruteforce(q: LinearQuiver, i: FiniteInterval, j: FiniteInterval) -> int:
    """Morphism space dimension by enumerating commuting scalar families.

    A morphism assigns a scalar to every vertex supporting both modules;
    the naturality squares over the arrows then read as linear relations
    among those scalars.  The relation coefficients are all 0 or 1, so
    counting solutions with scalars restricted to {0, 1} already counts a
    basis: the solution set is a subspace whose size is 2^dim.
    """
    q.check(i)
    q.check(j)
    sup_i = range(i.a, i.b + 1)
    sup_j = set(range(j.a, j.b + 1))
    common = sorted(set(sup_i) & sup_j)
    solutions = 0
    for assignment in product((0, 1), repeat=len(common)):
        f = dict(zip(common, assignment))
        ok = True
        for v in range(1, q.m):
            if i.a <= v <= i.b and v + 1 in sup_j:
                lhs = f.get(v + 1, 0) if v + 1 <= i.b else 0
                rhs = f.get(v, 0) if v in sup_j else 0
                if lhs != rhs:
                    ok = False
                    break
        if ok:
            solutions += 1
    dim = solutions.bit_length() - 1
    claim(1 << dim == solutions, "solution set is not a subspace")
    return dim


def ext_dim(q: LinearQuiver, i: FiniteInterval, j: FiniteInterval) -> int:
    """dim Ext^1(T_i, T_j); nonzero exactly when i.a < j.a <= i.b + 1 <= j.b."""
    q.check(i)
    q.check(j)
    return 1 if i.a < j.a <= i.b + 1 <= j.b else 0


def ext_dim_resolution(q: LinearQuiver, i: FiniteInterval, j: FiniteInterval) -> int:
    """Ext^1 via the projective resolution 0 -> P_{b+1} -> P_a -> T_[a,b] -> 0.

    Projectives are P_v = T_[v,m] with P_{m+1} = 0.  Applying Hom(-, T_j)
    gives Ext^1 = hom(P_{b+1}) - hom(P_a) + hom(T_i); each term is
    computed with the brute-force Hom oracle, keeping this route fully
    independent of the closed forms.
    """
    q.check(i)
    q.check(j)

    def h(iv: FiniteInterval | None) -> int:
        return 0 if iv is None else hom_dim_bruteforce(q, iv, j)

    top = FiniteInterval(i.b + 1, q.m) if i.b + 1 <= q.m else None
    value = h(top) - h(FiniteInterval(i.a, q.m)) + hom_dim_bruteforce(q, i, j)
    claim(value >= 0, "Ext^1 dimension must be nonnegative")
    return value


def euler_form(q: LinearQuiver, i: FiniteInterval, j: FiniteInterval) -> int:
    """Bilinear Euler pairing of dimension vectors; equals hom - ext."""
    q.check(i)
    q.check(j)
    on_vertices = len(range(max(i.a, j.a), min(i.b, j.b) + 1))
    on_arrows = len(range(max(i.a, j.a - 1), min(i.b, j.b - 1) + 1))
    return on_vertices - on_arrows


@lru_cache(maxsize=None)
def _pair_tables(m: int) -> tuple[tuple[FiniteInterval, ...], dict, list[int]]:
    """Interval list, index map, and compatibility bitmask adjacency for A_m."""
    q = LinearQuiver(m)
    ivs = tuple(all_intervals(q))
    index = {iv: k for k, iv in enumerate(ivs)}
    adj = [0] * len(ivs)
    for s, i in enumerate(ivs):
        claim(ext_dim(q, i, i) == 0, "interval modules never self-extend")
        for t in range(s + 1, len(ivs)):
            j = ivs[t]
            if ext_dim(q, i, j) == 0 and ext_dim(q, j, i) == 0:
                adj[s] |= 1 << t
                adj[t] |= 1 << s
    return ivs, index, adj


def _mask_of(q: LinearQuiver, summands: Iterable[FiniteInterval]) -> int:
    _, index, _ = _pair_tables(q.m)
    mask = 0
    for s in summands:
        q.check(s)
        mask |= 1 << index[s]
    return mask


def is_rigid_set(q: LinearQuiver, summands: Iterable[FiniteInterval]) -> bool:
    """Ext^1 vanishes for every ordered pair of summands (self pairs included)."""
    _, _, adj = _pair_tables(q.m)
    return is_clique(adj, _mask_of(q, summands))


def is_tilting(q: LinearQuiver, summands: Iterable[FiniteInterval]) -> bool:
    """Rigid, basic, and of full length m (the tilting count criterion)."""
    unique = frozenset(summands)
    return len(unique) == q.m and is_rigid_set(q, unique)


def is_maximal_rigid_set(q: LinearQuiver, summands: Iterable[FiniteInterval]) -> bool:
    """Rigid and not extendable by any interval module outside the set."""
    _, _, adj = _pair_tables(q.m)
    mask = _mask_of(q, summands)
    return is_clique(adj, mask) and is_maximal_clique(adj, mask, (1 << len(adj)) - 1)


def enumerate_maximal_rigid(q: LinearQuiver, max_m: int = 15) -> list[RigidSet]:
    """All maximal rigid sets on A_m, sorted by their sorted summands.

    The maximal rigid sets are the tilting sets.  The tilting sets on a
    vertex range [a, b] are built bottom-up by length: for each gap vertex
    k in [a, b], {[a, b]} together with a tilting set on [a, k-1] and one
    on [k+1, b], the range [a, a-1] holding only the empty set.

      * Distinct: the parts contain [a, k-1] and [k+1, b], so k is the one
        vertex that no member other than [a, b] covers.  The set
        determines k, and then its parts as the members inside [a, k-1]
        and inside [k+1, b].
      * Tilting: two members of one part are compatible by induction.  A
        member of the left part and one of the right part are separated
        by the gap k, and [a, b] contains every member; separated and
        nested pairs have no Ext^1 either way.  So the set is rigid with
        (k-a) + (b-k) + 1 = b-a+1 members, m of them on [1, m].
      * Complete: the counts satisfy c(b-a+1) = sum over k of
        c(k-a) c(b-k), the Catalan recurrence, and A_m has Catalan(m)
        tilting sets.

    A set is kept as the ascending tuple of its indices in
    ``all_intervals``, which lists [a, b] at start[a] + (b - a); index
    order is the dataclass order there, so sorting the tuples sorts the
    sets.  The cap guards against accidental huge runs (Catalan(15) is
    already ~9.7 million sets).
    """
    if q.m > max_m:
        raise ResourceLimitError(f"m={q.m} exceeds cap {max_m}; raise max_m to proceed")
    m = q.m
    ivs = all_intervals(q)
    start = [0] * (m + 2)
    for a in range(1, m + 1):
        start[a + 1] = start[a] + m - a + 1
    tilting = {(a, a - 1): [()] for a in range(1, m + 2)}
    for length in range(1, m + 1):
        for a in range(1, m - length + 2):
            b = a + length - 1
            top = start[a] + length - 1
            keys = []
            for k in range(a, b + 1):
                rights = tilting[k + 1, b]
                for left in tilting[a, k - 1]:
                    # the members starting at a come before [a, b], the rest after
                    c = bisect_left(left, start[a + 1])
                    head = left[:c] + (top,) + left[c:]
                    keys += [head + right for right in rights]
            tilting[a, b] = keys
    keys = tilting.pop((1, m))
    tilting.clear()  # the shorter ranges are freed before the sets are built
    keys.sort()
    # union copies the hashes the singletons store; frozenset(...) of the
    # intervals would call the dataclass __hash__ m times per set
    single = [frozenset((iv,)) for iv in ivs]
    empty = frozenset()
    for i, key in enumerate(keys):
        keys[i] = RigidSet(q, empty.union(*map(single.__getitem__, key)))
    return keys
