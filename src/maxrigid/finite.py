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

import functools
import gc
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from operator import itemgetter, lt
from typing import Iterable

from .cliques import bits, common_neighbourhood
from .counting import _check_count, claim
from .intervals import _check_ints


MAX_M = 15  # Catalan(15) is already ~9.7 million sets


class ResourceLimitError(ValueError):
    """A request over a fixed size cap (``MAX_N``, ``MAX_M``), or a count too long to print."""


def _check_cap(name: str, value: int, cap: int) -> None:
    """Raise ResourceLimitError if ``value`` exceeds ``cap``; ``name`` is n or m."""
    if value > cap:
        raise ResourceLimitError(f"{name}={value} exceeds cap {cap}")


@contextmanager
def _collector_paused():
    """Keep the cyclic garbage collector off inside the block.

    For bulk builds of acyclic objects: a collection there only rescans
    live objects and frees nothing.  Afterwards, even on an exception, the
    collector is switched back on only if it was on before.

    The two bulk builds, ``enumerate_maximal_rigid`` and
    ``continuous.enumerate_maximal_rigid_reps``, also skip the dataclass
    ``__init__`` of their results: each object is ``object.__new__`` of its
    class, and each field is written by its slot's member descriptor
    ``__set__``, so no Python frame runs and the frozen ``__setattr__`` is
    not reached.  The fields they write are already valid, and the object
    equals, hashes, prints and pickles as the constructor's would.  This
    also skips ``__post_init__``, so ``RigidSet``'s check costs the bulk
    build nothing, and ``BreakpointRep`` must have none.  Every other
    caller uses the constructors.
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


@dataclass(frozen=True, order=True, slots=True)
class FiniteInterval:
    """The vertex range [a, b] supporting an interval module."""

    a: int
    b: int

    def __post_init__(self):
        _check_ints(self.a, self.b)
        if not 1 <= self.a <= self.b:
            raise ValueError(f"bad interval bounds [{self.a},{self.b}]")

    def __str__(self) -> str:
        return f"[{self.a},{self.b}]"


@dataclass(frozen=True, slots=True)
class LinearQuiver:
    """The quiver with vertices 1..m and arrows i -> i+1."""

    m: int

    def __post_init__(self):
        _check_count(self.m, "vertex")

    def check(self, interval: FiniteInterval) -> None:
        if interval.b > self.m:
            raise ValueError(f"interval {interval} out of range on A_{self.m}")


@dataclass(frozen=True, slots=True)
class RigidSet:
    """A pairwise Ext-compatible set of pairwise distinct interval modules.

    ``members`` is a tuple of ``FiniteInterval``s (else TypeError) in
    ascending (dataclass) order, each once (else ValueError), so two sets
    are equal exactly when their members are, and a set hashes.  No
    quiver is stored: a tilting set on A_m contains [1, m], which fixes m.
    The class is slotted, as are the library's other value classes: an
    instance has no ``__dict__``.
    """

    members: tuple[FiniteInterval, ...]

    def __post_init__(self):
        if type(self.members) is not tuple or not all(type(iv) is FiniteInterval for iv in self.members):
            raise TypeError(f"not a tuple of FiniteIntervals: {self.members!r}")
        if not all(map(lt, self.members, self.members[1:])):
            raise ValueError(f"rigid set members not strictly ascending: {self}")

    @property
    def summands(self) -> frozenset[FiniteInterval]:
        """The members as a frozenset, as ``bridge.project`` returns them; built on each access."""
        return frozenset(self.members)

    def sorted_summands(self) -> tuple[FiniteInterval, ...]:
        return self.members

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self.members)) + "}"


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


def _rank(m: int, a: int, b: int) -> int:
    """The index of [a, b] in ``all_intervals`` on A_m: the m - a' + 1 intervals
    starting at each a' < a come first, then [a, a], ..., [a, b]."""
    return (a - 1) * (2 * m + 2 - a) // 2 + b - a


def _shift_table(m: int, d: int) -> bytes:
    """The ``bytes.translate`` table of the shift by d on A_m: byte
    ``_rank(m, a, b)`` becomes ``_rank(m, a + d, b + d)`` for b + d <= m; the
    other bytes, which no shifted key holds, become 0.  Each rank fits in a
    byte while m(m+1)/2 - 1 <= 255, that is for m <= 22, so for every m up
    to ``MAX_M``."""
    ranks = [_rank(m, a + d, b + d) if b + d <= m else 0 for a in range(1, m + 1) for b in range(a, m + 1)]
    return bytes(ranks).ljust(256, b"\0")


@functools.cache
def _pair_tables(m: int) -> list[int]:
    """The closed compatibility rows of A_m, one per interval in ``_rank`` order.

    Bit t of row s is set when the intervals of ranks s and t have no
    Ext^1 either way, bit s included.  The partners [c, d] of [a, b] have
    a < c <= b+1 <= d or c < a <= d+1 <= b (``ext_dim``): for each start
    c != a one run of ranks, so a row is the complement of its runs.  These
    rows decide ``is_rigid_set``, ``is_maximal_rigid_set``, ``is_tilting``
    and ``continuous._Tables``.
    """
    full = (1 << m * (m + 1) // 2) - 1
    closed = []
    for a in range(1, m + 1):
        for b in range(a, m + 1):
            runs = 0
            for c in range(1, a):
                runs |= ((1 << b - a + 1) - 1) << _rank(m, c, a - 1)
            for c in range(a + 1, min(b + 1, m) + 1):
                runs |= ((1 << m - b) - 1) << _rank(m, c, b + 1)
            closed.append(full ^ runs)
    claim(all(row >> s & 1 for s, row in enumerate(closed)), "interval modules never self-extend")
    return closed


def _mask_and_common(q: LinearQuiver, summands: Iterable[FiniteInterval]) -> tuple[int, int]:
    mask = 0
    for s in summands:
        q.check(s)
        mask |= 1 << _rank(q.m, s.a, s.b)
    return mask, common_neighbourhood(_pair_tables(q.m), bits(mask))


def is_rigid_set(q: LinearQuiver, summands: Iterable[FiniteInterval]) -> bool:
    """Ext^1 vanishes for every ordered pair of summands (self pairs included)."""
    mask, common = _mask_and_common(q, summands)
    return common & mask == mask


def is_tilting(q: LinearQuiver, summands: Iterable[FiniteInterval]) -> bool:
    """Rigid, basic, and of full length m (the tilting count criterion)."""
    mask, common = _mask_and_common(q, summands)
    return mask.bit_count() == q.m and common & mask == mask


def is_maximal_rigid_set(q: LinearQuiver, summands: Iterable[FiniteInterval]) -> bool:
    """Rigid and not extendable: the summands' common closed neighbourhood is the set."""
    mask, common = _mask_and_common(q, summands)
    return common == mask


def enumerate_maximal_rigid(q: LinearQuiver) -> list[RigidSet]:
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

    Only the ranges [1, L] are built.  The tilting sets on [a, b] are those
    on [1, b-a+1] shifted by a-1, because shifting both modules keeps their
    Ext^1 (``ext_dim`` compares ends only).  So the right part on [k+1, L]
    is a tilting set on [1, L-k] shifted by k.

    A set is kept as the ``bytes`` of its indices in ``all_intervals``,
    ascending, which lists [a, b] at ``_rank``; index order is the
    dataclass order there, so sorting the keys sorts the sets, and each
    set's members are its key's intervals in that order.  The shift by d
    maps the rank of [x, y] to the rank of [x+d, y+d] and keeps the order,
    so one ``_shift_table`` per d shifts a whole key by ``bytes.translate``.
    m is at most ``MAX_M`` (a guard against huge runs), so the largest
    rank, m(m+1)/2 - 1 <= 119, fits in one byte.  ``bytes`` are not
    tracked by the garbage collector and sort by ``memcmp``.

    Each list of [1, L] keys is kept sorted, and for one gap k its keys
    come out ascending.  A key is head + right, where head inserts the
    byte of [1, L] into the left key after its members [1, y]: those rank
    below [1, L] and every other member above it.  So two heads compare as
    their left keys do, all keys of one k have one length, and the pairs
    (left, right) are taken in sorted order.  ``list.sort`` then merges L
    ascending runs instead of sorting from scratch.  The sets themselves
    are built in place of their keys, as ``_collector_paused`` says: with
    the collector paused and without ``RigidSet.__init__``.
    """
    m = q.m
    _check_cap("m", m, MAX_M)
    ivs = all_intervals(q)
    if m == 1:  # itemgetter of one index returns that item, not a 1-tuple
        return [RigidSet((ivs[0],))]
    shifts = [_shift_table(m, d) for d in range(m + 1)]
    tilting = [[b""]]  # tilting[L]: the sorted keys of [1, L]
    for length in range(1, m + 1):
        top = bytes((length - 1,))  # the rank of [1, length]
        keys = []
        for k in range(1, length + 1):
            rights = [right.translate(shifts[k]) for right in tilting[length - k]]
            for left in tilting[k - 1]:
                # the members [1, y] (ranks y - 1 < m) come before [1, length], the rest after
                c = bisect_left(left, m)
                head = left[:c] + top + left[c:]
                keys += [head + right for right in rights]
        keys.sort()  # merges the ascending run of each k
        tilting.append(keys)
    keys = tilting.pop()
    tilting.clear()  # the shorter ranges are freed before the sets are built
    new, set_members = object.__new__, RigidSet.members.__set__
    with _collector_paused():
        for i, key in enumerate(keys):
            keys[i] = s = new(RigidSet)
            set_members(s, itemgetter(*key)(ivs))
    return keys
