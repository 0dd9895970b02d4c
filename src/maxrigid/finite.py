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
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, product, repeat, starmap
from operator import add, itemgetter, lt
from typing import Iterable, Iterator

from .cliques import bits, common_neighbourhood
from .counting import _check_count, claim
from .intervals import _check_ints


MAX_M = 15  # Catalan(15) is already ~9.7 million sets
_CHUNK = 1024  # sorted keys that ``enumerate_maximal_rigid`` turns into sets per bulk pass
_END = b"\xff"  # the mark that ``_gap_keys`` puts after the members starting at a range's first vertex


class ResourceLimitError(ValueError):
    """A request over a fixed size cap (``MAX_N``, ``MAX_M``), or a count too long to print."""


def _check_cap(name: str, value: int, cap: int) -> None:
    """Raise ResourceLimitError if ``value`` exceeds ``cap``; ``name`` is n or m."""
    if value > cap:
        raise ResourceLimitError(f"{name}={value} exceeds cap {cap}")


@contextmanager
def _collector_paused():
    """Keep the cyclic collector off inside the block, then hand what it built to the oldest generation.

    For bulk builds of acyclic objects (``_build``): a collection there only
    rescans live objects and frees nothing, and so would the young
    collection that the first allocation after the block used to start.
    The rule, when the collector is on and nothing is frozen: on entry,
    one ``gc.collect(1)`` gives the caller's young objects the scan they
    would get anyway and frees their cycles; on exit, even on an
    exception, ``gc.freeze()`` then ``gc.unfreeze()`` (two list splices)
    moves every tracked object, the new ones included, into the oldest
    generation and zeroes the young count, so no young collection scans
    them.  They are freed by reference counts, and only a full collection
    reads them again.  If the caller switched the collector off, or froze
    objects of their own (which an unfreeze would release), no collection
    and no handoff runs.  Afterwards the collector is on exactly if it was
    on before.
    """
    was_on = gc.isenabled()
    handoff = was_on and not gc.get_freeze_count()
    gc.disable()
    if handoff:
        gc.collect(1)
    try:
        yield
    finally:
        if handoff:
            gc.freeze()
            gc.unfreeze()
        if was_on:
            gc.enable()


def _build(cls: type, count: int, **columns: Iterable) -> list:
    """``count`` objects of the slotted dataclass ``cls``, built without its ``__init__``.

    Each object is ``object.__new__`` of ``cls``, and each slot named in
    ``columns`` is written by its member descriptor's ``__set__``, the i-th
    object taking the i-th value of its column.  Both are C-level passes
    (``map`` into a zero-length ``deque``, one per column), so no Python
    frame runs per object and the frozen ``__setattr__`` is not reached.
    The callers name every slot and pass values that are already valid, so
    an object equals, hashes, prints and pickles as the constructor's
    would.  This also skips ``__post_init__``: ``RigidSet``'s check costs
    the bulk builds nothing, and ``BreakpointRep`` must have none.  The
    objects come first in each ``map``, so a column longer than ``count``
    stops with them and its surplus is never read.

    The callers are ``enumerate_maximal_rigid`` and
    ``continuous.enumerate_maximal_rigid_reps``, inside
    ``_collector_paused``, which hands their results to the oldest
    generation, and ``bridge.fiber_reps``, with the collector left as it
    is, as it builds only 2^n reps.  Every other caller uses the
    constructors.
    """
    objs = list(map(object.__new__, repeat(cls, count)))
    for name, column in columns.items():
        deque(map(getattr(cls, name).__set__, objs, column), 0)
    return objs


def _rows(flat: bytes, table: list, width: int) -> Iterator[tuple]:
    """``table``'s entries at the bytes of ``flat``, in order, cut into ``width``-tuples.

    One ``itemgetter`` call looks every byte up in a C loop.  The extra
    index 0 gives the getter at least two indexes, so it returns a tuple
    even for one byte, and no caller needs a branch on its width.  ``zip``
    drops the one surplus entry when ``width`` >= 2; when ``width`` = 1 it
    is a last 1-tuple, which ``_build`` never reads.  The getter's index
    tuple, ``len(flat)`` + 1 pointers, lives for the call; its result, as
    many, until the rows are read.
    """
    return zip(*[iter(itemgetter(*flat, 0)(table))] * width)


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


def _shift_tables(code: dict[tuple[int, int], int], period: int, count: int) -> list[bytes]:
    """The ``bytes.translate`` tables that send ``code[a, b]`` to ``code[a + d, b + d]``,
    d = t * period for t < count.  ``code`` lists intervals in byte order; a byte whose
    shift is unlisted goes to 0, then anywhere, but no shifted key holds one."""
    step = bytes(code.get((a + period, b + period), 0) for a, b in code).ljust(256, b"\0")
    return list(accumulate(range(count - 1), lambda table, _: table.translate(step), initial=bytes(range(256))))


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


def _gap_keys(m: int, period: int, code: dict[tuple[int, int], int]) -> list[bytes]:
    """The tilting sets on [1, m], as byte keys.

    The sets on a vertex range [a, b] are built bottom-up by length, the
    range [a, a-1] holding only the empty set.  They are [a, b] together
    with a set on [a, k-1] and one on [k+1, b], for each gap vertex k in
    [a, b]:

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

    So each tilting set comes from one tree of ranges and gaps.  A range
    that starts past ``period`` holds the sets of the one t * period to
    its left, shifted, as shifting both modules keeps their Ext^1
    (``ext_dim`` compares ends only) and ``code`` keeps its order under the
    shift; one ``_shift_tables`` table per t moves a whole key by
    ``bytes.translate``.

    A key is the ascending bytes of its members' ``code``s.  The codes
    are numbered in byte order below 255, and they order the intervals by
    start, in a way a shift keeps.  So a left part's bytes lie below a
    right part's.  ``bytes`` are not tracked by the garbage collector and
    sort by ``memcmp``.

    Every range but [1, m] holds templates: a key with the mark ``_END``,
    byte 255, right after its run, the members that start at the range's
    first vertex a.  So a template is run + mark + rest, each run byte
    below each rest byte and the mark above both, and two templates of a
    range compare as their keys do: where the runs differ first, by the
    same bytes, and where one run ends first, by a run byte against a rest
    byte in the keys and against the mark in the templates.

    The top c = ``code[a, b]`` joins each left template, a set on
    [a, k-1], at the end of its run by one ``bytes.replace`` of the mark.
    That is c's place in the run: the run's members [a, j] have j <= b-1,
    and ``code`` puts [a, j] below [a, b] whenever j < b-1.  Only the
    left's top d = ``code[a, b-1]`` at k = b may lie above c (the
    segment-quiver codes put [a, 2h] above [a, 2h+1]); then every other
    run byte is below c < d, so d ends the run and d + mark is replaced
    by c + d + mark.  For [1, m] the new bytes leave the mark out, so its
    keys are plain.  Each right part is its range's templates with the
    mark deleted and then shifted, one ``bytes.translate`` each
    (``shifts[0]`` is the identity).  A gap's keys are head + right, by
    ``starmap`` of ``add`` over ``product``: each step per key is one C
    call.  The heads and right parts are lists: from a ``map``,
    ``product`` builds its tuples by resizing ones of a guessed length,
    which moves tuples between the free lists of their sizes, and those
    lists then grew with every call and spread the heap.

    Each range's list but [1, m]'s is sorted, and for one gap k its keys
    come out ascending: the heads keep the order of the left templates,
    as templates compare as keys and inserting one byte that neither
    holds into two ascending keys of one length keeps their order; every
    key of a range has one length, and ``product`` takes the pairs (head,
    right) left-major.  So each gap is one ascending run, and each
    ``list.sort`` merges one run per gap.  The [1, m] list is returned as
    those runs, for the caller to sort, and the shorter ranges are freed
    on return.
    """
    shifts = _shift_tables(code, period, m // period + 1)
    ranges = {(a, a - 1): [_END] for a in range(1, period + 1)}  # each range's templates; the empty ranges first

    def part(a: int, b: int) -> list[bytes]:  # plain keys; a range that starts past ``period`` is a shifted copy
        t = (a - 1) // period
        return [*map(bytes.translate, ranges[a - t * period, b - t * period], repeat(shifts[t]), repeat(_END))]

    for b in range(1, m + 1):
        for a in range(min(b, period), 0, -1):  # [k+1, b] with k+1 <= period is built before [a, b]
            keys = ranges[a, b] = []
            c = code[a, b]
            mark = _END if b < m or a > 1 else b""
            for k in range(a, b + 1):
                d = code[a, k - 1] if k > a else -1  # the left's top
                old, new = (bytes((d,)) + _END, bytes((c, d)) + mark) if d > c else (_END, bytes((c,)) + mark)
                heads = [*map(bytes.replace, ranges[a, k - 1], repeat(old), repeat(new))]
                keys += starmap(add, product(heads, part(k + 1, b)))
            if mark:
                keys.sort()  # merges the ascending run of each k; [1, m] is the caller's
    return ranges[1, m]


def enumerate_maximal_rigid(q: LinearQuiver) -> list[RigidSet]:
    """All maximal rigid sets on A_m, sorted by their sorted summands.

    The maximal rigid sets are the tilting sets: ``_gap_keys`` with
    period 1 and ``_rank`` codes, whose order is the
    ``all_intervals`` order, by start, and the dataclass order.  So
    sorting the keys sorts the sets, and each set's members are its key's
    intervals in order.  m is at most ``MAX_M`` (a guard against huge
    runs), so the largest rank, m(m+1)/2 - 1 <= 119, fits in one byte
    below ``_gap_keys``' mark 255, and ``_rank`` puts [a, j] below [a, b]
    for every j < b.
    The sets are built in place of their keys by ``_build``, with the
    collector paused.  Each chunk of ``_CHUNK`` sorted keys is joined into
    one ``bytes`` of ranks, and ``_rows`` looks every rank up in ``ivs`` in
    one C loop and cuts the members into m-tuples, one per key in order.
    The chunk's sets replace its keys.  One pause spans every chunk, so no
    collection runs between them, and it hands the sets and their member
    tuples to the oldest generation: no young collection scans them after
    the call, and the one collection the call runs is the pause's entry
    ``gc.collect(1)``, over the caller's young objects.
    The chunks bound what is alive beside the sets to one chunk's joined
    bytes, the getter's index tuple and its result, each tuple of
    ``_CHUNK`` * m + 1 pointers.  Joining all keys of A_10 at once would
    hold 168 KB of bytes alone, and ``test_peak_memory_is_the_result``
    allows the peak 5% over the result.
    """
    m = q.m
    _check_cap("m", m, MAX_M)
    ivs = all_intervals(q)
    code = {(iv.a, iv.b): rank for rank, iv in enumerate(ivs)}
    keys = _gap_keys(m, 1, code)
    keys.sort()
    with _collector_paused():
        for start in range(0, len(keys), _CHUNK):
            flat = b"".join(keys[start:start + _CHUNK])
            keys[start:start + _CHUNK] = _build(RigidSet, len(flat) // m, members=_rows(flat, ivs, m))
    return keys
