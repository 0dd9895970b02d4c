"""Linear-quiver interval modules: oracles, rigidity, tilting, enumeration."""

import gc
import random
import tracemalloc
from collections import deque
from operator import itemgetter

import pytest

from maxrigid import (
    FiniteInterval,
    LinearQuiver,
    ResourceLimitError,
    RigidSet,
    all_intervals,
    enumerate_maximal_rigid,
    euler_form,
    ext_dim,
    ext_dim_resolution,
    hom_dim,
    hom_dim_bruteforce,
    is_maximal_rigid_set,
    is_rigid_set,
    is_tilting,
)
from maxrigid import bridge, finite, verify
from maxrigid.continuous import MAX_N
from maxrigid.counting import ClaimError
from maxrigid.finite import MAX_M, _pair_tables, _rank, _shift_tables

from oracles import (
    collections_during,
    dead_cycle,
    finite_max_cliques,
    gap_keys_by_insertion,
    image_vertices,
    in_oldest_generation,
    pair_tables,
    reflect,
)


def f(a, b):
    return FiniteInterval(a, b)


def catalan_by_recurrence(limit):
    """c_0 = 1, c_{m+1} = sum c_i c_{m-i}; the independent counting oracle."""
    cs = [1]
    for m in range(limit):
        cs.append(sum(cs[i] * cs[m - i] for i in range(m + 1)))
    return cs


class TestHom:
    def test_known_values_m2(self):
        q = LinearQuiver(2)
        # maps run along the arrows: the shorter module maps into the one
        # reaching further left, never the other way
        assert hom_dim(q, f(2, 2), f(1, 2)) == 1
        assert hom_dim(q, f(1, 2), f(2, 2)) == 0
        assert hom_dim(q, f(2, 2), f(1, 1)) == 0

    def test_endomorphisms_are_one_dimensional(self):
        q = LinearQuiver(3)
        assert hom_dim(q, f(1, 3), f(1, 3)) == 1

    def test_bruteforce_matches_closed_form_everywhere(self):
        for m in range(1, 7):
            q = LinearQuiver(m)
            for i in all_intervals(q):
                for j in all_intervals(q):
                    assert hom_dim(q, i, j) == hom_dim_bruteforce(q, i, j), (m, i, j)


class TestExt:
    def test_adjacent_simples(self):
        q = LinearQuiver(2)
        assert ext_dim(q, f(1, 1), f(2, 2)) == 1
        assert ext_dim_resolution(q, f(1, 1), f(2, 2)) == 1

    def test_projectives_have_no_ext(self):
        q = LinearQuiver(3)
        assert ext_dim(q, f(2, 3), f(1, 1)) == 0

    def test_simple_to_longer_module(self):
        q = LinearQuiver(3)
        assert ext_dim(q, f(1, 1), f(2, 3)) == 1

    def test_resolution_matches_closed_form_everywhere(self):
        for m in range(1, 7):
            q = LinearQuiver(m)
            for i in all_intervals(q):
                for j in all_intervals(q):
                    assert ext_dim(q, i, j) == ext_dim_resolution(q, i, j), (m, i, j)

    def test_euler_pairing(self):
        for m in range(1, 7):
            q = LinearQuiver(m)
            for i in all_intervals(q):
                for j in all_intervals(q):
                    assert hom_dim(q, i, j) - ext_dim(q, i, j) == euler_form(q, i, j)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ext_dim(LinearQuiver(2), f(1, 3), f(1, 1))


class TestRigidity:
    def test_examples(self):
        q = LinearQuiver(2)
        assert is_rigid_set(q, {f(1, 2), f(2, 2)})
        assert not is_rigid_set(q, {f(1, 1), f(2, 2)})
        assert is_rigid_set(LinearQuiver(1), {f(1, 1)})

    def test_tilting_examples(self):
        q = LinearQuiver(2)
        assert is_tilting(q, {f(1, 2), f(2, 2)})
        assert not is_tilting(q, {f(1, 2)})
        q3 = LinearQuiver(3)
        assert is_tilting(q3, {f(1, 3), f(2, 3), f(3, 3)})

    def test_tilting_counts_distinct_summands(self):
        """A repeated summand counts once, as in a frozenset, and an iterator is read once."""
        q = LinearQuiver(2)
        assert is_tilting(q, [f(1, 2), f(2, 2), f(2, 2)])
        assert is_tilting(q, iter([f(1, 2), f(2, 2)]))
        assert not is_tilting(q, [f(1, 2), f(1, 2)])

    def test_ranks_and_rows_equal_the_pair_loop_oracle(self):
        """``_rank`` is the ``all_intervals`` index, and the closed rows are the
        oracle's rows with the diagonal added, bit for bit, for every m <= 33:
        every ``_pair_tables(4n+1)`` that ``_Tables(n)`` reads for n <= 8."""
        for m in range(1, 34):
            ivs, index, adj = pair_tables(m)
            assert [_rank(m, iv.a, iv.b) for iv in ivs] == [index[iv] for iv in ivs], m
            assert _pair_tables(m) == [row | 1 << v for v, row in enumerate(adj)], m

    def test_reflection_is_an_automorphism_of_the_rows(self):
        """Bit t of row s is bit r(t) of row r(s), r the line reversal, for every m <= 33."""
        for m in range(1, 34):
            ivs = all_intervals(LinearQuiver(m))
            index = {iv: k for k, iv in enumerate(ivs)}
            mirror = [index[reflect(m, iv)] for iv in ivs]
            permute = itemgetter(*mirror)
            # digit t of a reversed binary string is bit t
            digits = [format(row, f"0{len(ivs)}b")[::-1] for row in _pair_tables(m)]
            for s, row in enumerate(digits):
                assert "".join(permute(digits[mirror[s]])) == row, (m, ivs[s])

    def test_maximal_examples(self):
        q = LinearQuiver(2)
        assert is_maximal_rigid_set(q, {f(1, 2), f(1, 1)})
        assert not is_maximal_rigid_set(q, {f(1, 2)})
        q3 = LinearQuiver(3)
        assert is_maximal_rigid_set(q3, {f(1, 3), f(1, 1), f(1, 2)})

    def test_tilting_iff_maximal_rigid_exhaustive(self):
        """``verify``'s check for m <= 4, then every subset at m = 5."""
        label, ok = verify.tilting_iff_maximal_rigid()
        assert ok, label
        q = LinearQuiver(5)
        ivs = all_intervals(q)
        assert all(verify.tilting_agrees(q, ivs, bits) for bits in range(1 << len(ivs)))

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_tilting_iff_maximal_rigid_random(self, m):
        rng = random.Random(m)
        q = LinearQuiver(m)
        ivs = all_intervals(q)
        for _ in range(2000):
            subset = frozenset(iv for iv in ivs if rng.random() < 0.3)
            assert is_tilting(q, subset) == is_maximal_rigid_set(q, subset)


class TestEnumeration:
    def test_single_vertex(self):
        sets = enumerate_maximal_rigid(LinearQuiver(1))
        assert [s.sorted_summands() for s in sets] == [(f(1, 1),)]

    def test_two_vertices(self):
        sets = enumerate_maximal_rigid(LinearQuiver(2))
        assert [s.sorted_summands() for s in sets] == [
            (f(1, 1), f(1, 2)),
            (f(1, 2), f(2, 2)),
        ]

    def test_counts_follow_the_catalan_recurrence(self):
        expected = catalan_by_recurrence(9)
        for m in range(1, 10):
            sets = enumerate_maximal_rigid(LinearQuiver(m))
            assert len(sets) == expected[m], m

    def test_every_set_is_full_and_contains_the_long_module(self):
        for m in range(1, 9):
            q = LinearQuiver(m)
            long = f(1, m)
            for s in enumerate_maximal_rigid(q):
                assert len(s.summands) == m
                assert long in s.summands
                assert is_tilting(q, s.summands)
                assert is_maximal_rigid_set(q, s.summands)

    def test_members_are_ascending_and_match_summands_and_str(self):
        for m in range(1, 10):
            for s in enumerate_maximal_rigid(LinearQuiver(m)):
                assert all(x < y for x, y in zip(s.members, s.members[1:])), s
                assert s.summands == frozenset(s.members)
                assert str(s) == "{" + ", ".join(map(str, sorted(frozenset(s.members)))) + "}"

    def test_enumeration_hashes_no_interval(self, monkeypatch):
        """The sets are built from keys of interval indices, not from sets of intervals."""

        class Hashed(Exception):
            pass

        def refuse(*args):
            raise Hashed(args)

        monkeypatch.setattr(FiniteInterval, "__hash__", refuse)
        monkeypatch.setattr(bridge, "_single", refuse)
        with pytest.raises(Hashed):
            hash(f(1, 1))
        assert len(enumerate_maximal_rigid(LinearQuiver(8))) == catalan_by_recurrence(8)[8]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_equals_the_bron_kerbosch_oracle(self, m):
        _, index, _ = pair_tables(m)
        got = [
            tuple(index[iv] for iv in s.sorted_summands())
            for s in enumerate_maximal_rigid(LinearQuiver(m))
        ]
        assert got == finite_max_cliques(m)

    def test_output_is_deterministic_and_sorted(self):
        a = enumerate_maximal_rigid(LinearQuiver(5))
        b = enumerate_maximal_rigid(LinearQuiver(5))
        assert [x.sorted_summands() for x in a] == [x.sorted_summands() for x in b]
        keys = [x.sorted_summands() for x in a]
        assert keys == sorted(keys)

    def test_cap(self, monkeypatch):
        """m = MAX_M + 1 is refused before its intervals are listed."""

        def refuse(q):
            raise AssertionError("m=16 must be refused before its intervals are listed")

        monkeypatch.setattr(finite, "all_intervals", refuse)
        with pytest.raises(ResourceLimitError) as err:
            enumerate_maximal_rigid(LinearQuiver(16))
        assert str(err.value) == "m=16 exceeds cap 15"

    def test_enumeration_is_closed_under_reflection(self):
        for m in range(1, 11):
            mirror = {iv: reflect(m, iv) for iv in all_intervals(LinearQuiver(m))}
            sets = {s.members for s in enumerate_maximal_rigid(LinearQuiver(m))}
            assert {tuple(sorted(map(mirror.__getitem__, members))) for members in sets} == sets, m

    def test_shift_tables_move_each_rank_by_the_shift(self):
        """Byte ``code[a, b]`` of the shift by t periods is ``code[a + d, b + d]``, d = t * period,
        in one byte, and the shifted bytes keep their order.  For ``_rank`` at period 1: every
        m whose ranks fit in a byte (A_22 has 253 intervals, A_23 has 276) and every shift d
        the recursion uses, each code below 255, the mark ``_gap_keys`` puts in its templates.
        For the summand vertices of A_{2n+1} (``image_vertices``, the
        codes ``enumerate_maximal_rigid_reps`` gives ``_gap_keys``) at period 2: every n <=
        ``MAX_N`` and every shift by 2t, each image that stays in [1, 2n+1] having a code of
        its own."""
        cases = [({(a, b): _rank(m, a, b) for a in range(1, m + 1) for b in range(a, m + 1)}, m, 1)
                 for m in range(1, 23)]
        cases += [(image_vertices(n), 2 * n + 1, 2) for n in range(1, MAX_N + 1)]
        for code, m, period in cases:
            assert list(code.values()) == list(range(len(code))) and len(code) <= 255, (m, period)
            tables = _shift_tables(code, period, m // period + 1)
            assert [len(table) for table in tables] == [256] * (m // period + 1), (m, period)
            for t, table in enumerate(tables):
                d = t * period
                kept = [(a, b) for a, b in code if b + d <= m]
                moved = [table[code[a, b]] for a, b in kept]
                assert moved == [code[a + d, b + d] for a, b in kept], (m, period, d)
                assert moved == sorted(moved), (m, period, d)

    @staticmethod
    def code_sets():
        """``_rank`` codes at period 1 for m = 1..11, and the summand vertices of A_{2n+1}
        at period 2 for n = 1..``MAX_N``: the codes both enumerators give ``_gap_keys``."""
        cases = [(m, 1, {(a, b): _rank(m, a, b) for a in range(1, m + 1) for b in range(a, m + 1)})
                 for m in range(1, 12)]
        return cases + [(2 * n + 1, 2, image_vertices(n)) for n in range(1, MAX_N + 1)]

    def test_gap_keys_hold_one_ascending_run_per_gap(self):
        """The unsorted [1, m] list of ``_gap_keys`` is at most one ascending run per gap
        vertex, which makes the caller's sort a merge, for both code sets."""
        for m, period, code in self.code_sets():
            keys = finite._gap_keys(m, period, code)
            runs = 1 + sum(later < earlier for earlier, later in zip(keys, keys[1:]))
            assert runs <= m, (m, period, runs)
            assert len(keys) == catalan_by_recurrence(m)[m], (m, period)

    def test_gap_keys_equal_the_insertion_oracle(self):
        """The templates give the keys that inserting each top by bisection gave, in the
        same order, and no returned key keeps the mark byte 255."""
        for m, period, code in self.code_sets():
            keys = finite._gap_keys(m, period, code)
            assert keys == gap_keys_by_insertion(m, period, code), (m, period)
            assert not any(255 in key for key in keys), (m, period)

    def test_codes_keep_the_rule_that_placing_the_top_needs(self):
        """Every code is below the mark 255, and within one start [a, j] sorts below [a, b]
        whenever j < b - 1, so a range's top joins each left run at its end, or just before
        the left's own top [a, b - 1]."""
        for m, period, code in self.code_sets():
            assert max(code.values()) < 255, (m, period)
            for (a, b), c in code.items():
                assert all(code[a, j] < c for j in range(a, b - 1)), (m, period, a, b)

    def test_peak_memory_is_the_result(self):
        """The keys are replaced in place by their sets, and the shorter ranges are freed
        first, so at no point do all keys and all sets of A_10 coexist."""
        gc.collect()
        tracemalloc.start()
        try:
            sets = enumerate_maximal_rigid(LinearQuiver(10))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sets) == 16796
        assert peak <= 1.05 * held, (peak, held)

    @pytest.mark.parametrize("m", [10, 11])
    def test_peak_over_the_result_is_one_chunk(self, m):
        """What the build holds beside the sets is one chunk's: its joined bytes and the
        rank getter's index tuple and result, ``_CHUNK`` * m + 1 pointers each.  The peak
        read 111 KB over the result at A_10 and 123 KB at A_11.  The bound is absolute, as
        the ratio to the result grows when m falls (1.41 at A_8)."""
        gc.collect()
        tracemalloc.start()
        try:
            sets = enumerate_maximal_rigid(LinearQuiver(m))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sets) == catalan_by_recurrence(m)[m]
        assert peak - held < 256 * 1024, (peak, held)

    def test_key_width_bounds_m_whatever_the_cap(self):
        """A key holds each rank in a byte below the mark 255, which bounds m at 22; the
        largest rank under the cap, on A_15, is 119."""
        assert MAX_M * (MAX_M + 1) // 2 - 1 <= 254


class TestBulkBuild:
    """The enumerator builds its sets without ``RigidSet.__init__`` (``finite._build``)."""

    def test_sets_are_built_without_the_constructor(self, monkeypatch):
        expected = {m: enumerate_maximal_rigid(LinearQuiver(m)) for m in range(1, 9)}

        def refuse(self, *args, **kwargs):
            raise AssertionError("the enumerator builds its sets without __init__")

        monkeypatch.setattr(RigidSet, "__init__", refuse)
        for m, sets in expected.items():
            assert enumerate_maximal_rigid(LinearQuiver(m)) == sets

    def test_sets_equal_what_the_constructor_builds(self):
        """Equal, with equal hash and text; the constructor also checks that every set's
        members are strictly ascending."""
        for m in range(1, 11):
            for s in enumerate_maximal_rigid(LinearQuiver(m)):
                built = RigidSet(s.members)
                assert type(s) is RigidSet and s == built
                assert hash(s) == hash(built) and str(s) == str(built)

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_chunk_size_does_not_change_the_list(self, monkeypatch, chunk):
        """One key per pass, two, and seven, which do not divide the 1,430 sets of A_8, so
        the last pass is short.  On A_1 every pass gathers a single rank: the getter's
        extra index keeps its result a tuple, and the surplus member is never read."""
        expected = {m: enumerate_maximal_rigid(LinearQuiver(m)) for m in (1, 2, 3, 8)}
        monkeypatch.setattr(finite, "_CHUNK", chunk)
        for m, default in expected.items():
            sets = enumerate_maximal_rigid(LinearQuiver(m))
            assert sets == default, m
            assert all(type(s) is RigidSet and type(s.members) is tuple and len(s.members) == m for s in sets), m

    def test_a_build_short_of_one_object_per_key_fails_the_claim(self):
        """``_enumerate`` claims at least one object per key of each chunk, so a build that
        returns fewer cannot drop keys; the collector is on again after the claim."""
        code = {(a, b): _rank(4, a, b) for a in range(1, 5) for b in range(a, 5)}
        for short in ([], [None] * 13):
            with pytest.raises(ClaimError, match="^a chunk's build makes an object per key$"):
                finite._enumerate(4, 1, code, lambda flat: short)
            assert gc.isenabled()
        assert finite._enumerate(4, 1, code, lambda flat: [None] * (len(flat) // 4)) == [None] * 14


class TestCollectorPause:
    """The sets are built with the garbage collector off, and it is restored after."""

    def test_on_after_a_normal_return(self):
        assert gc.isenabled()
        assert len(enumerate_maximal_rigid(LinearQuiver(6))) == 132
        assert gc.isenabled()

    def test_on_after_an_exception_mid_build(self, monkeypatch):
        """Hooked at ``deque``, which only ``_build`` calls, once per column; a ``RigidSet``
        has one column, so once per chunk of keys.  On A_10 the third call raises, when the
        sets of the first two chunks already exist."""
        built = []

        def third_fails(*args):
            built.append(gc.isenabled())
            if len(built) == 3:
                raise RuntimeError("third chunk")
            return deque(*args)

        assert 16796 > 2 * finite._CHUNK
        monkeypatch.setattr(finite, "deque", third_fails)
        with pytest.raises(RuntimeError, match="third chunk"):
            enumerate_maximal_rigid(LinearQuiver(10))
        assert built == [False] * 3
        assert gc.isenabled()

    def test_stays_off_when_the_caller_turned_it_off(self):
        gc.disable()
        try:
            assert len(enumerate_maximal_rigid(LinearQuiver(6))) == 132
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_one_entry_collection_then_the_sets_are_in_the_oldest_generation(self):
        """The young generations are emptied first, so that no collection the caller's own
        allocations are due falls inside the call."""
        gc.collect()
        sets, generations = collections_during(lambda: enumerate_maximal_rigid(LinearQuiver(8)))
        assert len(sets) == 1430 and generations == [1]
        assert in_oldest_generation([sets, *sets, *(s.members for s in sets)])

    def test_a_cycle_made_just_before_the_call_is_freed_by_it(self):
        """Freed by the entry collection, with no further ``gc.collect``: a handoff without it
        would move the cycle into the oldest generation alive."""
        gc.collect()
        alive = dead_cycle()
        assert alive() is not None
        enumerate_maximal_rigid(LinearQuiver(8))
        assert alive() is None

    def test_a_callers_freeze_survives(self):
        """No collection on entry and no handoff on exit, which would unfreeze it."""
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            sets, generations = collections_during(lambda: enumerate_maximal_rigid(LinearQuiver(8)))
            assert len(sets) == 1430 and 1 not in generations
            assert frozen > 0 and gc.get_freeze_count() == frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()

    def test_no_collection_when_the_caller_turned_it_off(self):
        gc.disable()
        try:
            sets, generations = collections_during(lambda: enumerate_maximal_rigid(LinearQuiver(8)))
            assert len(sets) == 1430 and generations == []
        finally:
            gc.enable()

    def test_handed_off_after_an_exception_mid_build(self, monkeypatch):
        """The second chunk's ``deque`` raises: the collector is on again and nothing is left
        frozen."""
        calls = []

        def second_fails(*args):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("second chunk")
            return deque(*args)

        monkeypatch.setattr(finite, "deque", second_fails)
        with pytest.raises(RuntimeError, match="second chunk"):
            enumerate_maximal_rigid(LinearQuiver(8))
        assert gc.isenabled() and gc.get_freeze_count() == 0
