"""Linear-quiver interval modules: oracles, rigidity, tilting, enumeration."""

import random

import pytest

from maxrigid import (
    FiniteInterval,
    LinearQuiver,
    ResourceLimitError,
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
from maxrigid import verify


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

    def test_maximal_examples(self):
        q = LinearQuiver(2)
        assert is_maximal_rigid_set(q, {f(1, 2), f(1, 1)})
        assert not is_maximal_rigid_set(q, {f(1, 2)})
        q3 = LinearQuiver(3)
        assert is_maximal_rigid_set(q3, {f(1, 3), f(1, 1), f(1, 2)})

    def test_tilting_iff_maximal_rigid_exhaustive(self):
        label, ok = verify.tilting_iff_maximal_rigid(5)
        assert ok, label

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
        for m in range(1, 7):
            q = LinearQuiver(m)
            long = f(1, m)
            for s in enumerate_maximal_rigid(q):
                assert len(s.summands) == m
                assert long in s.summands
                assert is_maximal_rigid_set(q, s.summands)

    def test_output_is_deterministic_and_sorted(self):
        a = enumerate_maximal_rigid(LinearQuiver(5))
        b = enumerate_maximal_rigid(LinearQuiver(5))
        assert [x.sorted_summands() for x in a] == [x.sorted_summands() for x in b]
        keys = [x.sorted_summands() for x in a]
        assert keys == sorted(keys)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_maximal_rigid(LinearQuiver(16))
        with pytest.raises(ResourceLimitError):
            enumerate_maximal_rigid(LinearQuiver(5), max_m=4)
        assert len(enumerate_maximal_rigid(LinearQuiver(5), max_m=5)) == 42
