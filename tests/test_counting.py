"""Closed-form counts, their oracles, and the identities they claim."""

import pytest

from maxrigid import binomial, catalan, continuous_count, counting, projected_count
from maxrigid.counting import ClaimError


def pascal_binomial(n, k):
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row[k] if 0 <= k < len(row) else 0


def catalan_by_recurrence(limit):
    cs = [1]
    for m in range(limit):
        cs.append(sum(cs[i] * cs[m - i] for i in range(m + 1)))
    return cs


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(6, 3) == 20
        assert binomial(10, 5) == 252

    def test_k_beyond_n_is_zero(self):
        assert binomial(3, 5) == 0

    def test_against_pascal(self):
        for n in range(0, 25):
            for k in range(0, n + 3):
                assert binomial(n, k) == pascal_binomial(n, k)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestCatalan:
    def test_values(self):
        assert catalan(0) == 1  # the empty quiver; the count rule allows m = 0 here only
        assert catalan(1) == 1
        assert catalan(3) == 5
        assert catalan(5) == 42

    def test_against_recurrence(self):
        expected = catalan_by_recurrence(20)
        for m in range(21):
            assert catalan(m) == expected[m]


class TestProjectedCount:
    def test_values(self):
        assert projected_count(1) == 5
        assert projected_count(2) == 42
        assert projected_count(3) == 429

    def test_equals_odd_catalan(self):
        for n in range(1, 65):
            assert projected_count(n) == catalan(2 * n + 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            projected_count(0)


class TestContinuousCount:
    def test_values(self):
        assert continuous_count(1) == 10
        assert continuous_count(2) == 168
        assert continuous_count(3) == 3432

    def test_doubling_identity(self):
        for n in range(1, 65):
            assert continuous_count(n) == 2**n * projected_count(n)

    def test_identity_enforced(self, monkeypatch):
        real = counting.projected_count
        monkeypatch.setattr(counting, "projected_count", lambda n: real(n) + 1)
        with pytest.raises(ClaimError, match=r"^continuous count must be 2\^n projected$"):
            continuous_count(1)
