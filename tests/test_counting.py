"""Closed-form counts, their oracles, and the report container."""

import pytest

from maxrigid import CountReport, binomial, catalan, continuous_count, projected_count
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


class TestReport:
    def test_identity_enforced(self):
        with pytest.raises(ClaimError):
            CountReport(n=1, formula_count=11, projected_formula_count=5)

    def test_match_flags(self):
        plain = CountReport(n=1, formula_count=10, projected_formula_count=5)
        assert plain.match is None
        good = CountReport(1, 10, 5, enumerated_count=10, enumerated_projected_count=5)
        assert good.match is True
        bad = CountReport(1, 10, 5, enumerated_count=9)
        assert bad.match is False

    def test_to_dict_round(self):
        rep = CountReport(2, 168, 42, 168, 42)
        d = rep.to_dict()
        assert d["n"] == 2 and d["match"] is True and d["formula_count"] == 168
