"""Exact closed-form counts; each count ``claim``s the identity it must satisfy."""

from __future__ import annotations

import math


class ClaimError(RuntimeError):
    """An internal claim failed: a bug, not bad input (the CLI exits 1)."""


class NonPositiveCountError(ValueError):
    """A segment or vertex count below 1: bad input (the CLI exits 2)."""


def claim(ok: bool, what: str) -> None:
    """Raise ClaimError unless ``ok``; unlike ``assert``, also under ``python -O``."""
    if not ok:
        raise ClaimError(what)


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 when k > n."""
    return math.comb(n, k)


def catalan(m: int) -> int:
    """C(2m, m) / (m + 1); counts maximal rigid sets on the linear A_m quiver."""
    value, rem = divmod(binomial(2 * m, m), m + 1)
    claim(rem == 0, "Catalan division must be exact")
    return value


def projected_count(n: int) -> int:
    """Maximal rigid sets on the (2n+1)-vertex segment quiver: catalan(2n+1)."""
    if n < 1:
        raise NonPositiveCountError("segment count must be >= 1")
    value, rem = divmod(binomial(4 * n + 2, 2 * n + 1), 2 * n + 2)
    claim(rem == 0, "projected count division must be exact")
    claim(value == catalan(2 * n + 1), "projected count must be catalan(2n+1)")
    return value


def continuous_count(n: int) -> int:
    """Maximal rigid breakpoint representations on n segments.

    Closed form 2^(n-1)/(n+1) * C(4n+2, 2n+1), always an integer and
    always equal to 2^n times the projected count.
    """
    if n < 1:
        raise NonPositiveCountError("segment count must be >= 1")
    value, rem = divmod(2 ** (n - 1) * binomial(4 * n + 2, 2 * n + 1), n + 1)
    claim(rem == 0, "continuous count division must be exact")
    claim(value == 2**n * projected_count(n), "continuous count must be 2^n projected")
    return value
