"""Exact closed-form counts; each count ``claim``s the identity it must satisfy."""

from __future__ import annotations

import math


class ClaimError(RuntimeError):
    """An internal claim failed: a bug, not bad input (the CLI exits 1)."""


class NonPositiveCountError(ValueError):
    """A count below 1, or below 0 for ``catalan``: bad input (the CLI exits 2)."""


def claim(ok: bool, what: str) -> None:
    """Raise ClaimError unless ``ok``; unlike ``assert``, also under ``python -O``."""
    if not ok:
        raise ClaimError(what)


def _check_count(n: int, what: str, least: int = 1) -> None:
    """The one count rule: ``n`` is a plain int (else TypeError) and at least ``least``."""
    if type(n) is not int:
        raise TypeError(f"not an int count: {n!r}")
    if n < least:
        raise NonPositiveCountError(f"{what} count must be >= {least}")


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 when k > n."""
    return math.comb(n, k)


def catalan(m: int) -> int:
    """C(2m, m) / (m + 1); counts maximal rigid sets on the linear A_m quiver."""
    _check_count(m, "vertex", 0)
    value, rem = divmod(binomial(2 * m, m), m + 1)
    claim(rem == 0, "Catalan division must be exact")
    return value


def projected_count(n: int) -> int:
    """Maximal rigid sets on the (2n+1)-vertex segment quiver: catalan(2n+1)."""
    _check_count(n, "segment")
    value, rem = divmod(binomial(4 * n + 2, 2 * n + 1), 2 * n + 2)
    claim(rem == 0, "projected count division must be exact")
    claim(value == catalan(2 * n + 1), "projected count must be catalan(2n+1)")
    return value


def continuous_count(n: int) -> int:
    """Maximal rigid breakpoint representations on n segments.

    Closed form 2^(n-1)/(n+1) * C(4n+2, 2n+1), always an integer and
    always equal to 2^n times the projected count.
    """
    _check_count(n, "segment")
    value, rem = divmod(2 ** (n - 1) * binomial(4 * n + 2, 2 * n + 1), n + 1)
    claim(rem == 0, "continuous count division must be exact")
    claim(value == 2**n * projected_count(n), "continuous count must be 2^n projected")
    return value
