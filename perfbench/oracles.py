"""Independent reference values the benchmark checks results against.

These are written out here from their closed forms, apart from the
library code under test.  Values are in the plain form of ``results.plain``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def x_coeffs(order: int) -> list[Fraction]:
    """The jet of the identity series x."""
    return [Fraction(int(k == 1)) for k in range(order + 1)]


def identity_rows(dim: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]


def leading_block(rows: list[list[Fraction]], dim: int) -> list[list[Fraction]]:
    return [row[:dim] for row in rows[:dim]]


def rows_from_json(obj: dict) -> list[list[Fraction]]:
    """Rows of a serialized matrix, parsed with Fraction alone."""
    return [[Fraction(v) for v in row] for row in obj["rows"]]


def _heilermann(lam, n: int) -> Fraction:
    """m_0 = 1 and subdiagonal lambda_k give h_n = prod_k lambda_k^(n+1-k)."""
    prod = Fraction(1)
    for k in range(1, n + 1):
        prod *= Fraction(lam(k)) ** (n + 1 - k)
    return prod


def hankel_sech2(n: int) -> Fraction:
    """h_n of the EGF coefficients of sech^2, whose lambda_k is -k(k+1)."""
    return _heilermann(lambda k: -k * (k + 1), n)


def hankel_sec2(n: int) -> Fraction:
    """h_n of the EGF coefficients of sec^2, whose lambda_k is k(k+1)."""
    return _heilermann(lambda k: k * (k + 1), n)


def hankel_tanh(n: int) -> Fraction:
    """h_n of the EGF coefficients of tanh: zero for even n, else
    (-1)^((n+1)/2) prod_{k<=n} (k!)^2."""
    if n % 2 == 0:
        return Fraction(0)
    prod = 1
    for k in range(n + 1):
        prod *= factorial(k) ** 2
    return Fraction((-1) ** ((n + 1) // 2) * prod)


HANKEL_CLOSED = {"sech2": hankel_sech2, "sec2": hankel_sec2, "tanh": hankel_tanh}
