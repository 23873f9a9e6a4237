"""Monic orthogonal-polynomial machinery: recurrences, moments, Hankel
determinants, and Jacobi continued fractions.

A :class:`Recurrence` holds the data (b_k, lambda_k) of the monic family

    P_0 = 1,   P_1 = x - b_0,   P_n = (x - b_{n-1}) P_{n-1} - lambda_{n-1} P_{n-2}.

"Formally orthogonal" is meant literally: lambda_k may be zero or negative.
Moments are the first column of the inverse coefficient array, found by
forward substitution on that one column; the Hankel transform is the
determinant sequence h_n = det(m_{i+j}), 0 <= i,j <= n, computed by
fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .riordan import TriMatrix, from_rows, solve_lower
from .series import Series, format_rational, one, series

__all__ = [
    "Recurrence",
    "coefficient_array",
    "moments",
    "hankel",
    "hankel_transform",
    "jfraction",
    "cf_to_ogf",
    "recurrence_from_jacobi",
]


@dataclass(frozen=True)
class Recurrence:
    """Three-term recurrence data: b[k] is b_k, lam[k] is lambda_{k+1}."""

    b: tuple[Fraction, ...]
    lam: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(Fraction(v) for v in self.b))
        object.__setattr__(self, "lam", tuple(Fraction(v) for v in self.lam))

    def diagonal(self, k: int) -> Fraction:
        return self.b[k]

    def subdiagonal(self, k: int) -> Fraction:
        """lambda_k (1-based, matching the recurrence index)."""
        return self.lam[k - 1]

    def to_json(self) -> dict:
        return {
            "b": [format_rational(v) for v in self.b],
            "lambda": [format_rational(v) for v in self.lam],
        }


def recurrence_from_jacobi(params, n: int) -> Recurrence:
    """Recurrence data for P_0..P_n from tridiagonal production parameters."""
    return Recurrence(b=params.b_list(n), lam=params.lam_list(n))


def coefficient_array(rec: Recurrence, n: int) -> TriMatrix:
    """Rows 0..n hold the coefficients of the monic polynomials P_0..P_n."""
    if n > len(rec.b) or n - 1 > len(rec.lam):
        raise ValueError(f"recurrence data too short for degree {n}")
    rows: list[list[Fraction]] = [[Fraction(1)]]
    if n >= 1:
        rows.append([-rec.b[0], Fraction(1)])
    for m in range(2, n + 1):
        prev = rows[m - 1]
        prev2 = rows[m - 2]
        row = [Fraction(0)] * (m + 1)
        for k, c in enumerate(prev):
            row[k + 1] += c
            row[k] -= rec.b[m - 1] * c
        lam = rec.lam[m - 2]
        if lam:
            for k, c in enumerate(prev2):
                row[k] -= lam * c
        rows.append(row)
    return from_rows(rows)


def moments(rec: Recurrence, n: int) -> tuple[Fraction, ...]:
    """m_0..m_n: first column of the inverse of the coefficient array L,
    the solution m of L . m = e_0."""
    e0 = ((Fraction(1),),) + ((Fraction(0),),) * n
    return tuple(row[0] for row in solve_lower(coefficient_array(rec, n), e0))


def hankel(seq: Sequence[Fraction], n: int) -> Fraction:
    """det(m_{i+j})_{0<=i,j<=n} by fraction-free Bareiss elimination."""
    if len(seq) < 2 * n + 1:
        raise ValueError(f"need {2 * n + 1} terms for the order-{n} determinant")
    a = [[Fraction(seq[i + j]) for j in range(n + 1)] for i in range(n + 1)]
    prev = Fraction(1)
    for k in range(n):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n + 1) if a[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            a[k] = [-v for v in a[k]]  # keep the determinant's sign
        pivot = a[k][k]
        for i in range(k + 1, n + 1):
            for j in range(k + 1, n + 1):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pivot
    return a[n][n]


def hankel_transform(seq: Sequence[Fraction], n_max: int) -> list[Fraction]:
    """[h_0, ..., h_{n_max}]."""
    if len(seq) < 2 * n_max + 1:
        raise ValueError(f"need {2 * n_max + 1} terms for h_0..h_{n_max}")
    return [hankel(seq, n) for n in range(n_max + 1)]


# -- Jacobi continued fractions ---------------------------------------------


def jfraction(m: Sequence[Fraction], depth: int) -> Recurrence:
    """Expand the OGF of ``m`` as a J-fraction, peeling one level at a time.

    Returns b_0..b_{depth-1} and lambda_1..lambda_depth.  Each level costs
    two orders of the input, so ``m`` must supply at least 2*depth + 1
    terms.  A vanishing lambda_k before the requested depth means some
    leading Hankel determinant is zero; that raises rather than guessing.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if len(m) < 2 * depth + 1:
        raise ValueError(f"need {2 * depth + 1} moments for depth {depth}")
    if m[0] != 1:
        raise ValueError("moment sequence must start with m_0 = 1")
    b: list[Fraction] = []
    lam: list[Fraction] = []
    cur = series(m)
    for level in range(depth):
        rem = 1 - 1 / cur  # equals b_k x + lambda_{k+1} x^2 * (next level)
        b.append(rem[1])
        tail = tuple(rem.coeffs[2:])
        lam_next = tail[0] if tail else Fraction(0)
        lam.append(lam_next)
        if level == depth - 1:
            break
        if lam_next == 0:
            raise ValueError(
                f"vanishing Hankel determinant at depth {level + 1}; "
                "the J-fraction terminates early"
            )
        cur = series(tuple(v / lam_next for v in tail))
    return Recurrence(b=tuple(b), lam=tuple(lam))


def cf_to_ogf(rec: Recurrence, order: int, depth: int | None = None) -> Series:
    """Order-``order`` truncation of the J-fraction

    1 / (1 - b_0 x - lambda_1 x^2 / (1 - b_1 x - lambda_2 x^2 / (...)))

    using levels 0..depth-1 of ``rec``; correct to order >= 2*depth - 1.
    """
    if depth is None:
        depth = len(rec.b)
    if depth > len(rec.b):
        raise ValueError(f"depth {depth} exceeds available b-coefficients")
    tail = one(order)
    x2 = series([0, 0, 1], order=order)
    xs = series([0, 1], order=order)
    for k in range(depth - 1, -1, -1):
        lam_term = (
            rec.lam[k] * x2 * tail if k < len(rec.lam) and rec.lam[k] else None
        )
        den = 1 - rec.b[k] * xs
        if lam_term is not None:
            den = den - lam_term
        tail = 1 / den
    return tail
