"""Monic orthogonal-polynomial machinery: recurrences, moments, Hankel
determinants, and Jacobi continued fractions.

A :class:`Recurrence` holds the data (b_k, lambda_k) of the monic family

    P_0 = 1,   P_1 = x - b_0,   P_n = (x - b_{n-1}) P_{n-1} - lambda_{n-1} P_{n-2}.

"Formally orthogonal" is meant literally: lambda_k may be zero or negative.
The recurrence runs once, on integer numerators, for the coefficient array
and, reversed, for the J-fraction convergents that give the moments; the
Hankel transform h_n = det(m_{i+j}) and the J-fraction of a moment sequence
are read off one fraction-free (Bareiss) elimination of its integer-scaled
Hankel matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .riordan import TriMatrix, from_rows
from .series import Series, format_rational, series

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

    def to_json(self) -> dict:
        return {
            "b": [format_rational(v) for v in self.b],
            "lambda": [format_rational(v) for v in self.lam],
        }


def recurrence_from_jacobi(params, n: int) -> Recurrence:
    """Recurrence data for P_0..P_n from tridiagonal production parameters."""
    return Recurrence(b=params.b_list(n), lam=params.lam_list(n))


def _monic_numerators(b: tuple, lam: tuple, n: int) -> tuple[list[list[int]], int]:
    """Integer rows of Q_k(y) = d^k P_k(y/d), k = 0..n, and d.  With d the lcm
    of the denominators, Q_{k+1} = (y - d b_k) Q_k - d^2 lambda_k Q_{k-1}."""
    b, lam = b[:n], lam[: max(n - 1, 0)]
    d = lcm(*(v.denominator for v in (*b, *lam)))
    db = [v.numerator * (d // v.denominator) for v in b]
    d2lam = [0] + [v.numerator * (d // v.denominator) * d for v in lam]  # lambda_0 = 0
    rows = [[], [1]]  # Q_{-1} = 0, Q_0 = 1
    for bk, lk in zip(db, d2lam):
        q, q1 = rows[-1], rows[-2]
        rows.append([s - bk * c - lk * e for s, c, e in zip([0] + q, q + [0], q1 + [0, 0])])
    return rows[1:], d


def _require_degree(rec: Recurrence, n: int) -> None:
    if not 0 <= n <= len(rec.b) or n - 1 > len(rec.lam):
        raise ValueError(f"recurrence data too short for degree {n}")


def coefficient_array(rec: Recurrence, n: int) -> TriMatrix:
    """Rows 0..n hold the coefficients of the monic polynomials P_0..P_n."""
    _require_degree(rec, n)
    rows, d = _monic_numerators(rec.b, rec.lam, n)
    scale = [d**i for i in range(n + 1)]
    return from_rows(
        [[Fraction(c, scale[k - j]) for j, c in enumerate(row)] for k, row in enumerate(rows)]
    )


def moments(rec: Recurrence, n: int) -> tuple[Fraction, ...]:
    """m_0..m_n, the first column of the inverse coefficient array: the OGF
    coefficients of the J-fraction, fixed through x^n at depth ceil(n/2)."""
    _require_degree(rec, n)
    return cf_to_ogf(rec, n, (n + 1) // 2).coeffs


def _bareiss(seq: Sequence[Fraction], n: int, pivot: bool) -> tuple[list[list[int]], int]:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of the integer
    matrix c (m_{i+j})_{0<=i,j<=n}, c the lcm of the denominators; returns its
    rows and c.  Row k is reduced by steps 0..k-1, so a[k][k] = c^{k+1} h_k and
    a[k][k+1] is c^{k+1} times the minor h_k with column k replaced by column
    k+1.  The pass stops at the first zero pivot; with ``pivot`` a lower row,
    negated, takes its place, which keeps only the last pivot a leading minor."""
    if n < 0:
        raise ValueError(f"Hankel order {n} is negative")
    terms = [Fraction(v) for v in seq[: 2 * n + 1]]
    c = lcm(*(v.denominator for v in terms))
    ints = [v.numerator * (c // v.denominator) for v in terms]
    a = [ints[i : i + n + 1] for i in range(n + 1)]
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n + 1) if a[r][k]), None) if pivot else None
            if swap is None:
                return a[: k + 1], c
            a[k], a[swap] = [-v for v in a[swap]], a[k]  # keep the determinant's sign
        top, p = a[k], a[k][k]
        for row in a[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(v * p - f * w) // prev for v, w in zip(row[k + 1 :], top[k + 1 :])]
        prev = p
    return a, c


def hankel(seq: Sequence[Fraction], n: int) -> Fraction:
    """det(m_{i+j})_{0<=i,j<=n}: the last pivot of the elimination with row swaps."""
    if len(seq) < 2 * n + 1:
        raise ValueError(f"need {2 * n + 1} terms for the order-{n} determinant")
    a, c = _bareiss(seq, n, pivot=True)
    return Fraction(a[n][n], c ** (n + 1)) if len(a) > n else Fraction(0)


def hankel_transform(seq: Sequence[Fraction], n_max: int) -> list[Fraction]:
    """[h_0, ..., h_{n_max}]: the pivots of one elimination pass and, past its
    first zero pivot (m_0 = 0 for tanh), :func:`hankel` for each further n."""
    if len(seq) < 2 * n_max + 1:
        raise ValueError(f"need {2 * n_max + 1} terms for h_0..h_{n_max}")
    a, c = _bareiss(seq, n_max, pivot=False)
    return [Fraction(a[k][k], c ** (k + 1)) for k in range(len(a))] + [
        hankel(seq, n) for n in range(len(a), n_max + 1)
    ]


# -- Jacobi continued fractions ---------------------------------------------


def jfraction(m: Sequence[Fraction], depth: int) -> Recurrence:
    """Expand the OGF of ``m`` as a J-fraction by Hankel determinant ratios.

    Returns b_0..b_{depth-1} and lambda_1..lambda_depth: lambda_n =
    h_n h_{n-2} / h_{n-1}^2 and b_n = e_n - e_{n-1}, with e_n the minor h_n
    with column n replaced by column n+1, over h_n.  All are read off one
    elimination pass over the (depth+1)-square Hankel matrix, where the
    powers of its scale cancel.  ``m`` must supply at least 2*depth + 1
    terms.  A vanishing h_k before the requested depth means a vanishing
    lambda_k; that raises rather than guessing.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if len(m) < 2 * depth + 1:
        raise ValueError(f"need {2 * depth + 1} moments for depth {depth}")
    if m[0] != 1:
        raise ValueError("moment sequence must start with m_0 = 1")
    a, _ = _bareiss(m, depth, pivot=False)
    if len(a) <= depth:
        raise ValueError(
            f"vanishing Hankel determinant at depth {len(a) - 1}; "
            "the J-fraction terminates early"
        )
    h = [1] + [a[k][k] for k in range(depth + 1)]  # h[k + 1] = c^{k+1} h_k, h_{-1} = 1
    e = [0] + [Fraction(a[k][k + 1], a[k][k]) for k in range(depth)]
    return Recurrence(
        b=tuple(e[k + 1] - e[k] for k in range(depth)),
        lam=tuple(Fraction(h[k + 1] * h[k - 1], h[k] ** 2) for k in range(1, depth + 1)),
    )


def _reversed_top(b: tuple, lam: tuple, n: int, order: int) -> Series:
    """x^n P_n(1/x) to order ``order``; its x^i term is [y^(n-i)] Q_n / d^i."""
    rows, d = _monic_numerators(b, lam, n)
    return series([Fraction(c, d**i) for i, c in enumerate(rows[n][::-1][: order + 1])], order)


def cf_to_ogf(rec: Recurrence, order: int, depth: int | None = None) -> Series:
    """Order-``order`` truncation of the J-fraction

    1 / (1 - b_0 x - lambda_1 x^2 / (1 - b_1 x - lambda_2 x^2 / (...)))

    using levels 0..depth-1 of ``rec``, lambda_depth when present, and tail 1;
    correct to order >= 2*depth - 1.  That is the depth+1 convergent with
    b_depth = 0: the reversed associated polynomial (the data shifted by one
    level) over the reversed P_{depth+1} (Flajolet, Discrete Math. 32, 1980).
    """
    if depth is None:
        depth = len(rec.b)
    if not 0 <= depth <= len(rec.b):
        raise ValueError(f"depth {depth} is outside 0..{len(rec.b)}")
    b = rec.b[:depth] + (Fraction(0),)
    lam = (rec.lam + (Fraction(0),) * depth)[:depth]
    return _reversed_top(b[1:], lam[1:], depth, order) / _reversed_top(b, lam, depth + 1, order)
