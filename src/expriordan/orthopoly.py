"""Monic orthogonal-polynomial machinery: recurrences, moments, Hankel
determinants, and Jacobi continued fractions.

A :class:`Recurrence` holds the data (b_k, lambda_k) of the monic family

    P_0 = 1,   P_1 = x - b_0,   P_n = (x - b_{n-1}) P_{n-1} - lambda_{n-1} P_{n-2}.

"Formally orthogonal" is meant literally: lambda_k may be zero or negative.
The recurrence runs once, on integer numerators, for the coefficient array.
The moments come from the production matrix instead: they are the first
column of the Stieltjes table, the array whose production matrix is the
tridiagonal Jacobi matrix of the data, grown one row at a time on integer
numerators over the data's common denominator, each moment made a Fraction
once.  Going back, the Hankel transform h_n = det(m_{i+j}) and the
J-fraction of a moment sequence are read off one expansion of its
generating function as a Hankel continued fraction (Han's H-fraction), on
integer rows, which gives every h_n, vanishing minors included; a
J-fraction is an H-fraction whose levels all have k_j = 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .riordan import TriMatrix, from_rows
from .series import Series, _content_removed, _Frozen, _quotient, _scaled

__all__ = [
    "Recurrence",
    "coefficient_array",
    "moments",
    "hankel_transform",
    "jfraction",
    "cf_to_ogf",
    "recurrence_from_jacobi",
]


class Recurrence(_Frozen):
    """Three-term recurrence data: b[k] is b_k, lam[k] is lambda_{k+1}."""

    __slots__ = ("b", "lam")

    def __init__(self, b: Sequence[Fraction], lam: Sequence[Fraction]) -> None:
        b, lam = (tuple(v if type(v) is Fraction else Fraction(v) for v in vs) for vs in (b, lam))
        self._set_fields(b, lam)


def recurrence_from_jacobi(params, n: int) -> Recurrence:
    """Recurrence data for P_0..P_n from tridiagonal production parameters:
    b_0..b_(n-1) and lambda_1..lambda_(n-1).  b_k = alpha + k gamma and
    lambda_k = k beta + k(k-1) delta are each one Fraction, made from the
    parameters' integer numerators over their common denominator d."""
    (alpha, beta, gamma, delta), d = _scaled(
        (params.alpha, params.beta, params.gamma, params.delta), 3
    )
    return Recurrence(
        b=tuple(Fraction(alpha + k * gamma, d) for k in range(n)),
        lam=tuple(Fraction(k * beta + k * (k - 1) * delta, d) for k in range(1, n)),
    )


def _require_degree(rec: Recurrence, n: int) -> None:
    if not 0 <= n <= len(rec.b) or n - 1 > len(rec.lam):
        raise ValueError(f"recurrence data too short for degree {n}")


def coefficient_array(rec: Recurrence, n: int) -> TriMatrix:
    """Rows 0..n hold the coefficients of the monic polynomials P_0..P_n.
    With d the lcm of the data's denominators, the integer rows of
    Q_k(y) = d^k P_k(y/d) satisfy Q_{k+1} = (y - d b_k) Q_k - d^2 lambda_k Q_{k-1}."""
    _require_degree(rec, n)
    b, lam = rec.b[:n], rec.lam[: max(n - 1, 0)]
    nums, d = _scaled((*b, *lam), len(b) + len(lam) - 1)
    db, d2lam = nums[:n], [0] + [v * d for v in nums[n:]]  # lambda_0 = 0
    rows = [[], [1]]  # Q_{-1} = 0, Q_0 = 1
    for bk, lk in zip(db, d2lam):
        q, q1 = rows[-1], rows[-2]
        rows.append([s - bk * c - lk * e for s, c, e in zip([0] + q, q + [0], q1 + [0, 0])])
    scale = [d**i for i in range(n + 1)]
    return from_rows(
        [[Fraction(c, scale[k - j]) for j, c in enumerate(row)] for k, row in enumerate(rows[1:])]
    )


def moments(rec: Recurrence, n: int) -> tuple[Fraction, ...]:
    """m_0..m_n, the first column of the inverse coefficient array: the OGF
    coefficients of the J-fraction, fixed through x^n at depth ceil(n/2)."""
    _require_degree(rec, n)
    return cf_to_ogf(rec, n, (n + 1) // 2).coeffs


def _hfraction(seq: Sequence[Fraction], n: int) -> list[tuple[int, list[int], int]]:
    """Levels of Han's H-fraction (Adv. Math. 303, 2016) of sum m_k x^k, read
    off m_0..m_2n: the levels j whose nonzero minor h_(s_j + k_j) has index at
    most n, where s_0 = 0 and s_(j+1) = s_j + k_j + 1.  Every other h_i,
    i <= n, is zero.

    Level j is G_j = v_j x^k_j / (1 + u_(j+1)(x) x - x^(k_j+2) G_(j+1)), with
    G_0 the whole series and deg u_(j+1) <= k_j.  Written G_j = x^k_j R_j /
    R_(j-1) with R_(-1) = 1, it has v_j = R_j(0)/R_(j-1)(0), so R_j(0) =
    v_0...v_j.  Level j is returned as (k_j, r, den): R_j = r/den through
    x^(2(n - s_j) - k_j), r[0] != 0, content removed.

    With q the integer row of R_(j-1), k = k_j and p = r[0]^(k+2), the
    integer quotient P = p q/r through x^(k+1), the long division of
    ``series._quotient``, is P[0] (1 + u_(j+1) x), and x^(k+2) G_(j+1) R_j =
    (r P - p q) / (den P[0]), whose terms through x^(k+1) cancel.  That is
    O(n (k_j + 1)) integer products per level."""
    if n < 0:
        raise ValueError(f"Hankel order {n} is negative")
    terms = [v if type(v) is Fraction else Fraction(v) for v in seq[: 2 * n + 1]]
    a, den = _scaled(terms, 2 * n)  # x^k_j R_j, level j = 0
    q = [1] + [0] * (2 * n)  # R_(j-1)
    levels, s = [], 0
    while True:
        k = next((i for i, v in enumerate(a) if v), len(a))
        if s + k > n:  # h_s..h_n all vanish
            return levels
        r, den = _content_removed(a[k:], den)
        levels.append((k, r, den))
        s += k + 1
        if s > n:
            return levels
        quot, p = _quotient(q, r, k + 1)
        # The terms through x^(k+1) cancel; len(r) - k - 2 = 2(n - s) + 1 remain.
        a = [-p * w for w in q[k + 2 : len(r)]]
        for i, t in enumerate(quot):
            a = [v + t * w for v, w in zip(a, r[k + 2 - i :])]
        q, den = r, den * quot[0]


def hankel_transform(seq: Sequence[Fraction], n_max: int) -> list[Fraction]:
    """[h_0, ..., h_{n_max}] from one H-fraction expansion: level j puts k_j
    zeros and then h_(s_j + k_j) = h_(s_j - 1) (-1)^(k_j (k_j + 1)/2)
    R_j(0)^(k_j + 1), with h_(-1) = 1; every later h_n is zero."""
    if len(seq) < 2 * n_max + 1:
        raise ValueError(f"need {2 * n_max + 1} terms for h_0..h_{n_max}")
    h: list[Fraction] = []
    last = Fraction(1)
    for k, r, den in _hfraction(seq, n_max):
        sign = (-1) ** (k * (k + 1) // 2)
        last = Fraction(sign * last.numerator * r[0] ** (k + 1), last.denominator * den ** (k + 1))
        h += [Fraction(0)] * k + [last]
    return h + [Fraction(0)] * (n_max + 1 - len(h))


# -- Jacobi continued fractions ---------------------------------------------


def jfraction(m: Sequence[Fraction], depth: int) -> Recurrence:
    """Expand the OGF of ``m`` as a J-fraction, the H-fraction whose k_j are
    all zero.

    Returns b_0..b_{depth-1} and lambda_1..lambda_depth: lambda_j = v_j =
    R_j(0)/R_(j-1)(0) and b_j = -u_(j+1) = e_j - e_(j-1), with e_j =
    R_j[1]/R_j[0] and e_(-1) = 0.  ``m`` must supply at least 2*depth + 1
    terms.  A vanishing h_k before the requested depth means a vanishing
    lambda_k; that raises rather than guessing.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if len(m) < 2 * depth + 1:
        raise ValueError(f"need {2 * depth + 1} moments for depth {depth}")
    if m[0] != 1:
        raise ValueError("moment sequence must start with m_0 = 1")
    levels = _hfraction(m, depth)
    stop = next((j for j, (k, _, _) in enumerate(levels) if k), len(levels))
    if stop < depth:
        raise ValueError(
            f"vanishing Hankel determinant at depth {stop}; "
            "the J-fraction terminates early"
        )
    # lambda_j = R_j(0) / R_(j-1)(0); lambda_depth = 0 when level depth is absent.
    lam = [Fraction(r[0] * d0, den * p[0]) for (_, p, d0), (_, r, den) in zip(levels, levels[1:])]
    e = [0] + [Fraction(r[1], r[0]) for _, r, _ in levels[:depth]]
    return Recurrence(
        b=tuple(e[j + 1] - e[j] for j in range(depth)),
        lam=tuple(lam) + (Fraction(0),) * (depth - len(lam)),
    )


def cf_to_ogf(rec: Recurrence, order: int, depth: int | None = None) -> Series:
    """Order-``order`` truncation of the J-fraction

    1 / (1 - b_0 x - lambda_1 x^2 / (1 - b_1 x - lambda_2 x^2 / (...)))

    using levels 0..depth-1 of ``rec``, lambda_depth when present, and tail 1;
    correct to order >= 2*depth - 1.  Its coefficients are the first column
    of the Stieltjes table, whose production matrix is the Jacobi matrix J
    with 1 above the diagonal, b_0..b_(depth-1), 0 on it and lambda_1..
    lambda_depth below it (Flajolet, Discrete Math. 32, 1980): R_0 = (1),
    R_(i+1) = R_i J and m_i = R_i[0].  With d the data's common denominator,
    d^i R_i is an integer row, of which only the entries k <= order - i
    reach m_order; those are the ones kept.
    """
    if depth is None:
        depth = len(rec.b)
    if not 0 <= depth <= len(rec.b):
        raise ValueError(f"depth {depth} is outside 0..{len(rec.b)}")
    lam = rec.lam[:depth]
    nums, d = _scaled((*rec.b[:depth], *lam), depth + len(lam) - 1)
    # d b_k and d lambda_(k+1) for k = 0..depth: b_depth = 0, lambda_(depth+1) = 0.
    db, dlam = nums[:depth] + [0], nums[depth:] + [0] * (depth + 1 - len(lam))
    row, out, p = [1], [], 1
    for i in range(order + 1):
        out.append(Fraction(row[0], p))
        p *= d
        r = row + [0, 0]
        row = [
            d * u + bk * c + lk * e
            for u, c, e, bk, lk in zip([0] + row, r, r[1:], db[: order - i], dlam)
        ]
    return Series(tuple(out))
