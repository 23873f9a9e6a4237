"""Production (Stieltjes) matrices of exponential Riordan arrays.

Two independent routes are provided.  The definitional route solves
``M . P = (M with its first row removed)`` by exact forward substitution on
integer rows (``riordan.solve_lower``).  The analytic route composes

    A(x) = f'(fbar(x)),    Z(x) = g'(fbar(x)) / g(fbar(x)) = (log g)'(fbar(x))

on the one table of fbar that reversion checked, and builds P from them via
``P[n][k] = (n!/k!) z_{n-k} + (n!/(k-1)!) a_{n-k+1}``: the array ``[Z, x]``
plus ``[A, x]`` moved one column right, each entry made once from the
integers of Z and A over one denominator.  A tridiagonal production matrix
is equivalent to the generating form
``e^{xy} (alpha + beta x + y (1 + gamma x + delta x^2))`` and is returned
as :class:`JacobiParams`, the data of a monic three-term recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .riordan import ExpRiordan, TriMatrix, solve_lower
from .series import Series, _Frozen, _revert_compose, _scaled, log_series

__all__ = [
    "ZAPair",
    "JacobiParams",
    "production_definitional",
    "za_sequences",
    "production_analytic",
    "tridiagonal_params",
]


class ZAPair(_Frozen):
    """The A- and Z-sequences of an array, as ordinary-coefficient series."""

    __slots__ = ("z", "a")

    def __init__(self, z: Series, a: Series) -> None:
        if a[0] != 1:
            raise ValueError("the A-sequence must start with 1")
        self._set_fields(z, a)


class JacobiParams(_Frozen):
    """Tridiagonal production data (alpha, beta, gamma, delta).

    Diagonal entries are ``b_k = alpha + k*gamma`` and subdiagonal entries
    ``lambda_k = k*beta + k(k-1)*delta``; the same numbers feed the monic
    recurrence P_n = (x - b_{n-1}) P_{n-1} - lambda_{n-1} P_{n-2}.
    """

    __slots__ = ("alpha", "beta", "gamma", "delta")

    def __init__(self, alpha: Fraction, beta: Fraction, gamma: Fraction, delta: Fraction) -> None:
        self._set_fields(Fraction(alpha), Fraction(beta), Fraction(gamma), Fraction(delta))

    def diagonal(self, k: int) -> Fraction:
        return self.alpha + k * self.gamma

    def subdiagonal(self, k: int) -> Fraction:
        return k * self.beta + k * (k - 1) * self.delta


def production_definitional(arr: ExpRiordan) -> TriMatrix:
    """P with M . P = U . M for the realized matrix M, leading N-by-N block.

    Only rows 0..N-1 of P are determined by an order-N array, so the block
    has dim N (one less than the matrix): it solves M[:N,:N] . P = M[1:N+1,:N]
    by forward substitution.
    """
    m = arr.matrix
    n = m.dim - 1
    return TriMatrix._trusted(solve_lower(m.leading(n), tuple(row[:n] for row in m.rows[1:])))


def za_sequences(g: Series, f: Series) -> ZAPair:
    """A = f'(fbar) and Z = (log g)'(fbar) = g'(fbar)/g(fbar), of order N-1."""
    g._require_same_order(f)
    if f.order < 1 or not g[0]:  # no f' at order 0, no Z at g_0 = 0; reversion's errors first
        f.revert()
        raise ZeroDivisionError("division by a series with zero constant term")
    _, (a, z) = _revert_compose(f, f.derive(), log_series(g / g[0]).derive())
    return ZAPair(z=z, a=a)


def production_analytic(za: ZAPair, dim: int) -> TriMatrix:
    """The dim-by-dim block of the matrix with generating form e^{xy}(Z + yA)."""
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if dim - 1 > min(za.z.order, za.a.order):
        raise ValueError(
            f"dim {dim} needs z to order {dim - 1} and a to order {dim - 1}, "
            f"have {za.z.order} and {za.a.order}"
        )
    # P[i][k] = (i!/k!) (z_(i-k) + k a_(i-k+1)) on the integers of Z and A
    # over one denominator, and the superdiagonal is a_0.  a_dim appears only
    # in column 0, times k = 0, so a is read through a_(dim-1) and padded.
    nums, d = _scaled((*za.z.coeffs[:dim], *za.a.coeffs[:dim]), 2 * dim - 1)
    zn, an = nums[:dim], nums[dim:] + [0]
    facts = [factorial(i) for i in range(dim)]
    zero = Fraction(0)
    rows = []
    for i in range(dim):
        row = [zero] * dim
        for k in range(i + 1):
            v = zn[i - k] + k * an[i - k + 1]
            if v:
                row[k] = Fraction(facts[i] // facts[k] * v, d)
        if i + 1 < dim:
            row[i + 1] = za.a[0]
        rows.append(row)
    return TriMatrix._trusted(rows)


def tridiagonal_params(p: TriMatrix) -> JacobiParams | None:
    """Extract (alpha, beta, gamma, delta) when P fits the tridiagonal form.

    alpha = P[0][0], beta = P[1][0], gamma = P[1][1] - alpha,
    delta = P[2][1]/2 - beta; every row of P is then re-checked against
    the b_k / lambda_k formulas, 1 on the superdiagonal and 0 elsewhere, and
    any mismatch yields None.
    """
    if p.dim < 3:
        raise ValueError("need at least a 3x3 block to extract parameters")
    alpha = p.entry(0, 0)
    beta = p.entry(1, 0)
    gamma = p.entry(1, 1) - alpha
    delta = p.entry(2, 1) / 2 - beta
    params = JacobiParams(alpha, beta, gamma, delta)
    # Above the superdiagonal, TriMatrix's band check already holds.
    for n, row in enumerate(p.rows):
        if row[n] != params.diagonal(n) or any(row[: max(n - 1, 0)]):
            return None
        if n > 0 and row[n - 1] != params.subdiagonal(n):
            return None
        if n + 1 < p.dim and row[n + 1] != 1:
            return None
    return params
