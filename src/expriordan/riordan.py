"""Exponential Riordan arrays and exact triangular matrix algebra.

The array ``[g, f]`` built from series g (g(0)=1) and f (f(0)=0, f'(0)=1)
has entries ``t[n][k] = (n!/k!) [x^n] g(x) f(x)^k``: column k holds the EGF
coefficients of g f^k / k!, row k of the divided-power table of
``series._powers``, integers for integer EGF input.  Arrays carry both the
generating pair and the realized matrix; the group law is computed on the
series side, and ``mat_mul`` of the realized matrices is the check that the
tests and the benchmark run.

The matrix routines run on integer rows, as the series kernels do: each row
becomes integer numerators over one denominator, a sum of rows times
coefficients is one integer loop over the lcm of their denominators, and a
Fraction is built once per output entry.  ``solve_lower`` is the only
triangular solver; ``mat_inverse`` and the definitional production route
call it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .series import Series, _compose, _content_removed, _Frozen, _powers, _revert_compose, _scaled

__all__ = [
    "TriMatrix",
    "ExpRiordan",
    "identity_matrix",
    "from_rows",
    "mat_mul",
    "mat_inverse",
    "solve_lower",
    "build",
    "multiply",
    "inverse",
    "row_polynomials",
    "matrix_to_json",
    "format_polynomial",
]


class TriMatrix(_Frozen):
    """Dense square matrix of rationals, zero above the first superdiagonal.

    Covers both lower-triangular matrices (arrays, coefficient triangles)
    and lower-Hessenberg ones (production matrices).
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[object]]) -> None:
        rows = tuple(
            tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in rows
        )
        dim = len(rows)
        if dim == 0 or any(len(row) != dim for row in rows):
            raise ValueError("matrix must be square and non-empty")
        for i, row in enumerate(rows):
            if any(row[i + 2 :]):
                raise ValueError(f"row {i} has entries above the superdiagonal")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, rows: Sequence[Sequence[Fraction]]) -> "TriMatrix":
        """A matrix from rows the library built: square, non-empty, Fractions
        only and zero above the superdiagonal, so nothing is re-checked."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", tuple(map(tuple, rows)))
        return m

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    __hash__ = None  # type: ignore[assignment]

    def leading(self, k: int) -> "TriMatrix":
        """The leading k-by-k block."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"block size {k} out of range for dim {self.dim}")
        return TriMatrix._trusted([row[:k] for row in self.rows[:k]])

    def is_lower_triangular(self) -> bool:
        return all(self.rows[i][i + 1] == 0 for i in range(self.dim - 1))

    def render_text(self) -> str:
        cells = [[str(v) for v in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.dim)) for j in range(self.dim)]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
        )

    def __repr__(self) -> str:
        return f"TriMatrix(dim={self.dim})"


def from_rows(rows: Sequence[Sequence[object]]) -> TriMatrix:
    """Build from ragged lower-triangle rows (short rows are zero-padded)."""
    zero = Fraction(0)
    return TriMatrix(tuple(tuple(row) + (zero,) * (len(rows) - len(row)) for row in rows))


def identity_matrix(dim: int) -> TriMatrix:
    zero, one = Fraction(0), Fraction(1)
    return from_rows([[zero] * i + [one] for i in range(dim)])


def _int_rows(m: TriMatrix) -> list[tuple[list[int], int]]:
    """Each row through the superdiagonal as integer numerators over one
    denominator.  The entries are normalized, so the rows are content-free."""
    last = m.dim - 1
    return [_scaled(row, min(i + 1, last)) for i, row in enumerate(m.rows)]


def _combine(terms: list[tuple[int, tuple[list[int], int]]], width: int) -> tuple[list[int], int]:
    """sum_t c_t * r_t / d_t for integers c_t and integer rows r_t over d_t,
    each at most ``width`` long, as integer numerators over m = lcm(d_t)."""
    m = lcm(*(d for _, (_, d) in terms))
    out = [0] * width
    for c, (r, d) in terms:
        s = c * (m // d)
        for j, v in enumerate(r):
            if v:
                out[j] += s * v
    return out, m


def _fractions(r: list[int], d: int, width: int) -> tuple[Fraction, ...]:
    """The row r / d as Fractions, zero-padded to ``width``; d > 0."""
    zero = Fraction(0)
    return (*(Fraction(v, d) if v else zero for v in r), *(zero,) * (width - len(r)))


def mat_mul(a: TriMatrix, b: TriMatrix) -> TriMatrix:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    dim = a.dim
    b_rows = _int_rows(b)
    rows = []
    for an, ad in _int_rows(a):
        # row i of a . b = sum_k (an_k / ad) b_k
        r, m = _combine([(c, b_rows[k]) for k, c in enumerate(an) if c], dim)
        rows.append(_fractions(r, m * ad, dim))
    return TriMatrix(rows)  # checked: a product of Hessenberg matrices can leave the band


def solve_lower(
    a: TriMatrix, b: Sequence[Sequence[Fraction]]
) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of X with a . X = b, by forward substitution on integer rows.

    ``a`` is lower-triangular with a nonzero diagonal; ``b`` has one row per
    row of ``a``, all of one width and zero beyond the first superdiagonal,
    and so has X.  Each row of X is kept as integer numerators over its own
    denominator, content removed, and becomes Fractions once, at the end.
    """
    if not a.is_lower_triangular():
        raise ValueError("forward substitution requires a lower-triangular matrix")
    dim = a.dim
    if any(a.rows[i][i] == 0 for i in range(dim)):
        raise ValueError("matrix has a zero diagonal entry")
    if len(b) != dim:
        raise ValueError(f"right-hand side has {len(b)} rows, need {dim}")
    width = len(b[0])
    for i, row in enumerate(b):
        if len(row) != width or any(row[i + 2 :]):
            raise ValueError(
                f"right-hand side row {i} is ragged or has entries above the superdiagonal"
            )
    xs: list[tuple[list[int], int]] = []
    for i, arow in enumerate(a.rows):
        # With a's row an / ad, x_i = (b_i - sum_{k<i} a_ik x_k) / a_ii is
        # (ad b_i - sum_k an_k x_k) / an_i: one combination over lcm(bd, xd_k).
        an, ad = _scaled(arow, i)
        terms = [(ad, _scaled(b[i], min(i + 1, width - 1)))]
        terms += [(-c, xs[k]) for k, c in enumerate(an[:i]) if c]
        r, m = _combine(terms, min(i + 2, width))
        d = m * an[i]
        if d < 0:
            r, d = [-v for v in r], -d
        xs.append(_content_removed(r, d))
    return tuple(_fractions(r, d, width) for r, d in xs)


def mat_inverse(a: TriMatrix) -> TriMatrix:
    """Exact inverse of a lower-triangular matrix with nonzero diagonal."""
    return TriMatrix._trusted(solve_lower(a, identity_matrix(a.dim).rows))


# ---------------------------------------------------------------------------
# exponential Riordan arrays
# ---------------------------------------------------------------------------


class ExpRiordan(_Frozen):
    """An exponential Riordan array: the pair (g, f) plus its matrix."""

    __slots__ = ("g", "f", "matrix")

    def __init__(self, g: Series, f: Series, matrix: TriMatrix) -> None:
        self._set_fields(g, f, matrix)

    @property
    def order(self) -> int:
        return self.g.order

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ExpRiordan(order={self.order})"


def build(g: Series, f: Series) -> ExpRiordan:
    """Realize [g, f]; requires g(0)=1, f(0)=0, f'(0)=1 and equal orders."""
    g._require_same_order(f)
    if g[0] != 1:
        raise ValueError("g must have constant term 1")
    if f[0] != 0:
        raise ValueError("f must have constant term 0")
    if f.order < 1 or f[1] != 1:
        raise ValueError("f must have linear coefficient 1")
    return ExpRiordan(g=g, f=f, matrix=TriMatrix._trusted(_realize(g.coeffs, f.coeffs, g.order)))


def _realize(g: Sequence[Fraction], f: Sequence[Fraction], n: int) -> list[list[Fraction]]:
    """Rows of the (n+1)-square block t[i][k]: column k is row k of the
    divided-power table, each term x^i over the table's scale d^i."""
    zero = Fraction(0)
    rows = [[zero] * (n + 1) for _ in range(n + 1)]
    s, d, table = _powers(g, f, n)
    scale = [d**i for i in range(n + 1)]
    for k, r in enumerate(table):
        # row k of the table holds the terms of x^i for i = k, k + s, ...
        for i, v in zip(range(k, n + 1, s), r):
            rows[i][k] = Fraction(v) if d == 1 else Fraction(v, scale[i])
    return rows


def multiply(a: ExpRiordan, b: ExpRiordan) -> ExpRiordan:
    """Group law: [g, f] . [u, v] = [g * u(f), v(f)]."""
    a.g._require_same_order(b.g)
    n = a.order
    table = _powers([1], a.f.coeffs, n)  # one power table for both compositions
    u, v = (Series(tuple(_compose(s.coeffs, table, n))) for s in (b.g, b.f))
    return build(a.g * u, v)


def inverse(a: ExpRiordan) -> ExpRiordan:
    """Group inverse: [1/g(fbar), fbar] with fbar the compositional inverse."""
    fbar, (g_fbar,) = _revert_compose(a.f, a.g)
    return build(1 / g_fbar, fbar)


def row_polynomials(a: ExpRiordan) -> tuple[tuple[Fraction, ...], ...]:
    """The polynomials obtained by applying the array to (1, x, x^2, ...)^T:
    row n holds the ascending coefficients of p_n(x) = sum_k c[n][k] x^k."""
    return tuple(tuple(a.matrix.rows[n][: n + 1]) for n in range(a.matrix.dim))


def format_polynomial(coeffs: Sequence[Fraction]) -> str:
    """Render ascending coefficients as a descending-power polynomial in x."""
    terms: list[tuple[Fraction, int]] = [
        (c, k) for k, c in enumerate(coeffs) if c != 0
    ]
    if not terms:
        return "0"
    parts: list[str] = []
    for c, k in reversed(terms):
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            if mag == 1:
                body = xs
            elif mag.denominator == 1:
                body = f"{mag}{xs}"
            else:
                body = f"({mag}){xs}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def matrix_to_json(m: TriMatrix, name: str = "matrix") -> dict:
    """JSON-ready form: {name, order, rows} with rationals as strings."""
    return {
        "name": name,
        "order": m.dim - 1,
        "rows": [[str(v) for v in row] for row in m.rows],
    }
