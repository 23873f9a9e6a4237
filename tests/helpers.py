"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the implementation paths it
checks: reversion is cross-checked by Lagrange inversion over schoolbook
products; series division and the catalog's tan, sec, tanh and sech by
schoolbook long division over Fractions, where the library runs long
division on integer OGF numerators and the catalog the EGF quotient; exp
by the ordinary-coefficient recurrence and log by long division and
integration, where the library runs both on one integer recurrence in EGF
coordinates; arrays, composition and the analytic production matrix by
schoolbook loops over Fractions rather than the library's table of series
powers; the (Z, A) pair by its definition, over Lagrange inversion,
schoolbook composition and long division; the derivative subgroup's
production matrix by its closed form U . [1/fbar', x]
(``derivative_closed_production``), built from those schoolbook pieces
alone; moments by the Jacobi-matrix recurrence; Hankel determinants by
Gaussian elimination over Fractions; J-fraction coefficients by determinant
ratios and by peeling one level per series division; J-fraction expansions
by one schoolbook long division per level, where the library makes one
integer long division of a convergent's two rows; matrix products,
triangular solves and matrix powers by schoolbook products; and so on.  The catalog's f and the
inverse side's (Z, A) are stated in closed forms other than the ones the
catalog computes.  The derivative-subgroup and checkerboard predicates and
the reader of the CLI's JSON matrices live here too, since only the tests
ask those questions.  The identity suites at the end are not oracles: they
check factorizations of catalog arrays through the library's own group law
and production routes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from expriordan import catalog
from expriordan.orthopoly import Recurrence
from expriordan.production import JacobiParams, ZAPair, production_definitional, tridiagonal_params
from expriordan.riordan import ExpRiordan, TriMatrix, build, from_rows, multiply
from expriordan.series import Series, exp_series, one, pow_rational, series, x


def lagrange_revert(f: Series) -> Series:
    """Compositional inverse by Lagrange inversion:
    [x^n] fbar = (1/n) [x^{n-1}] (x/f(x))^n, with x/f by long division and
    its powers by the schoolbook product."""
    n = f.order
    assert f[0] == 0 and f[1] != 0
    w = div_by_long_division(one(n - 1), Series(f.coeffs[1:]))  # (x/f), order n-1
    out = [Fraction(0)] * (n + 1)
    p = one(n - 1)
    for m in range(1, n + 1):
        p = naive_mul(p, w)
        out[m] = p[m - 1] / m
    return Series(tuple(out))


def div_by_long_division(a: Series, b: Series) -> Series:
    """a/b for b_0 != 0 by schoolbook long division over Fractions,
    q_k = (a_k - sum_{j<k} q_j b_{k-j}) / b_0."""
    n = a.order
    assert b.order == n and b[0] != 0
    q: list[Fraction] = []
    for k in range(n + 1):
        q.append((a[k] - sum((q[j] * b[k - j] for j in range(k)), Fraction(0))) / b[0])
    return Series(tuple(q))


def exp_by_ogf_recurrence(u: Series) -> Series:
    """exp(u) for u_0 = 0 from E' = u'E in ordinary coefficients,
    e_k = (1/k) sum_j j u_j e_{k-j}, over Fractions."""
    n = u.order
    e = [Fraction(0)] * (n + 1)
    e[0] = Fraction(1)
    for k in range(1, n + 1):
        s = Fraction(0)
        for j in range(1, min(k, len(u.coeffs) - 1) + 1):
            if u[j]:
                s += j * u[j] * e[k - j]
        e[k] = s / k
    return Series(tuple(e))


def log_by_integration(s: Series) -> Series:
    """log(s) for s_0 = 1 as the integral of s'/s, the quotient by schoolbook
    long division over Fractions."""
    n = s.order
    ds = [k * s[k] for k in range(1, n + 1)]
    q: list[Fraction] = []
    for k in range(n):
        q.append(ds[k] - sum((q[j] * s[k - j] for j in range(k)), Fraction(0)))
    return Series((Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(q)))


def naive_mul(a: Series, b: Series) -> Series:
    """Truncated product by the schoolbook double loop over Fractions."""
    return Series(tuple(_naive_product(a.coeffs, b.coeffs, a.order)))


def naive_compose(outer: Series, inner: Series) -> Series:
    """sum_k outer_k inner^k, with the powers built by the same double loop."""
    n = outer.order
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for ck in outer.coeffs:
        out = [o + ck * p for o, p in zip(out, power)]
        power = _naive_product(power, inner.coeffs, n)
    return Series(tuple(out))


def naive_build(g: Series, f: Series) -> list[list[Fraction]]:
    """Rows of the array [g, f], t[n][k] = (n!/k!) [x^n] g f^k, with g f^k
    built by the same double loop."""
    n = g.order
    rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    power = list(g.coeffs)
    for k in range(n + 1):
        for i in range(k, n + 1):
            rows[i][k] = factorial(i) // factorial(k) * power[i]
        power = _naive_product(power, f.coeffs, n)
    return rows


def _naive_product(a, b, n: int) -> list[Fraction]:
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def naive_mat_mul(a, b) -> list[list[Fraction]]:
    """Product of two matrices given as lists of rows, by the schoolbook
    loop over Fractions; ``b`` may be rectangular."""
    out = []
    for arow in a:
        out.append(
            [
                sum((Fraction(arow[k]) * b[k][j] for k in range(len(b))), Fraction(0))
                for j in range(len(b[0]))
            ]
        )
    return out


def euler_numbers(n_max: int) -> list[Fraction]:
    """E_0, E_1, ..., E_{n_max} from sum_k C(2n, 2k) E_{2k} = 0 (n >= 1)."""
    e = [Fraction(0)] * (n_max + 1)
    e[0] = Fraction(1)
    for m in range(2, n_max + 1, 2):
        e[m] = -sum(comb(m, j) * e[j] for j in range(0, m, 2))
    return e


def egf_convolution(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """EGF product: c_n = sum_j C(n, j) a_j b_{n-j}."""
    n = min(len(a), len(b)) - 1
    return [
        sum(comb(m, j) * a[j] * b[m - j] for j in range(m + 1)) for m in range(n + 1)
    ]


def moments_by_jacobi_recurrence(rec: Recurrence, n: int) -> tuple[Fraction, ...]:
    """First column of the moment matrix grown row by row from
    M[m+1][k] = M[m][k-1] + b_k M[m][k] + lambda_{k+1} M[m][k+1]."""
    row = [Fraction(1)] + [Fraction(0)] * n
    first = [Fraction(1)]
    for _ in range(n):
        nxt = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            v = row[k - 1] if k >= 1 else Fraction(0)
            if k < len(rec.b):
                v += rec.b[k] * row[k]
            if k < len(rec.lam) and k + 1 <= n:
                v += rec.lam[k] * row[k + 1]
            nxt[k] = v
        row = nxt
        first.append(row[0])
    return tuple(first)


def cf_to_ogf_by_levels(rec: Recurrence, order: int, depth: int | None = None) -> Series:
    """Order-``order`` truncation of the J-fraction
    1 / (1 - b_0 x - lambda_1 x^2 / (1 - ...)), one schoolbook long
    division per level from the innermost tail 1 outwards; needs order >= 2."""
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
        tail = div_by_long_division(one(order), den)
    return tail


def power_first_row(p, n: int) -> tuple[Fraction, ...]:
    """First row of P^n by the schoolbook row-times-matrix loop over
    Fractions; exact for n <= dim-1 (band growth stays inside)."""
    row = [Fraction(1)] + [Fraction(0)] * (p.dim - 1)
    for _ in range(n):
        row = [
            sum((row[k] * p.rows[k][j] for k in range(p.dim)), Fraction(0))
            for j in range(p.dim)
        ]
    return tuple(row)


def hankel_det(seq, n: int) -> Fraction:
    """det of (m_{i+j})_{0<=i,j<=n} by Gaussian elimination over Fractions."""
    return _det([[Fraction(seq[i + j]) for j in range(n + 1)] for i in range(n + 1)])


def shifted_hankel(seq, n: int) -> Fraction:
    """det of (m_{i+j}) with the last column replaced by m_{i+n+1}."""
    size = n + 1
    a = [
        [Fraction(seq[i + j]) if j < n else Fraction(seq[i + n + 1]) for j in range(size)]
        for i in range(size)
    ]
    return _det(a)


def _det(a: list[list[Fraction]]) -> Fraction:
    n = len(a)
    a = [row[:] for row in a]
    sign = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            if factor:
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    out = Fraction(sign)
    for k in range(n):
        out *= a[k][k]
    return out


def jfraction_by_determinants(seq, depth: int) -> Recurrence:
    """b_n and lambda_n from Hankel determinant ratios:
    lambda_n = h_n h_{n-2} / h_{n-1}^2,  b_n = e_n - e_{n-1} with
    e_n the ratio of the column-shifted determinant to h_n.
    Valid while the leading determinants stay nonzero."""
    h = [hankel_det(seq, n) for n in range(depth + 1)]
    lam = []
    for n in range(1, depth + 1):
        below = h[n - 2] if n >= 2 else Fraction(1)
        lam.append(h[n] * below / h[n - 1] ** 2)
    b = []
    prev_e = Fraction(0)
    for n in range(depth):
        e_n = shifted_hankel(seq, n) / h[n]
        b.append(e_n - prev_e)
        prev_e = e_n
    return Recurrence(b=tuple(b), lam=tuple(lam))


def jfraction_by_levels(m, depth: int) -> Recurrence:
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


def production_analytic_by_entries(za: ZAPair, dim: int) -> TriMatrix:
    """P[n][k] = (n!/k!) z_{n-k} + (n!/(k-1)!) a_{n-k+1}, entry by entry."""
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if dim - 1 > za.z.order or dim - 1 > za.a.order:
        raise ValueError(
            f"dim {dim} needs z to order {dim - 1} and a to order {dim - 1}, "
            f"have {za.z.order} and {za.a.order}"
        )
    facts = [factorial(i) for i in range(dim)]
    rows = []
    for n in range(dim):
        row = [Fraction(0)] * dim
        for k in range(min(n + 1, dim - 1) + 1):
            v = Fraction(0)
            if 0 <= n - k <= za.z.order:
                v += facts[n] // facts[k] * za.z[n - k]
            if k >= 1 and 0 <= n - k + 1 <= za.a.order:
                v += facts[n] // facts[k - 1] * za.a[n - k + 1]
            row[k] = v
        rows.append(tuple(row))
    return TriMatrix(tuple(rows))


def za_by_definition(g: Series, f: Series) -> ZAPair:
    """A = 1/fbar' = f'(fbar) and Z = g'(fbar)/g(fbar) at order N-1, with
    fbar by Lagrange inversion, each composition by ``naive_compose`` and
    each quotient by ``div_by_long_division``.  The library composes f'
    instead of dividing, so A here is the other side of the identity."""
    n = f.order
    fbar = lagrange_revert(f)
    a = div_by_long_division(one(n - 1), fbar.derive())
    fbar = fbar.truncate(n - 1)
    z = div_by_long_division(
        naive_compose(g.derive(), fbar), naive_compose(g.truncate(n - 1), fbar)
    )
    return ZAPair(z=z, a=a)


def derivative_closed_production(f: Series) -> TriMatrix:
    """The production matrix of [f', f] in closed form, U . [1/fbar', x]
    (U the shift), as its leading (N-1)-square block: rows 1..N-1 of the
    array [A, x], A = 1/fbar' = f'(fbar), with fbar by Lagrange inversion,
    A by long division and the array by ``naive_build``."""
    n = f.order
    a = div_by_long_division(one(n - 1), lagrange_revert(f).derive())
    return TriMatrix(tuple(row[: n - 1] for row in naive_build(a, x(n - 1))[1:]))


def agrees_to(s: Series, t: Series, n: int) -> bool:
    """True when both jets reach order n and agree through x^n; a ValueError
    from ``truncate`` when one of them stops short of x^n."""
    return s.truncate(n) == t.truncate(n)


def column(m: TriMatrix, j: int) -> tuple[Fraction, ...]:
    """Column j of m, top to bottom."""
    return tuple(row[j] for row in m.rows)


def is_derivative_subgroup(a: ExpRiordan) -> bool:
    """True when g equals f' exactly to order N-1."""
    fp = a.f.derive()
    return agrees_to(fp, a.g, fp.order)


def is_checkerboard(a: ExpRiordan) -> bool:
    """True when g is even and f is odd to order N."""
    return not any(a.g.coeffs[1::2]) and not any(a.f.coeffs[0::2])


def matrix_from_json(obj: dict) -> tuple[str, TriMatrix]:
    """The (name, matrix) of ``matrix_to_json``'s output; the order field
    must match the row count."""
    m = TriMatrix(tuple(tuple(Fraction(v) for v in row) for row in obj["rows"]))
    if m.dim - 1 != obj["order"]:
        raise ValueError("order field disagrees with row count")
    return obj.get("name", "matrix"), m


# -- the f of each catalog pair, and the inverse side's (Z, A) --------------

# The two entries that are not sigmoids: cos_sin lies in the derivative
# subgroup, pascal = [e^x, x] does not.
NON_SIGMOID_IDS = ("cos_sin", "pascal")


def arctan_series(order: int) -> Series:
    return Series(tuple(Fraction((-1) ** (k // 2), k) if k % 2 else 0 for k in range(order + 1)))


def gd_series(order: int) -> Series:
    """Gudermannian gd(x) = arctan(sinh(x))."""
    return arctan_series(order).compose(catalog.sinh_series(order))


def erf_integral_series(order: int) -> Series:
    """int_0^x exp(-t^2) dt = (sqrt(pi)/2) erf(x)."""
    return Series(
        tuple(
            Fraction((-1) ** (k // 2), factorial(k // 2) * k) if k % 2 else 0
            for k in range(order + 1)
        )
    )


def _poly(coeffs: list[int], order: int) -> Series:
    return series(coeffs[: order + 1], order=order)


# None of these takes f as the integral of g, which is how the catalog builds it.
STATED_F = {
    "tanh": catalog.tanh_series,
    "tanh2": lambda n: catalog.tanh_series(n).scale_argument(2) / 2,
    "arctan": arctan_series,
    "algebraic": lambda n: pow_rational(_poly([1, 0, 1], n), "-1/2").times_x(),
    "quartic": lambda n: pow_rational(_poly([1, 0, 0, 0, 1], n), "-1/4").times_x(),
    "gudermann": gd_series,  # arctan(sinh(x))
    "erf": erf_integral_series,
    "gompertz": lambda n: exp_series(1 - catalog.expx_series(n, scale=-1)) - 1,
    "cos_sin": catalog.sin_series,
    "pascal": x,
}

# (Z, A) of the production matrix of each inverse array that has them in
# closed form, as (z, a) builders.
STATED_INVERSE_ZA = {
    "arctan": (lambda n: _poly([0, 2], n), lambda n: _poly([1, 0, 1], n)),
    "algebraic": (
        lambda n: 3 * pow_rational(_poly([1, 0, 1], n), Fraction(1, 2)).times_x(),
        lambda n: pow_rational(_poly([1, 0, 1], n), Fraction(3, 2)),
    ),
    "quartic": (
        lambda n: 5
        * pow_rational(_poly([1, 0, 0, 0, 1], n), Fraction(1, 4))
        .times_x()
        .times_x()
        .times_x(),
        lambda n: pow_rational(_poly([1, 0, 0, 0, 1], n), Fraction(5, 4)),
    ),
    "gudermann": (catalog.sinh_series, catalog.cosh_series),
    "cos_sin": (
        lambda n: catalog.sec_series(n) * catalog.tan_series(n),
        catalog.sec_series,
    ),
}


def inverse_za_closed_form(entry_id: str, order: int) -> ZAPair | None:
    """The stated (Z, A) series of the inverse array's production matrix, or
    None."""
    if entry_id not in STATED_INVERSE_ZA:
        return None
    z, a = STATED_INVERSE_ZA[entry_id]
    return ZAPair(z=z(order), a=a(order))


def random_riordan_pair(rng: random.Random, order: int) -> ExpRiordan:
    """A valid random array from small-coefficient polynomial g and f."""
    g = [Fraction(1)] + [
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order)
    ]
    f = [Fraction(0), Fraction(1)] + [
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order - 1)
    ]
    return build(series(g), series(f))


# -- closed-form Hankel products for the cataloged sequences ----------------

HANKEL_FORMULA_IDS = ("sech2", "tanh", "sec2_moments")


def hankel_formula(kind: str, n: int) -> Fraction:
    """The closed-form h_n of the named sequence (see HANKEL_FORMULA_IDS)."""
    if kind == "sech2":
        prod = Fraction(1)
        for k in range(n + 1):
            prod *= Fraction((k + 2) * (1 - (k + 2))) ** (n - k)
        return prod
    if kind == "sec2_moments":
        prod = Fraction(1)
        for k in range(n + 1):
            prod *= Fraction((k + 1) * (k + 2)) ** (n - k)
        return prod
    if kind == "tanh":
        parity = Fraction(1 - (-1) ** n, 2)
        if parity == 0:
            return Fraction(0)
        prod = Fraction(1)
        for k in range(n + 1):
            prod *= Fraction(factorial(k)) ** 2
        return prod * Fraction(-1) ** ((n + 1) // 2)
    raise ValueError(f"unknown Hankel formula id: {kind!r}")


def _formula_sequence(kind: str, order: int) -> tuple[Fraction, ...]:
    if kind == "sech2":
        return catalog.pair("tanh", order)[0].egf()
    if kind == "tanh":
        return catalog.pair("tanh", order)[1].egf()
    if kind == "sec2_moments":
        g_inv, _ = catalog.inverse_pair("arctan", order)
        return g_inv.egf()
    raise ValueError(f"unknown Hankel formula id: {kind!r}")


def hankel_formula_check(kind: str, n_max: int) -> bool:
    """Compare the closed product formula with the exact determinants."""
    seq = _formula_sequence(kind, 2 * n_max)
    return all(hankel_formula(kind, n) == hankel_det(seq, n) for n in range(n_max + 1))


# -- Stirling set numbers and the identity suites ----------------------------


@lru_cache(maxsize=None)
def stirling2(n: int) -> TriMatrix:
    """Triangle of Stirling set numbers S2(n, k), built from the recurrence
    S2(n, k) = S2(n-1, k-1) + k*S2(n-1, k)."""
    rows: list[list[Fraction]] = [[Fraction(1)]]
    for m in range(1, n + 1):
        prev = rows[-1]
        row = [Fraction(0)] * (m + 1)
        for k in range(m + 1):
            v = Fraction(0)
            if 1 <= k <= m:
                v += prev[k - 1]
            if k <= m - 1:
                v += k * prev[k]
            row[k] = v
        rows.append(row)
    return from_rows(rows)


def _s2(tri: TriMatrix, n: int, k: int) -> Fraction:
    return tri.entry(n, k) if 0 <= k <= n else Fraction(0)


def gompertz_identities(n: int) -> bool:
    """Check, entry-wise and exactly up to row n:

    * the factorization through the moment array and the set-number triangle,
    * the factorization into the two signed set-number arrays,
    * the double-sum expression of each entry in Stirling set numbers,
    * the alternating-sum expression of the first column.
    """
    gom = build(*catalog.pair("gompertz", n))
    e_x, e_minus_x = catalog.expx_series(n), catalog.expx_series(n, scale=-1)
    u = 1 - e_minus_x  # 1 - e^{-x}
    moment_arr = build(catalog.entry("gompertz").g_series(n), u)
    stirling_arr = build(one(n), e_x - 1)
    if multiply(moment_arr, stirling_arr) != gom:
        return False
    left = build(e_minus_x, u)
    right = build(e_x, e_x - 1)
    if multiply(left, right) != gom:
        return False
    tri = stirling2(n + 1)
    for i in range(n + 1):
        for k in range(i + 1):
            total = sum(
                _s2(tri, i + 1, j + 1) * (-1) ** (i - j) * _s2(tri, j + 1, k + 1)
                for j in range(i + 1)
            )
            if total != gom.matrix.entry(i, k):
                return False
        col = sum(_s2(tri, i + 1, j + 1) * (-1) ** (i - j) for j in range(i + 1))
        if col != gom.matrix.entry(i, 0):
            return False
    return True


def gudermann_identities(order: int) -> bool:
    """[sech, gd] = [sech, tanh] . [1, arcsin], and [sech, tanh] is the
    moment array of the family with b_k = 0, lambda_k = -k^2."""
    gud = build(*catalog.pair("gudermann", order))
    moment_arr = build(catalog.sech_series(order), catalog.tanh_series(order))
    if multiply(moment_arr, build(one(order), catalog.arcsin_series(order))) != gud:
        return False
    params = tridiagonal_params(production_definitional(moment_arr))
    if params != JacobiParams(0, -1, 0, -1):
        return False
    return all(params.subdiagonal(k) == -k * k for k in range(order))


def erf_identity(order: int) -> bool:
    """[exp(-x^2), F] = [exp(-x^2), x] . [1, F] for F = int_0^x exp(-t^2) dt,
    and [exp(-x^2), x] is the moment array of the family with
    b_k = 0, lambda_k = -2k."""
    erf_arr = build(*catalog.pair("erf", order))
    hermite_like = build(catalog.gauss_series(order), x(order))
    if multiply(hermite_like, build(one(order), erf_integral_series(order))) != erf_arr:
        return False
    params = tridiagonal_params(production_definitional(hermite_like))
    return params == JacobiParams(0, -2, 0, 0)
