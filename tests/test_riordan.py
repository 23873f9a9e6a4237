import json
import random
from fractions import Fraction as F
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import mixed_jets, mixed_rationals, sigmoid_like
from helpers import (
    div_by_long_division,
    gd_series,
    is_checkerboard,
    is_derivative_subgroup,
    lagrange_revert,
    matrix_from_json,
    naive_build,
    naive_compose,
    naive_mat_mul,
    naive_mul,
    random_riordan_pair,
)

from expriordan.catalog import (
    arcsin_series,
    expx_series,
    pair,
    sech_series,
    tanh_series,
)
from expriordan.riordan import (
    TriMatrix,
    build,
    format_polynomial,
    from_rows,
    identity_matrix,
    inverse,
    mat_inverse,
    mat_mul,
    matrix_to_json,
    multiply,
    row_polynomials,
    solve_lower,
)
from expriordan.series import Series, _powers, one, series, x


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------


@given(data=st.data(), order=st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_build_matches_naive_oracle(data, order):
    g, f = data.draw(mixed_jets(order, (F(1),))), data.draw(mixed_jets(order, (F(0), F(1))))
    if order == 0:
        with pytest.raises(ValueError, match="linear coefficient"):
            build(g, f)
        return
    assert [list(row) for row in build(g, f).matrix.rows] == naive_build(g, f)


# Planted strides of g and f/x; "x" makes f = x.  The power table works in
# y = x^s for s the gcd of the exponents it sees, which the mixed pairs and
# zero draws make differ from either planted stride.
_STRIDES = [(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (2, 1), (1, "x"), (2, "x"), (3, "x")]


@st.composite
def _strided_pair(draw, order: int):
    """(g, f, s): g(0) = 1 and f = x h with h(0) = 1, where g is a series in
    x^sg and h in x^sf, and s = gcd(sg, sf) (sg when f = x)."""
    sg, sf = draw(st.sampled_from(_STRIDES))

    def jet(n: int, stride: int) -> tuple:
        tail = (draw(mixed_rationals) if j % stride == 0 else F(0) for j in range(1, n + 1))
        return (F(1), *tail)

    g = Series(jet(order, sg))
    h = (F(1),) + (F(0),) * (order - 1) if sf == "x" else jet(order - 1, sf)
    return g, Series((F(0), *h)[: order + 1]), sg if sf == "x" else gcd(sg, sf)


@given(data=st.data(), order=st.integers(min_value=0, max_value=12))
@settings(max_examples=80, deadline=None)
def test_strided_power_tables_match_naive_oracles(data, order):
    (g, f, s), (u, v, _) = data.draw(_strided_pair(order)), data.draw(_strided_pair(order))
    found = _powers(g.coeffs, f.coeffs, order)[0]
    assert found % s == 0 or found == 1 and not any(g[1:]) and not any(f[2:])
    assert g.compose(f) == naive_compose(g, f)
    if order == 0:
        return
    a = build(g, f)
    assert [list(row) for row in a.matrix.rows] == naive_build(g, f)
    ab = multiply(a, build(u, v))
    assert (ab.g, ab.f) == (naive_mul(g, naive_compose(u, f)), naive_compose(v, f))
    fbar = lagrange_revert(f)
    assert f.revert() == fbar
    inv = inverse(a)
    assert (inv.g, inv.f) == (div_by_long_division(one(order), naive_compose(g, fbar)), fbar)


@st.composite
def _planted_pair(draw):
    """(g, f, s) over rational EGF coefficients: g(0) = 1 and f = x h with
    h(0) = 1, g a series in x^s and h in x^s, s = 1..4.  The EGF coefficient
    of x^s in g, of x^(1+s) in f, or both, is planted as u/D with D >= 2
    prime to u, so the EGF scale of that side is a multiple of D."""
    s = draw(st.integers(1, 4))
    order = draw(st.integers(s + 1, 10))
    den = draw(st.integers(2, 12))
    planted = draw(st.sampled_from([(s,), (1 + s,), (s, 1 + s)]))

    def side(head: tuple, exps: range) -> Series:
        egf = dict.fromkeys(range(order + 1), F(0))
        egf.update(enumerate(head))
        for e in exps:
            egf[e] = F(draw(st.integers(-9, 9)), draw(st.sampled_from([1, den])))
            if e in planted:
                u = draw(st.integers(1, 9).filter(lambda u: gcd(u, den) == 1))
                egf[e] = F(draw(st.sampled_from([u, -u])), den)
        return Series(c / factorial(e) for e, c in egf.items())

    g = side((F(1),), range(s, order + 1, s))
    return g, side((F(0), F(1)), range(1 + s, order + 1, s)), s


@given(gfs=_planted_pair(), uvs=_planted_pair(), r=mixed_rationals.filter(bool))
@settings(max_examples=80, deadline=None)
def test_rational_divided_power_tables_match_naive_oracles(gfs, uvs, r):
    # The divided-power table carries rational input as integer EGF rows
    # times the scale d^m; the oracles are OGF schoolbook code.
    (g, f, s), (u, v, _) = gfs, uvs
    n = g.order
    u, v = (Series(t.coeffs[: n + 1] + (F(0),) * (n - t.order)) for t in (u, v))
    found, d, _ = _powers(g.coeffs, f.coeffs, n)
    assert found % s == 0 and d > 1
    assert [list(row) for row in build(g, f).matrix.rows] == naive_build(g, f)
    assert g.compose(f) == naive_compose(g, f)
    assert u.compose(f) == naive_compose(u, f)
    ab = multiply(build(g, f), build(u, v))
    assert (ab.g, ab.f) == (naive_mul(g, naive_compose(u, f)), naive_compose(v, f))
    assert f.revert() == lagrange_revert(f)
    assert (f * r).revert() == lagrange_revert(f * r)


def test_pascal_triangle():
    arr = build(*pair("pascal", 8))
    for n in range(9):
        for k in range(9):
            assert arr.matrix.entry(n, k) == (comb(n, k) if k <= n else 0)


def test_cos_sin_rows():
    arr = build(*pair("cos_sin", 8))
    assert arr.matrix.rows[3][:4] == (0, -4, 0, 1)
    assert arr.matrix.rows[6][:7] == (-1, 0, 91, 0, -35, 0, 1)


def test_erf_rows():
    arr = build(*pair("erf", 8))
    assert arr.matrix.rows[3][:4] == (0, -8, 0, 1)
    assert arr.matrix.rows[6][:7] == (-120, 0, 532, 0, -70, 0, 1)


def test_build_validation():
    with pytest.raises(ValueError, match="constant term 1"):
        build(x(4) + 2, x(4))
    with pytest.raises(ValueError, match="constant term 0"):
        build(one(4), one(4))
    with pytest.raises(ValueError, match="linear coefficient 1"):
        build(one(4), series([0, 2], order=4))
    with pytest.raises(ValueError, match=r"^order mismatch: 4 != 5$"):
        build(one(4), x(5))


def test_multiply_rejects_mixed_orders():
    with pytest.raises(ValueError, match=r"^order mismatch: 4 != 5$"):
        multiply(build(one(4), x(4)), build(one(5), x(5)))


def test_unit_diagonal_invariant():
    for eid in ("tanh", "gompertz", "quartic"):
        m = build(*pair(eid, 8)).matrix
        assert all(m.entry(i, i) == 1 for i in range(m.dim))


# ---------------------------------------------------------------------------
# group law
# ---------------------------------------------------------------------------


def test_multiply_identity():
    a = build(*pair("tanh", 8))
    ident = build(one(8), x(8))
    assert multiply(a, ident) == a
    assert multiply(ident, a) == a


def test_sech_tanh_times_arcsin_is_gudermann():
    n = 10
    lhs = multiply(
        build(sech_series(n), tanh_series(n)), build(one(n), arcsin_series(n))
    )
    assert lhs == build(sech_series(n), gd_series(n))


def test_gompertz_factorizes_through_stirling_arrays():
    n = 10
    left = build(expx_series(n, scale=-1), 1 - expx_series(n, scale=-1))
    right = build(expx_series(n), expx_series(n) - 1)
    assert multiply(left, right) == build(*pair("gompertz", n))


def test_inverse_pascal():
    inv = inverse(build(*pair("pascal", 8)))
    for n in range(9):
        for k in range(n + 1):
            assert inv.matrix.entry(n, k) == (-1) ** (n - k) * comb(n, k)


def test_inverse_of_tanh_array():
    n = 10
    inv = inverse(build(*pair("tanh", n)))
    geom_x2 = Series(tuple(F(1) if k % 2 == 0 else F(0) for k in range(n + 1)))
    artanh = Series(
        tuple(F(1, k) if k % 2 else F(0) for k in range(n + 1))
    )
    assert inv == build(geom_x2, artanh)


def test_double_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(5):
        a = random_riordan_pair(rng, 7)
        assert inverse(inverse(a)) == a


@given(f=sigmoid_like(6), u=sigmoid_like(6))
@settings(max_examples=25, deadline=None)
def test_group_laws_random(f, u):
    a = build(1 + f.times_x(), f)  # any unit-constant g works; reuse f data
    b = build(1 + u.times_x(), u)
    n = a.order
    ident = build(one(n), x(n))
    assert multiply(a, inverse(a)) == ident
    assert multiply(inverse(a), a) == ident
    ab = multiply(a, b)
    assert mat_mul(a.matrix, b.matrix) == ab.matrix
    assert mat_inverse(a.matrix) == inverse(a).matrix


def test_associativity_random():
    rng = random.Random(11)
    for _ in range(10):
        a, b, c = (random_riordan_pair(rng, 6) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_derivative_subgroup_closure():
    rng = random.Random(3)
    n = 8
    members = [build(*pair(eid, n)) for eid in ("tanh", "cos_sin", "gompertz")]
    for _ in range(5):
        fp = [F(1)] + [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
        f = [F(0)] + [c / (k + 1) for k, c in enumerate(fp)]
        members.append(build(series(fp, order=n), series(f, order=n)))
    for a in members:
        assert is_derivative_subgroup(a)
        assert is_derivative_subgroup(inverse(a))
    for a, b in zip(members, members[1:]):
        assert is_derivative_subgroup(multiply(a, b))


def test_subgroup_predicates():
    cos_sin = build(*pair("cos_sin", 8))
    assert is_derivative_subgroup(cos_sin) and is_checkerboard(cos_sin)
    pascal = build(*pair("pascal", 8))
    assert not is_derivative_subgroup(pascal) and not is_checkerboard(pascal)
    gom = build(*pair("gompertz", 8))
    assert is_derivative_subgroup(gom) and not is_checkerboard(gom)


def test_checkerboard_zero_pattern():
    for eid in ("tanh", "arctan", "erf", "cos_sin"):
        m = build(*pair(eid, 9)).matrix
        for n in range(m.dim):
            for k in range(n + 1):
                if (n - k) % 2 == 1:
                    assert m.entry(n, k) == 0


# ---------------------------------------------------------------------------
# matrix algebra
# ---------------------------------------------------------------------------


def test_mat_inverse_identity():
    assert mat_inverse(identity_matrix(5)) == identity_matrix(5)


def test_binomial_times_signed_binomial_is_identity():
    a = build(*pair("pascal", 7)).matrix
    b = inverse(build(*pair("pascal", 7))).matrix
    assert mat_mul(a, b) == identity_matrix(8)


def test_mat_inverse_requires_triangular():
    hess = TriMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    with pytest.raises(ValueError, match="lower-triangular"):
        mat_inverse(hess)
    with pytest.raises(ValueError, match="lower-triangular"):
        solve_lower(hess, identity_matrix(4).rows)


def test_zero_diagonal_rejected():
    singular = from_rows([[1], [2, 0], [3, 4, 5]])
    with pytest.raises(ValueError, match="zero diagonal entry"):
        mat_inverse(singular)
    with pytest.raises(ValueError, match="zero diagonal entry"):
        solve_lower(singular, identity_matrix(3).rows)


def test_solve_lower_rejects_bad_right_hand_side():
    a = identity_matrix(3)
    with pytest.raises(ValueError, match="need 3"):
        solve_lower(a, ((1,), (0,)))
    with pytest.raises(ValueError, match="ragged"):
        solve_lower(a, ((1, 0), (0,), (0, 0)))
    with pytest.raises(ValueError, match="above the superdiagonal"):
        solve_lower(a, ((1, 0, 1), (0, 1, 0), (0, 0, 1)))


_entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _lower_systems(draw):
    """A lower-triangular a with nonzero, non-unit diagonal and a
    lower-Hessenberg b of width dim, or of width 1.  A row of a may be zero
    off the diagonal, and a row of b zero throughout."""
    dim = draw(st.integers(1, 8))
    diag = _entries.filter(lambda v: v not in (0, 1))

    def row(width, last):
        zero = draw(st.booleans())
        return [draw(_entries) if j <= last and not zero else F(0) for j in range(width)]

    a = [row(i, i) + [draw(diag)] + [F(0)] * (dim - i - 1) for i in range(dim)]
    width = draw(st.sampled_from((1, dim)))
    b = [row(width, i + 1) for i in range(dim)]
    return a, b


@given(_lower_systems())
@settings(max_examples=60, deadline=None)
def test_solve_lower_matches_naive_product(system):
    a, b = system
    xs = solve_lower(from_rows(a), b)
    assert naive_mat_mul(a, xs) == b
    for i, row in enumerate(xs):
        assert not any(row[i + 2 :])


@st.composite
def _band_rows(draw, dim, hessenberg):
    """A lower-triangular or lower-Hessenberg matrix whose entries are often
    zero or negative."""
    last = 1 if hessenberg else 0
    return [
        [draw(mixed_rationals) if j <= i + last else F(0) for j in range(dim)]
        for i in range(dim)
    ]


@given(data=st.data(), dim=st.integers(1, 9), shape=st.sampled_from(["LH", "HL", "LL", "HH"]))
@settings(max_examples=60, deadline=None)
def test_mat_mul_matches_naive_product(data, dim, shape):
    a, b = (data.draw(_band_rows(dim, side == "H")) for side in shape)
    want = naive_mat_mul(a, b)
    if any(any(row[i + 2 :]) for i, row in enumerate(want)):
        # Only a Hessenberg-by-Hessenberg product can leave the band.
        with pytest.raises(ValueError, match="above the superdiagonal"):
            mat_mul(TriMatrix(a), TriMatrix(b))
    else:
        assert [list(row) for row in mat_mul(TriMatrix(a), TriMatrix(b)).rows] == want


def test_band_violation_rejected():
    with pytest.raises(ValueError, match="superdiagonal"):
        from_rows([[1, 0, 5], [0, 1], [0, 0, 1]])


def test_leading_block():
    m = build(*pair("pascal", 6)).matrix
    assert m.leading(3).rows == ((1, 0, 0), (1, 1, 0), (1, 2, 1))


# ---------------------------------------------------------------------------
# row polynomials and bivariate consistency
# ---------------------------------------------------------------------------


def test_identity_row_polynomials():
    polys = row_polynomials(build(one(4), x(4)))
    assert [format_polynomial(p) for p in polys] == ["1", "x", "x^2", "x^3", "x^4"]


def test_algebraic_family():
    polys = row_polynomials(build(*pair("algebraic", 6)))
    assert [format_polynomial(p) for p in polys] == [
        "1",
        "x",
        "x^2 - 3",
        "x^3 - 12x",
        "x^4 - 30x^2 + 45",
        "x^5 - 60x^3 + 360x",
        "x^6 - 105x^4 + 1575x^2 - 1575",
    ]


def test_arctan_family_rows():
    polys = row_polynomials(build(*pair("arctan", 6)))
    assert [format_polynomial(p) for p in polys[:5]] == [
        "1",
        "x",
        "x^2 - 2",
        "x^3 - 8x",
        "x^4 - 20x^2 + 24",
    ]


def test_format_polynomial_fractions():
    assert format_polynomial([F(-1, 2), F(0), F(3, 4)]) == "(3/4)x^2 - 1/2"
    assert format_polynomial([0]) == "0"


def _poly_mul(p: list[F], q: list[F]) -> list[F]:
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_bivariate_generating_function_consistency():
    # Expand g * exp(y f) with polynomial-in-y coefficients via the exp ODE,
    # an independent route to the rows; compare n! [x^n] against row n.
    n_max = 6
    for eid in ("cos_sin", "gompertz", "tanh"):
        g, f = build(*pair(eid, n_max)).g, build(*pair(eid, n_max)).f
        u = [[F(0)], *[[F(0), c] for c in f.coeffs[1:]]]  # y*f, poly-in-y coeffs
        e: list[list[F]] = [[F(1)]]
        for k in range(1, n_max + 1):
            acc: list[F] = [F(0)]
            for j in range(1, k + 1):
                term = _poly_mul([c * j for c in u[j]], e[k - j])
                acc = [
                    a + b
                    for a, b in zip(acc + [F(0)] * len(term), term + [F(0)] * len(acc))
                ]
            e.append([c / k for c in acc])
        rows = build(*pair(eid, n_max)).matrix.rows
        for n in range(n_max + 1):
            prod: list[F] = [F(0)]
            for j in range(n + 1):
                term = [c * g[n - j] for c in e[j]]
                prod = [
                    a + b
                    for a, b in zip(prod + [F(0)] * len(term), term + [F(0)] * len(prod))
                ]
            got = [factorial(n) * c for c in prod]
            expected = [rows[n][k] for k in range(n + 1)]
            assert got[: n + 1] == expected
            assert all(c == 0 for c in got[n + 1 :])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_matrix_json_round_trip():
    m = build(*pair("gompertz", 6)).matrix
    payload = json.dumps(matrix_to_json(m, "gompertz"))
    name, back = matrix_from_json(json.loads(payload))
    assert name == "gompertz"
    assert back == m
    with pytest.raises(ValueError, match="order field disagrees with row count"):
        matrix_from_json({**json.loads(payload), "order": 5})


def test_matrix_text_alignment():
    text = build(*pair("pascal", 2)).matrix.render_text()
    assert text.splitlines() == ["1  0  0", "1  1  0", "1  2  1"]
