import importlib
import math
from fractions import Fraction as F

import pytest
from helpers import (
    NON_SIGMOID_IDS,
    STATED_F,
    arctan_series,
    div_by_long_division,
    erf_identity,
    erf_integral_series,
    gd_series,
    gompertz_identities,
    gudermann_identities,
    is_checkerboard,
    is_derivative_subgroup,
    lagrange_revert,
    naive_compose,
    naive_mul,
    stirling2,
)

from expriordan import catalog
from expriordan.catalog import (
    SampleGrid,
    cos_series,
    cosh_series,
    entry,
    expx_series,
    ids,
    inverse_pair,
    pair,
    sample_curve,
    sample_parametric,
    sin_series,
    sinh_series,
    tan_series,
    za_closed_form,
)
from expriordan.production import production_definitional, tridiagonal_params, za_sequences
from expriordan.riordan import build, inverse
from expriordan.series import exp_series, log_series, one, pow_rational, series

SIGMOID_IDS = tuple(eid for eid in ids() if eid not in NON_SIGMOID_IDS)


def test_catalog_ids():
    assert ids() == (
        "tanh",
        "tanh2",
        "arctan",
        "algebraic",
        "quartic",
        "gudermann",
        "erf",
        "gompertz",
        "cos_sin",
        "pascal",
    )
    with pytest.raises(KeyError, match="unknown catalog id"):
        entry("sigmoidal")


def test_tanh_series_against_exp_oracle():
    # Independent route: tanh = (e^{2x} - 1)/(e^{2x} + 1).
    n = 12
    e2x = expx_series(n, scale=2)
    oracle = (e2x - 1) / (e2x + 1)
    _, f = pair("tanh", n)
    assert f == oracle
    assert f.coeffs[:6] == (0, 1, 0, F(-1, 3), 0, F(2, 15))


def test_gompertz_array_row3():
    # Forced jointly by the defining coefficient formula, both array
    # factorizations, and the Stirling double-sum identity; a circulating
    # rendering of this block flips the odd-column signs (its diagonal even
    # alternates, contradicting unit-diagonality) and garbles three entries.
    arr = build(*pair("gompertz", 8))
    assert arr.matrix.rows[3][:4] == (1, -4, 0, 1)
    assert arr.matrix.rows[3][:4] != (1, 4, 0, -1)


def test_erf_array_row4():
    arr = build(*pair("erf", 8))
    assert arr.matrix.rows[4][:5] == (12, 0, -20, 0, 1)


def test_derivative_subgroup_membership():
    for eid in SIGMOID_IDS + ("cos_sin",):
        assert is_derivative_subgroup(build(*pair(eid, 10))), eid
    assert not is_derivative_subgroup(build(*pair("pascal", 10)))


def test_checkerboard_membership():
    for eid in SIGMOID_IDS:
        expected = eid != "gompertz"
        assert is_checkerboard(build(*pair(eid, 10))) is expected, eid
    assert is_checkerboard(build(*pair("cos_sin", 10)))
    assert not is_checkerboard(build(*pair("pascal", 10)))


def test_stated_inverse_pairs():
    # Orders 1..13 cover every array that `array|produce --inverse --order 12` builds.
    for eid in ids():
        if entry(eid).inverse_g is None:
            continue
        for n in range(1, 14):
            computed = inverse(build(*pair(eid, n)))
            stated = build(*inverse_pair(eid, n))
            assert computed == stated, (eid, n)


def test_order_zero_pairs():
    for eid in ids():
        for g, f in (pair(eid, 0), inverse_pair(eid, 0)):
            assert (g.order, f.order) == (0, 0), eid


@pytest.mark.parametrize("n", [0, 1, 8, 24])
def test_erf_inverse_pair_against_lagrange(n):
    # erf states no inverse; inverse_pair reverts f.  Oracle: Lagrange
    # inversion and the schoolbook composition, at order 1 at least.
    m = max(n, 1)
    fbar = lagrange_revert(erf_integral_series(m))
    gbar = div_by_long_division(one(m), naive_compose(catalog.gauss_series(m), fbar))
    assert inverse_pair("erf", n) == (gbar.truncate(n), fbar.truncate(n))


def test_gudermann_inverse_f_three_ways():
    # integral of sec == log(sec + tan) == arcsinh(tan)
    n = 12
    _, sec_int = inverse_pair("gudermann", n)
    sec_plus_tan = 1 / catalog.cos_series(n) + tan_series(n)
    assert log_series(sec_plus_tan) == sec_int
    arcsinh = sinh_series(n).revert()
    assert arcsinh.compose(tan_series(n)) == sec_int


def test_tanh2_scaling_law():
    a = build(*pair("tanh", 9)).matrix
    b = build(*pair("tanh2", 9)).matrix
    for n in range(10):
        for k in range(n + 1):
            assert b.entry(n, k) == F(2) ** (n - k) * a.entry(n, k)


def test_jacobi_metadata_matches_computation():
    for eid in ids():
        e = entry(eid)
        if e.jacobi is not None:
            got = tridiagonal_params(production_definitional(build(*pair(eid, 10))))
            assert got == e.jacobi, eid
        if e.inverse_jacobi is not None:
            got = tridiagonal_params(
                production_definitional(build(*inverse_pair(eid, 10)))
            )
            assert got == e.inverse_jacobi, eid


def test_non_tridiagonal_sides():
    for eid in ("algebraic", "quartic", "erf", "gompertz", "cos_sin"):
        got = tridiagonal_params(production_definitional(build(*pair(eid, 10))))
        assert got is None, eid


# ---------------------------------------------------------------------------
# Stirling triangle
# ---------------------------------------------------------------------------


def test_stirling_rows():
    tri = stirling2(6)
    assert tri.rows[0] == (1, 0, 0, 0, 0, 0, 0)
    assert tri.rows[4][:5] == (0, 1, 7, 6, 1)
    assert tri.rows[5][:6] == (0, 1, 15, 25, 10, 1)
    assert tri.rows[6][:7] == (0, 1, 31, 90, 65, 15, 1)


def test_stirling_equals_riordan_construction():
    n = 12
    tri = stirling2(n)
    arr = build(one(n), expx_series(n) - 1)
    assert tri == arr.matrix


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------


def test_gompertz_identities_small_case():
    # n=2, k=0: S2(3,1) - S2(3,2) + S2(3,3) reads 1 - 3 + 1 ... weighted:
    tri = stirling2(3)
    total = sum(
        tri.entry(3, j + 1) * (-1) ** (2 - j) * tri.entry(j + 1, 1) for j in range(3)
    )
    assert total == -1
    assert build(*pair("gompertz", 4)).matrix.entry(2, 0) == -1


def test_gompertz_identities_full():
    assert gompertz_identities(10)


def test_gudermann_identities():
    assert gudermann_identities(8)


def test_gudermann_z_series():
    g, f = pair("gudermann", 10)
    za = za_sequences(g, f)
    assert za.z.coeffs[:4] == (0, -1, 0, F(1, 6))  # -sin(x)
    assert za.z == -catalog.sin_series(9)
    assert za.a == catalog.cos_series(9)


def test_erf_identity():
    assert erf_identity(8)


def test_erf_sigmoid_production_row5():
    p = production_definitional(build(*pair("erf", 8)))
    assert p.rows[5][:7] == (-56, 0, -60, 0, -30, 0, 1)


def test_gompertz_closed_production_form():
    za = za_closed_form("gompertz", 10)
    g, f = pair("gompertz", 11)
    computed = za_sequences(g, f)
    assert computed.a == za.a  # (1+x)(1 - log(1+x))
    assert computed.z == za.z  # -log(1+x)


# ---------------------------------------------------------------------------
# float evaluators and sampling
# ---------------------------------------------------------------------------


def test_fprime_matches_finite_differences():
    h = 1e-6
    grid = SampleGrid(-3.5, 3.5, 29)
    for eid in ids():
        e = entry(eid)
        for t in grid.points():
            fd = (e.f_eval(t + h) - e.f_eval(t - h)) / (2 * h)
            assert abs(fd - e.fprime_eval(t)) < 1e-6, (eid, t)


def test_sigmoid_shape_on_default_grid():
    grid = SampleGrid()
    for eid in SIGMOID_IDS:
        e = entry(eid)
        rows = sample_curve(e, grid)
        assert all(fp > 0 for _, _, fp in rows), eid
        values = [f for _, f, _ in rows]
        assert all(a <= b for a, b in zip(values, values[1:])), eid


def test_cos_sin_parametric_is_unit_circle():
    rows = sample_parametric(entry("cos_sin"), SampleGrid())
    for fp, f in rows:
        assert abs(fp * fp + f * f - 1.0) < 1e-12


def test_evaluators_match_series_locally():
    # The order-12 jet at t=0.1 approximates f(t) and f'(t) closely.
    t = 0.1
    for eid in SIGMOID_IDS:
        g, f = pair(eid, 12)
        f_t = sum(float(c) * t**k for k, c in enumerate(f.coeffs))
        g_t = sum(float(c) * t**k for k, c in enumerate(g.coeffs))
        e = entry(eid)
        assert math.isclose(f_t, e.f_eval(t), rel_tol=1e-9), eid
        assert math.isclose(g_t, e.fprime_eval(t), rel_tol=1e-9), eid


def test_sample_grid_validation():
    with pytest.raises(ValueError):
        SampleGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        SampleGrid(0.0, 1.0, 1)
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            SampleGrid(lo, hi, 3)


@pytest.mark.parametrize("order", [0, 1, 2, 7, 24])
def test_ogf_generators_match_their_definitions(order):
    # Integrals are taken from order 24, so every order is a truncation.
    x2 = series([0, 0, 1], order=24)
    integrals = {
        arctan_series: 1 / (1 + x2),
        catalog.artanh_series: 1 / (1 - x2),
        catalog.arcsin_series: pow_rational(1 - x2, F(-1, 2)),
        erf_integral_series: exp_series(-x2),
    }
    for gen, derivative in integrals.items():
        assert gen(order).coeffs == derivative.integrate().coeffs[: order + 1]
    plain = {
        catalog.gauss_series: exp_series(-x2),
        catalog.log1p_series: log_series(series([1, 1], order=24)),
        lambda n: catalog._geom_x2(3, n): 1 / (1 - 3 * x2),
        lambda n: catalog._geom_x2(-2, n): 1 / (1 + 2 * x2),
    }
    for gen, want in plain.items():
        assert gen(order).coeffs == want.coeffs[: order + 1]


@pytest.mark.parametrize("eid", ids())
def test_pair_f_is_the_stated_closed_form(eid):
    # pair() takes f = int g; the oracle states f in closed form.
    e = entry(eid)
    for order in (0, 1, 2, 7, 24, 48):
        assert pair(eid, order) == (e.g_series(order), STATED_F[eid](order))


@pytest.mark.parametrize("eid", ["tanh", "tanh2"])
def test_tanh_pairs_expand_tanh_once(eid, monkeypatch):
    orders = []
    tanh_series = catalog.tanh_series

    def counted(order):
        orders.append(order)
        return tanh_series(order)

    monkeypatch.setattr(catalog, "tanh_series", counted)
    pair(eid, 12)
    assert orders == [13]


def test_gudermann_pair_makes_no_composition(monkeypatch):
    mod = importlib.import_module("expriordan.series")
    calls, compose = [], mod._compose

    def counted(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(mod, "_compose", counted)
    gd_series(24)
    assert len(calls) == 1  # the counter sees arctan(sinh(x))
    pair("gudermann", 24)
    assert len(calls) == 1


def test_catalog_quotients_at_order_128():
    # At order 128 these quotients take the EGF loop; the oracle is long
    # division over Fractions of the same operands.
    n = 128
    t = div_by_long_division(sinh_series(n), cosh_series(n))
    assert pair("tanh", n) == (1 - naive_mul(t, t), t)
    t2 = t.scale_argument(2)
    assert pair("tanh2", n) == (1 - naive_mul(t2, t2), t2 / 2)
    assert pair("gudermann", n)[0] == div_by_long_division(one(n), cosh_series(n))
    sec = div_by_long_division(one(n), cos_series(n))
    tan = div_by_long_division(sin_series(n), cos_series(n))
    assert inverse_pair("arctan", n) == (naive_mul(sec, sec), tan)
