import importlib
from fractions import Fraction as F
from math import factorial, lcm

import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from conftest import jets, mixed_jets, mixed_rationals, sigmoid_like, small_rationals, units
from helpers import (
    agrees_to,
    div_by_long_division,
    egf_convolution,
    euler_numbers,
    exp_by_ogf_recurrence,
    gd_series,
    lagrange_revert,
    log_by_integration,
    naive_compose,
    naive_mul,
)

from expriordan.series import (
    Series,
    _quotient,
    exp_series,
    from_egf,
    log_series,
    one,
    pow_rational,
    series,
    x,
)
from expriordan import catalog
from expriordan.catalog import (
    artanh_series,
    cos_series,
    cosh_series,
    expx_series,
    log1p_series,
    sech_series,
    sin_series,
    sinh_series,
    tanh_series,
)
from expriordan.production import za_sequences
from expriordan.riordan import build, inverse


# ---------------------------------------------------------------------------
# rendering and construction
# ---------------------------------------------------------------------------


def test_series_views():
    s = from_egf([1, 1, 1, 1], order=3)
    assert s.coeffs == (F(1), F(1), F(1, 2), F(1, 6))
    assert s.egf() == (F(1), F(1), F(1), F(1))
    assert repr(s) == "Series((1, 1, 1/2, 1/6))"


def test_equality_at_common_order():
    # Equality is strict; agreement to a common order is asked for explicitly.
    assert series([1, 2, 3]) != series([1, 2, 3, 9, 9])
    assert series([1, 2, 3, 9, 9]) != series([1, 2, 3])
    assert series([1, 2, 3]) == series([1, 2, 3])
    assert series([1, 2, 3]) != series([1, 2, 4])
    assert agrees_to(series([1, 2, 3]), series([1, 2, 3, 9, 9]), 2)
    assert agrees_to(series([1, 2, 3, 9]), series([1, 2, 3, 8]), 2)
    assert not agrees_to(series([1, 2, 3, 9]), series([1, 2, 3, 8]), 3)
    assert not agrees_to(series([1, 2, 3]), series([1, 2, 4]), 2)
    for n in (-1, 3):
        with pytest.raises(ValueError, match="cannot truncate"):
            agrees_to(series([1, 2, 3]), series([1, 2, 3, 9, 9]), n)


def test_order_mismatch_raises():
    with pytest.raises(ValueError, match="order mismatch"):
        series([1, 2]) * series([1, 2, 3])
    with pytest.raises(ValueError, match="order mismatch"):
        series([1, 2]) + series([1, 2, 3])


def test_truncate_bounds():
    s = series([1, 2, 3])
    assert s.truncate(1).coeffs == (F(1), F(2))
    with pytest.raises(ValueError):
        s.truncate(5)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def test_difference_of_squares():
    n = 4
    assert (1 + x(n)) * (1 - x(n)) == series([1, 0, -1], order=n)


def test_geometric_division():
    n = 6
    assert 1 / (1 - x(n)) == series([1] * (n + 1))


def test_division_by_zero_constant_raises():
    with pytest.raises(ZeroDivisionError):
        one(3) / x(3)


@given(st.integers(0, 6).flatmap(mixed_jets))
@example(Series((F(-2, 3),)))
@settings(max_examples=40, deadline=None)
def test_integer_power_is_repeated_product(s):
    want = one(s.order)
    for k in range(8):
        assert s ** k == want
        want = naive_mul(want, s)
    with pytest.raises(ValueError, match="non-negative int"):
        s ** -1


def test_sech_squared_by_euler_convolution():
    # Oracle: Euler numbers E_{2k} from the binomial recurrence, then the
    # EGF self-convolution of sech; compare against 1/cosh squared.
    order = 8
    e = euler_numbers(order)
    expected = egf_convolution(e, e)
    sech2 = sech_series(order) ** 2
    assert list(sech2.egf()) == expected
    assert expected[:7] == [1, 0, -2, 0, 16, 0, -272]


@given(a=jets(5), b=jets(5), c=jets(5))
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=jets(6), b=units(6))
@settings(max_examples=40)
def test_division_inverts_multiplication(a, b):
    assert (a * b) / b == a


_non_integers = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(
    lambda q: q.denominator > 1
)


def _divisors(order: int):
    """Order-N jets with b_0 != 0, of four kinds: factorial denominators
    (integer EGF coefficients, b_0 = 1: cosh, cos and sec are of this kind),
    sparse integer polynomials (1 - x - x^2), either kind times a constant
    b_0 != 1, and mixed denominators with any nonzero b_0."""
    egf = st.lists(st.integers(-3, 3), min_size=order, max_size=order).map(
        lambda cs: from_egf([1, *cs])
    )
    sparse = st.lists(st.integers(-2, 2), max_size=3).map(
        lambda cs: series([1, *cs][: order + 1], order=order)
    )
    scaled = st.tuples(st.one_of(egf, sparse), small_rationals.filter(lambda c: c not in (0, 1)))
    nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)
    mixed = st.tuples(nonzero, mixed_jets(order)).map(lambda t: Series((t[0], *t[1].coeffs[1:])))
    return st.one_of(egf, sparse, scaled.map(lambda t: t[0] * t[1]), mixed)


def _dividends(order: int):
    """Order-N jets: integer EGF coefficients, mixed denominators, and either
    kind with a non-integer constant term (as in reversion's residuals)."""
    egf = st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1).map(from_egf)
    plain = st.one_of(egf, mixed_jets(order))
    shifted = st.tuples(_non_integers, plain).map(lambda t: Series((t[0], *t[1].coeffs[1:])))
    return st.one_of(plain, shifted)


def _check_division(a: Series, b: Series) -> None:
    q = a / b
    assert q.coeffs == div_by_long_division(a, b).coeffs
    assert naive_mul(q, b) == a
    c = a[0]
    assert (c / b).coeffs == div_by_long_division(c * one(a.order), b).coeffs


@given(data=st.data(), order=st.integers(min_value=0, max_value=24))
@settings(max_examples=150, deadline=None)
def test_division_matches_long_division(data, order):
    _check_division(data.draw(_dividends(order)), data.draw(_divisors(order)))


# Higher orders, where the OGF scales of the factorial-denominator divisors
# run to thousands of bits.
@given(data=st.data(), order=st.integers(min_value=25, max_value=48))
@settings(max_examples=25, deadline=None)
def test_division_matches_long_division_at_higher_orders(data, order):
    _check_division(data.draw(_dividends(order)), data.draw(_divisors(order)))


def test_division_routing(monkeypatch):
    # `/` is OGF long division for every divisor, the EGF-natural ones too;
    # the catalog's quotients take the EGF quotient once and never `/`.
    mod = importlib.import_module("expriordan.series")
    calls = []

    def count(module, name):
        kernel = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(module, name, counted)

    count(mod, "_div")
    count(mod, "_egf_quotient")
    count(catalog, "_egf_quotient")
    gompertz = series([1, 1], order=64) * (1 - log1p_series(64))
    cases = [
        (sinh_series(64), cosh_series(64)),
        (F(1, 3) + sinh_series(64), cosh_series(64)),
        (one(64), cos_series(64)),
        (one(64), gompertz),
        (one(64), series([1, -1, -1], order=64)),
    ]
    for a, b in cases:
        calls.clear()
        assert (a / b).coeffs == div_by_long_division(a, b).coeffs
        assert calls == ["_div"], b.coeffs[:3]
    for quotient in (catalog.tan_series, catalog.sec_series, tanh_series, sech_series):
        calls.clear()
        quotient(64)
        assert calls == ["_egf_quotient"], quotient.__name__


@given(data=st.data(), n=st.integers(min_value=0, max_value=12))
@settings(max_examples=100, deadline=None)
def test_integer_long_division_matches_long_division(data, n):
    # The long division that _div and the H-fraction share, on integer rows
    # as _hfraction passes them: a non-unit leading coefficient of either
    # sign, and a divisor that runs past x^n.
    an = data.draw(st.lists(st.integers(-50, 50), min_size=n + 1, max_size=n + 6))
    b0 = data.draw(st.integers(2, 12)) * data.draw(st.sampled_from((1, -1)))
    bn = [b0] + data.draw(st.lists(st.integers(-50, 50), min_size=n + 1, max_size=n + 6))
    t, p = _quotient(an, bn, n)
    assert p == b0 ** (n + 1)
    want = div_by_long_division(Series(an[: n + 1]), Series(bn[: n + 1]))
    assert tuple(F(v, p) for v in t) == want.coeffs


_sparse_ints = st.one_of(st.just(0), st.integers(-50, 50))


@given(data=st.data(), n=st.integers(min_value=0, max_value=12))
@settings(max_examples=150, deadline=None)
def test_egf_quotient_matches_long_division(data, n):
    # The EGF quotient that log and the catalog's quotients share reads its
    # divisor only through its degree: divisors of every degree 0..n, with
    # interior zeros.
    deg = data.draw(st.integers(0, n))
    a = data.draw(st.lists(_sparse_ints, min_size=n + 1, max_size=n + 1))
    mid = data.draw(st.lists(_sparse_ints, min_size=max(deg - 1, 0), max_size=max(deg - 1, 0)))
    top = [data.draw(st.integers(-50, 50).filter(bool))] if deg else []
    b = [1, *mid, *top] + [0] * (n - deg)
    q = importlib.import_module("expriordan.series")._egf_quotient(a, b)
    assert all(type(v) is int for v in q)
    assert from_egf(q) == div_by_long_division(from_egf(a), from_egf(b))


@given(data=st.data(), s=st.integers(2, 4), n=st.integers(min_value=0, max_value=16))
@settings(max_examples=150, deadline=None)
def test_egf_quotient_by_divisors_in_x_to_the_s(data, s, n):
    # A divisor in x^s, as cos and cosh are in x^2, is read through b_s,
    # b_2s, ...: divisors of every degree js <= n, with interior zeros.
    j = data.draw(st.integers(0, n // s))
    a = data.draw(st.lists(_sparse_ints, min_size=n + 1, max_size=n + 1))
    mid = data.draw(st.lists(_sparse_ints, min_size=max(j - 1, 0), max_size=max(j - 1, 0)))
    top = [data.draw(st.integers(-50, 50).filter(bool))] if j else []
    b = [0] * (n + 1)
    b[: j * s + 1 : s] = [1, *mid, *top]
    q = importlib.import_module("expriordan.series")._egf_quotient(a, b)
    assert all(type(v) is int for v in q)
    assert from_egf(q) == div_by_long_division(from_egf(a), from_egf(b))


@given(data=st.data(), n=st.integers(min_value=1, max_value=24))
@settings(max_examples=100, deadline=None)
def test_log_of_sparse_polynomial_matches_integration(data, n):
    # log(1 + c x^k) reaches the EGF quotient with a divisor of degree k.
    k = data.draw(st.integers(1, n))
    c = data.draw(mixed_rationals.filter(bool))
    s = series([1, *[0] * (k - 1), c], order=n)
    assert log_series(s).coeffs == log_by_integration(s).coeffs


# ---------------------------------------------------------------------------
# composition and reversion
# ---------------------------------------------------------------------------


def test_compose_identity():
    s = series([3, "1/2", 0, 5], order=5)
    assert s.compose(x(5)) == s


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError, match="zero constant"):
        one(3).compose(one(3))


def test_tanh_of_artanh_is_x():
    n = 12
    assert tanh_series(n).compose(artanh_series(n)) == x(n)


def test_exp_of_one_minus_exp_minus_x():
    # Partition oracle for the cube coefficient of exp(u):
    # [x^3] exp(u) = u3 + u1*u2 + u1^3/6, computed from scratch.
    n = 6
    u = 1 - expx_series(n, scale=-1)  # 1 - e^{-x}
    u1, u2, u3 = u[1], u[2], u[3]
    oracle_c3 = u3 + u1 * u2 + u1**3 / 6
    assert oracle_c3 == F(-1, 6)
    composed = expx_series(n).compose(u)
    assert composed == exp_series(u)
    assert composed[3] == oracle_c3
    assert composed.egf()[3] == F(-1)


def test_gompertz_first_column_from_exp():
    n = 8
    u = 1 - expx_series(n, scale=-1)
    g = exp_series(u) * expx_series(n, scale=-1)
    assert g.egf()[:7] == (1, 0, -1, 1, 2, -9, 9)


def test_revert_identity():
    assert x(5).revert() == x(5)


def test_revert_sin_is_arcsin():
    # Frozen from the Lagrange-inversion oracle below.
    n = 6
    fbar = sin_series(n).revert()
    assert fbar == lagrange_revert(sin_series(n))
    assert fbar.coeffs == (0, 1, 0, F(1, 6), 0, F(3, 40), 0)


def test_revert_tanh_is_artanh():
    n = 8
    fbar = tanh_series(n).revert()
    assert fbar == artanh_series(n)
    assert fbar.coeffs[:6] == (0, 1, 0, F(1, 3), 0, F(1, 5))


def test_revert_preconditions():
    with pytest.raises(ValueError):
        one(4).revert()
    with pytest.raises(ValueError):
        series([0, 0, 1], order=4).revert()


def test_revert_nonconvergence_is_a_domain_error(monkeypatch):
    # A wrong entry in the divided-power rows of f that the forward
    # substitution reads gives a wrong g; the exact check f(g) = x on a fresh
    # table of g reports that as an arithmetic failure, not as a failed
    # internal assert.  The group inverse and (Z, A) compose g with fbar
    # through the table that check built, so they must fail the same way,
    # not use the table.
    mod = importlib.import_module("expriordan.series")
    f = sin_series(8)
    arr = build(sech_series(8), f)
    steps = mod._steps

    def perturbed(row, p, k, t, s, last, n):
        rows = steps(row, p, k, t, s, last, n)
        if (k, t) == (1, s):  # the solve's rows k = 1 (mod s); the check's table starts at 0
            r = rows[1]  # sin has s = 2: f^3/3!, whose terms are x^3, x^5, x^7
            rows[1] = [r[0], r[1] + 1, *r[2:]]
        return rows

    monkeypatch.setattr(mod, "_steps", perturbed)
    for call in (f.revert, lambda: inverse(arr), lambda: za_sequences(arr.g, arr.f)):
        with pytest.raises(ArithmeticError, match=r"^reversion failed its exact check f\(g\) = x$"):
            call()


# Order 1 is g = x/f_1 alone, orders 2 and 3 the first terms below the
# diagonal, and 24 the order of perfbench's sweep; sigmoid_like has f_1 = 1.
@pytest.mark.parametrize("order", [1, 2, 3, 7, 8, 13, 24])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_revert_matches_lagrange_and_round_trips(order, data):
    f = data.draw(sigmoid_like(order))
    fbar = f.revert()
    assert fbar == lagrange_revert(f)
    assert f.compose(fbar) == x(order)
    assert fbar.compose(f) == x(order)


@st.composite
def _strided_revertible(draw):
    """(f, s) with f = x h(x^s): h(0) = f_1 any nonzero rational, negative and
    non-unit included, and the other terms of h from mixed_rationals, zeros
    included, so the power table of f has stride s or a multiple of it."""
    order, s = draw(st.integers(1, 13)), draw(st.integers(1, 4))
    f1 = draw(mixed_rationals.filter(bool))
    tail = (draw(mixed_rationals) if (j - 1) % s == 0 else F(0) for j in range(2, order + 1))
    return Series((F(0), f1, *tail)), s


@given(fs=_strided_revertible())
@example(fs=(Series((F(0), F(-2, 3), F(0), F(0), F(5), F(0), F(0), F(-1, 7))), 3))
@example(fs=(Series((F(0), F(-1), F(0), F(0), F(0), F(0))), 4))
@settings(max_examples=200, deadline=None)
def test_revert_off_the_unit_slope_and_strided_matches_lagrange(fs):
    f, s = fs
    fbar = f.revert()
    assert fbar == lagrange_revert(f)
    assert not any(c for j, c in enumerate(fbar) if j == 0 or (j - 1) % s)
    assert f.compose(fbar) == x(f.order)
    assert fbar.compose(f) == x(f.order)


@given(data=st.data(), order=st.integers(min_value=0, max_value=9))
@settings(max_examples=80)
def test_mul_and_compose_match_naive_oracle(data, order):
    def jet():
        coeffs = st.lists(mixed_rationals, min_size=order + 1, max_size=order + 1)
        return Series(tuple(data.draw(coeffs)))

    a, b, c = jet(), jet(), jet()
    inner = Series((F(0),) + c.coeffs[1:])
    assert (a * b).coeffs == naive_mul(a, b).coeffs
    assert a.compose(inner).coeffs == naive_compose(a, inner).coeffs


@given(a=jets(5), b=sigmoid_like(5), c=sigmoid_like(5))
@settings(max_examples=40)
def test_compose_associativity(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------


def test_derive_tanh_is_sech_squared():
    n = 10
    assert tanh_series(n).derive() == (sech_series(n) ** 2).truncate(n - 1)
    assert tanh_series(n).derive() != sech_series(n) ** 2  # orders n - 1 and n


def test_derive_gudermannian_is_sech():
    n = 10
    assert gd_series(n).derive() == sech_series(n).truncate(n - 1)
    assert agrees_to(gd_series(n).derive(), sech_series(n), n - 1)


def test_integrate_derive_round_trip():
    s = series([7, 1, "1/3", 0, 2], order=4)
    assert s.derive().integrate() == s - 7


@given(a=jets(6), b=jets(6))
@settings(max_examples=40)
def test_leibniz_rule(a, b):
    lhs = (a * b).derive()
    rhs = a.derive() * b.truncate(5) + a.truncate(5) * b.derive()
    assert lhs == rhs


@given(s=jets(6))
@settings(max_examples=40)
def test_egf_ogf_round_trip(s):
    assert from_egf(s.egf()) == s


@given(cs=st.lists(mixed_rationals, min_size=1, max_size=12), pad=st.integers(0, 3))
@settings(max_examples=60)
@example(cs=[F(-7, 3), F(0), F(5, 2), F(-1)], pad=1)
def test_egf_views_and_calculus_by_definition(cs, pad):
    # Negative and non-integer coefficients, against c_m = a_m / m!,
    # (s')_k = (k + 1) s_(k+1) and (int s)_(k+1) = s_k / (k + 1).
    n = len(cs) - 1 + pad
    s = from_egf(cs, order=n)
    assert s.coeffs == tuple(a / factorial(m) for m, a in enumerate(cs)) + (F(0),) * pad
    assert s.egf() == tuple(cs) + (F(0),) * pad
    assert from_egf([str(a) for a in cs], order=n) == s
    assert from_egf(s.egf()) == s
    assert s.integrate().coeffs == (F(0),) + tuple(c / (k + 1) for k, c in enumerate(s))
    assert s.integrate().derive() == s
    if n:
        assert s.derive().coeffs == tuple((k + 1) * s[k + 1] for k in range(n))
        assert s.derive().integrate() == s - s[0]
    if len(cs) > 1:
        for build in (series, from_egf):
            with pytest.raises(ValueError, match="more coefficients than the requested order"):
                build(cs, order=len(cs) - 2)


# ---------------------------------------------------------------------------
# exp, log, rational powers
# ---------------------------------------------------------------------------


def test_exp_of_zero_and_x():
    assert exp_series(series([0], order=4)) == one(4)
    assert exp_series(x(5)) == from_egf([1] * 6)


def test_exp_log_pow_preconditions():
    with pytest.raises(ValueError):
        exp_series(one(3))
    with pytest.raises(ValueError):
        log_series(x(3))
    with pytest.raises(ValueError):
        pow_rational(x(3), F(1, 2))


@given(s=jets(6, constant=0))
@settings(max_examples=40)
def test_log_of_exp(s):
    assert log_series(exp_series(s)) == s


def _exp_log_inputs(order: int, constant: int):
    """Order-N jets with the given constant term, of three kinds: mixed
    denominators up to 60 with zeros, integer EGF coefficients (natural for
    exp), and OGF coefficients p/q with q <= 6 (natural for powers)."""
    egf_integral = st.lists(st.integers(-9, 9), min_size=order, max_size=order).map(
        lambda cs: from_egf([constant, *cs])
    )
    ogf_natural = st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=order, max_size=order
    ).map(lambda cs: series([constant, *cs]))
    return st.one_of(mixed_jets(order, head=(constant,)), egf_integral, ogf_natural)


@given(data=st.data(), order=st.integers(min_value=0, max_value=24))
@settings(max_examples=120, deadline=None)
def test_exp_matches_ogf_recurrence(data, order):
    u = data.draw(_exp_log_inputs(order, 0))
    assert exp_series(u).coeffs == exp_by_ogf_recurrence(u).coeffs


@given(data=st.data(), order=st.integers(min_value=0, max_value=24))
@settings(max_examples=120, deadline=None)
def test_log_matches_integration(data, order):
    s = data.draw(_exp_log_inputs(order, 1))
    assert log_series(s).coeffs == log_by_integration(s).coeffs


@given(data=st.data(), order=st.integers(min_value=0, max_value=12), k=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_egf_scaled_contract(data, order, k):
    # _egf_scaled(a, d) is e * d^m * m! * a_m with e the denominator of a_0,
    # for any multiple d of _egf_scale(a), the lcm of the denominators of
    # m! * a_m (m >= 1); _egf_unscaled inverts it.  A non-integer a_0 only
    # sets e, as in the residuals that reversion divides.
    head = data.draw(st.one_of(_non_integers, st.integers(-3, 3).map(F)))
    a = data.draw(st.one_of(mixed_jets(order, head=(head,)), _dividends(order))).coeffs
    mod = importlib.import_module("expriordan.series")
    scale = mod._egf_scale(a)
    assert scale == lcm(*((factorial(m) * c).denominator for m, c in enumerate(a) if m))
    d, e = k * scale, a[0].denominator
    v = mod._egf_scaled(a, d)
    assert all(type(c) is int for c in v)
    assert v == [e * d**m * factorial(m) * c for m, c in enumerate(a)]
    assert mod._egf_unscaled(v, d, e) == list(a)


@pytest.mark.parametrize("order", [0, 1, 2, 7, 24])
def test_exp_and_log_of_egf_integral_series(order):
    u = 1 - expx_series(order, scale=-1)  # EGF 0, 1, -1, 1, ...
    assert exp_series(u).coeffs == exp_by_ogf_recurrence(u).coeffs
    # exp(1 - e^{-x}) has integer EGF coefficients.
    assert all(c.denominator == 1 for c in exp_series(u).egf())
    assert log_series(exp_series(u)) == u
    c = cosh_series(order)
    assert exp_series(c - 1).coeffs == exp_by_ogf_recurrence(c - 1).coeffs
    assert log_series(c).coeffs == log_by_integration(c).coeffs
    assert log_series(expx_series(order, scale=-1)) == -x(order)


@pytest.mark.parametrize("r", [F(-3, 2), F(-5, 4), F(-1, 2), F(3, 2)])
@given(s=units(6))
@settings(max_examples=20, deadline=None)
def test_pow_rational_to_the_denominator(r, s):
    # pow_rational(s, p/q)^q = s^p, with both sides formed by products alone.
    lhs = pow_rational(s, r) ** r.denominator
    if r.numerator < 0:
        assert lhs * s ** -r.numerator == one(s.order)
    else:
        assert lhs == s ** r.numerator


def test_pow_rational_trivial_and_pinned():
    base = series([1, 0, 1], order=6)  # 1 + x^2
    assert pow_rational(base, 0) == one(6)
    g = pow_rational(base, F(-3, 2))
    assert g.egf()[2] == F(-3)  # row 2, column 0 of the algebraic-sigmoid array


@given(s=units(5))
@settings(max_examples=30)
def test_pow_rational_round_trip(s):
    assert pow_rational(pow_rational(s, F(2, 3)), F(3, 2)) == s


@given(s=units(5), p=small_rationals, q=small_rationals)
@settings(max_examples=30)
def test_pow_rational_additivity(s, p, q):
    assert pow_rational(s, p) * pow_rational(s, q) == pow_rational(s, p + q)


def test_scale_argument():
    n = 7
    doubled = sin_series(n).scale_argument(2)
    assert doubled.egf()[1] == 2
    assert doubled.egf()[3] == -8
    assert sinh_series(n).scale_argument(-1) == -sinh_series(n)


# ---------------------------------------------------------------------------
# documented value corrections
# ---------------------------------------------------------------------------


def test_half_tanh_half_x_expansion():
    # Two independent routes: the shifted logistic 1/(1+e^{-x}) - 1/2 and the
    # rescaled tanh series.  Both force the x^5 EGF coefficient to 1/4; a
    # sometimes-quoted value of 1/8 is ruled out by either oracle.
    n = 10
    logistic = 1 / (1 + expx_series(n, scale=-1)) - F(1, 2)
    rescaled = tanh_series(n).scale_argument(F(1, 2)) / 2
    assert logistic == rescaled
    egf = logistic.egf()
    assert egf[:10] == (0, F(1, 4), 0, F(-1, 8), 0, F(1, 4), 0, F(-17, 16), 0, F(31, 4))
    assert egf[5] == F(1, 4)
    assert egf[5] != F(1, 8)
