from fractions import Fraction as F
from math import factorial, gcd

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import mixed_jets, mixed_rationals
from helpers import (
    derivative_closed_production,
    inverse_za_closed_form,
    power_first_row,
    production_analytic_by_entries,
    za_by_definition,
)

from expriordan.catalog import ids, inverse_pair, pair, za_closed_form
from expriordan.production import (
    JacobiParams,
    ZAPair,
    production_analytic,
    production_definitional,
    tridiagonal_params,
    za_sequences,
)
from expriordan.riordan import build, inverse
from expriordan.series import Series, one, series

DERIVATIVE_SUBGROUP_IDS = tuple(eid for eid in ids() if eid != "pascal")


def test_pascal_production_is_bidiagonal_ones():
    p = production_definitional(build(*pair("pascal", 8)))
    for n in range(p.dim):
        for k in range(p.dim):
            assert p.entry(n, k) == (1 if k in (n, n + 1) else 0)


def test_pascal_za_is_one_one():
    g, f = pair("pascal", 8)
    za = za_sequences(g, f)
    assert za.z == one(7)
    assert za.a == one(7)


def test_cos_sin_production_rows():
    p = production_definitional(build(*pair("cos_sin", 10)))
    assert p.rows[3][:5] == (-3, 0, -6, 0, 1)
    assert p.rows[5][:7] == (-45, 0, -45, 0, -15, 0, 1)


def test_cos_sin_za_closed_forms():
    g, f = pair("cos_sin", 12)
    za = za_sequences(g, f)
    stated = za_closed_form("cos_sin", 11)
    assert za.a == stated.a  # sqrt(1-x^2)
    assert za.z == stated.z  # -x/sqrt(1-x^2)


def test_tanh_za_is_polynomial():
    g, f = pair("tanh", 10)
    za = za_sequences(g, f)
    assert za.z == series([0, -2], order=9)
    assert za.a == series([1, 0, -1], order=9)


def test_erf_production_row():
    p = production_definitional(build(*pair("erf", 8)))
    assert p.rows[3][:5] == (-4, 0, -12, 0, 1)


def test_analytic_from_inverse_cos_sin():
    # Z = sin*sec^2 = (sec)', A = sec for the inverse of the circular pair.
    za = inverse_za_closed_form("cos_sin", 12)
    p = production_analytic(za, 8)
    assert p.rows[5][:7] == (61, 0, 75, 0, 15, 0, 1)
    assert p.rows[3][:5] == (5, 0, 6, 0, 1)
    direct = production_definitional(build(*inverse_pair("cos_sin", 9)))
    assert direct.leading(8) == p.leading(8)


def _outcome(fn, *args):
    """The result of a call, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@given(
    data=st.data(),
    z_order=st.integers(min_value=0, max_value=9),
    a_order=st.integers(min_value=0, max_value=10),
    dim=st.integers(min_value=0, max_value=11),
)
@settings(max_examples=80, deadline=None)
def test_production_analytic_matches_entry_oracle(data, z_order, a_order, dim):
    za = ZAPair(z=data.draw(mixed_jets(z_order)), a=data.draw(mixed_jets(a_order, (F(1),))))
    want = _outcome(production_analytic_by_entries, za, dim)
    assert _outcome(production_analytic, za, dim) == want


@st.composite
def _za_pair(draw):
    """(g, f) of order 1..13: g a series in x^s with any g_0 != 0, and
    f = x h(x^s) with f_1 = 1, s = 1..4, so the table of f-bar has stride s
    or a multiple of it; other terms from mixed_rationals, zeros included.
    The EGF coefficient of x^s in g, of x^(1+s) in f, both or neither is
    planted as u/D with D >= 2 prime to u, where the order reaches it, so
    that side's EGF scale is a multiple of D."""
    order, s = draw(st.integers(1, 13)), draw(st.integers(1, 4))
    den = draw(st.integers(2, 12))
    planted = draw(st.sampled_from([(), (s,), (1 + s,), (s, 1 + s)]))

    def side(head: tuple) -> Series:
        first = len(head) - 1
        cs = list(head)
        for e in range(len(head), order + 1):
            if (e - first) % s:
                cs.append(F(0))
            elif e in planted:
                u = draw(st.integers(1, 9).filter(lambda u: gcd(u, den) == 1))
                cs.append(F(draw(st.sampled_from([u, -u])), den * factorial(e)))
            else:
                cs.append(draw(mixed_rationals))
        return Series(cs)

    return side((draw(mixed_rationals.filter(bool)),)), side((F(0), F(1)))


@given(gf=_za_pair())
@settings(max_examples=80, deadline=None)
def test_za_sequences_match_definition(gf):
    g, f = gf
    za = za_sequences(g, f)
    want = za_by_definition(g, f)
    assert (za.z.coeffs, za.a.coeffs) == (want.z.coeffs, want.a.coeffs)


@given(data=st.data(), order=st.integers(min_value=2, max_value=9))
@settings(max_examples=40, deadline=None)
def test_definitional_production_matches_definition(data, order):
    g = data.draw(mixed_jets(order, (F(1),)))
    f = data.draw(mixed_jets(order, (F(0), F(1))))
    definitional = production_definitional(build(g, f))
    assert definitional == production_analytic_by_entries(za_by_definition(g, f), order)


@pytest.mark.parametrize("eid", ids())
def test_dual_route_production_agrees(eid):
    order = 10
    g, f = pair(eid, order)
    definitional = production_definitional(build(*pair(eid, order)))
    assert production_analytic(za_sequences(g, f), order) == definitional


@pytest.mark.parametrize("eid", DERIVATIVE_SUBGROUP_IDS)
def test_derivative_subgroup_closed_production(eid):
    # U . [1/fbar', x] equals the production matrix of [f', f].
    order = 10
    _, f = pair(eid, order)
    definitional = production_definitional(build(*pair(eid, order)))
    assert derivative_closed_production(f) == definitional.leading(order - 1)


@pytest.mark.parametrize("side", ["forward", "inverse"])
@pytest.mark.parametrize("eid", ids())
def test_z_is_a_prime_exactly_on_the_derivative_subgroup(eid, side):
    # On [f', f], A = f'(fbar) and Z = f''(fbar)/f'(fbar), so Z = A'; the
    # inverse of a subgroup array is again in the subgroup.
    order = 14
    za = za_sequences(*(pair if side == "forward" else inverse_pair)(eid, order))
    z_is_a_prime = za.z.truncate(order - 2) == za.a.derive()
    assert z_is_a_prime is (eid in DERIVATIVE_SUBGROUP_IDS)


@pytest.mark.parametrize(
    "eid",
    [eid for eid in DERIVATIVE_SUBGROUP_IDS if za_closed_form(eid, 8) is not None],
)
def test_stated_za_forms_match_computed(eid):
    order = 12
    g, f = pair(eid, order)
    za = za_sequences(g, f)
    stated = za_closed_form(eid, order - 1)
    assert za.z == stated.z
    assert za.a == stated.a


def test_stated_inverse_za_forms_match_computed():
    for eid in ("arctan", "algebraic", "quartic", "gudermann", "cos_sin"):
        order = 12
        g, f = (s for s in pair(eid, order))
        inv = inverse(build(*pair(eid, order)))
        za = za_sequences(inv.g, inv.f)
        stated = inverse_za_closed_form(eid, order - 1)
        assert za.z == stated.z, eid
        assert za.a == stated.a, eid


def test_tridiagonal_params_examples():
    assert tridiagonal_params(
        production_definitional(build(*inverse_pair("arctan", 10)))
    ) == JacobiParams(0, 2, 0, 1)
    assert tridiagonal_params(
        production_definitional(build(*pair("tanh", 10)))
    ) == JacobiParams(0, -2, 0, -1)
    assert tridiagonal_params(production_definitional(build(*pair("algebraic", 10)))) is None
    assert tridiagonal_params(production_definitional(build(*pair("pascal", 10)))) == JacobiParams(
        1, 0, 0, 0
    )


def test_tanh_params_give_recurrence_coefficients():
    params = JacobiParams(0, -2, 0, -1)
    assert [params.subdiagonal(k) for k in range(1, 5)] == [-2, -6, -12, -20]
    assert all(params.subdiagonal(k) == -k * (k + 1) for k in range(1, 8))


def test_tridiagonal_params_verifies_whole_matrix():
    # A matrix that fits (alpha, beta) at the corner but breaks deeper in:
    # on the subdiagonal, the diagonal, the superdiagonal, below the band,
    # and in the last row.
    p = production_definitional(build(*pair("tanh", 8)))
    from expriordan.riordan import TriMatrix

    for i, k in [(4, 3), (5, 5), (3, 4), (6, 2), (7, 0), (7, 6)]:
        rows = [list(r) for r in p.rows]
        rows[i][k] += 1
        assert tridiagonal_params(TriMatrix(tuple(tuple(r) for r in rows))) is None


def test_generation_property():
    # The first row of P^n reproduces row n of the array.
    for eid in ("cos_sin", "gompertz", "erf"):
        arr = build(*pair(eid, 9))
        p = production_definitional(arr)
        for n in range(6):
            got = power_first_row(p, n)[: n + 1]
            assert got == arr.matrix.rows[n][: n + 1]


def test_za_validation():
    with pytest.raises(ValueError, match="start with 1"):
        ZAPair(z=one(4), a=series([2], order=4))
    with pytest.raises(ValueError, match=r"^order mismatch: 4 != 5$"):
        za_sequences(one(4), series([0, 1], order=5))
    # g_0 = 0 has no Z; reversion's errors on f come before it, and before
    # f' is formed, which an order-0 f does not have.
    with pytest.raises(ZeroDivisionError, match=r"^division by a series with zero constant term$"):
        za_sequences(series([0, 2], order=4), series([0, 1, 3], order=4))
    for g0 in (0, 1):
        for f in (series([0, 0, 1], order=4), series([1, 1], order=4), series([0])):
            with pytest.raises(ValueError, match=r"^reversion requires "):
                za_sequences(series([g0], order=f.order), f)


def test_analytic_needs_enough_coefficients():
    za = ZAPair(z=one(4), a=one(4))
    with pytest.raises(ValueError, match="needs z to order"):
        production_analytic(za, 6)


@pytest.mark.parametrize("dim", [0, -1])
def test_analytic_rejects_an_empty_block(dim):
    za = ZAPair(z=one(4), a=one(4))
    with pytest.raises(ValueError, match=rf"^dim must be at least 1, got {dim}$"):
        production_analytic(za, dim)
