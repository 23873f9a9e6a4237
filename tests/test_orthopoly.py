from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import (
    cf_to_ogf_by_levels,
    column,
    hankel_det,
    hankel_formula_check,
    jfraction_by_determinants,
    jfraction_by_levels,
    moments_by_jacobi_recurrence,
)

from expriordan import catalog
from expriordan.catalog import pair, sec_series
from expriordan.orthopoly import (
    Recurrence,
    cf_to_ogf,
    coefficient_array,
    hankel_transform,
    jfraction,
    moments,
    recurrence_from_jacobi,
)
from expriordan.production import JacobiParams
from expriordan.riordan import format_polynomial, mat_inverse
from expriordan.series import series


TANH_PARAMS = JacobiParams(0, -2, 0, -1)
ARCTAN_PARAMS = JacobiParams(0, 2, 0, 1)
HERMITE_LIKE_PARAMS = JacobiParams(0, -2, 0, 0)
# p/q with q in 1..3, so the integer recurrence meets a common denominator.
RATIONALS = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
# p/q with q in 1..4, so the Hankel matrix is scaled by a nontrivial lcm.
HANKEL_TERMS = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
GOMPERTZ_REC = Recurrence(b=tuple(-k for k in range(10)), lam=tuple(-k for k in range(1, 10)))


def _family(params: JacobiParams, n: int) -> list[str]:
    arr = coefficient_array(recurrence_from_jacobi(params, n), n)
    return [format_polynomial(arr.rows[i][: i + 1]) for i in range(n + 1)]


# ---------------------------------------------------------------------------
# coefficient arrays
# ---------------------------------------------------------------------------


def test_tanh_family_polynomials():
    assert _family(TANH_PARAMS, 6) == [
        "1",
        "x",
        "x^2 + 2",
        "x^3 + 8x",
        "x^4 + 20x^2 + 24",
        "x^5 + 40x^3 + 184x",
        "x^6 + 70x^4 + 784x^2 + 720",
    ]


def test_arctan_family_polynomials():
    assert _family(ARCTAN_PARAMS, 6) == [
        "1",
        "x",
        "x^2 - 2",
        "x^3 - 8x",
        "x^4 - 20x^2 + 24",
        "x^5 - 40x^3 + 184x",
        "x^6 - 70x^4 + 784x^2 - 720",
    ]


def test_hermite_like_family_polynomials():
    assert _family(HERMITE_LIKE_PARAMS, 6) == [
        "1",
        "x",
        "x^2 + 2",
        "x^3 + 6x",
        "x^4 + 12x^2 + 12",
        "x^5 + 20x^3 + 60x",
        "x^6 + 30x^4 + 180x^2 + 120",
    ]


def test_coefficient_array_requires_enough_data():
    with pytest.raises(ValueError, match="too short"):
        coefficient_array(Recurrence(b=(0,), lam=()), 2)
    with pytest.raises(ValueError, match="too short"):
        coefficient_array(Recurrence(b=(0,), lam=()), -1)


def test_coefficient_array_unit_diagonal():
    arr = coefficient_array(recurrence_from_jacobi(TANH_PARAMS, 8), 8)
    assert all(arr.entry(i, i) == 1 for i in range(arr.dim))


@given(
    params=st.tuples(*[st.fractions(min_value=-5, max_value=5, max_denominator=12)] * 4),
    n=st.integers(0, 12),
)
@settings(max_examples=60)
def test_recurrence_from_jacobi_on_rational_parameters(params, n):
    p = JacobiParams(*params)
    rec = recurrence_from_jacobi(p, n)
    assert rec.b == tuple(p.diagonal(k) for k in range(n))
    assert rec.lam == tuple(p.subdiagonal(k) for k in range(1, n))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_arctan_moments_are_secant_squared_expansion():
    rec = recurrence_from_jacobi(ARCTAN_PARAMS, 8)
    assert moments(rec, 8) == (1, 0, 2, 0, 16, 0, 272, 0, 7936)


def test_identity_recurrence_moments():
    rec = Recurrence(b=(0,) * 6, lam=(0,) * 5)
    assert moments(rec, 6) == (1, 0, 0, 0, 0, 0, 0)


def test_gompertz_moments():
    # The J-fraction expansion of the family; cross-checked below by the
    # Jacobi-recurrence route and by the series expansion of the first
    # catalog column.  A sometimes-quoted "1, 0, -1, 12, -9, 9" is a
    # corruption of these values.
    got = moments(GOMPERTZ_REC, 6)
    assert got == (1, 0, -1, 1, 2, -9, 9)
    assert got == moments_by_jacobi_recurrence(GOMPERTZ_REC, 6)
    g, _ = pair("gompertz", 6)
    assert got == g.egf()


def test_gompertz_p1_is_monic():
    # b_0 = 0 forces P_1 = x under the monic normalization.
    arr = coefficient_array(GOMPERTZ_REC, 1)
    assert arr.rows[1] == (0, 1)


@given(
    b=st.lists(RATIONALS, min_size=8, max_size=8),
    lam=st.lists(RATIONALS, min_size=7, max_size=7),
)
@settings(max_examples=30, deadline=None)
def test_moment_routes_agree(b, lam):
    rec = Recurrence(b=tuple(b), lam=tuple(lam))
    for n in range(9):
        assert moments(rec, n) == moments_by_jacobi_recurrence(rec, n)


def test_moments_require_enough_data():
    # m_4 needs only b_0, b_1, lambda_1 and lambda_2, but moments keeps the
    # coefficient array's rule: degree n needs b_0..b_{n-1}, lambda_1..lambda_{n-1}.
    with pytest.raises(ValueError, match="too short"):
        moments(Recurrence(b=(0,) * 3, lam=(1,) * 3), 4)
    with pytest.raises(ValueError, match="too short"):
        moments(Recurrence(b=(0,) * 4, lam=(1,) * 2), 4)
    with pytest.raises(ValueError, match="too short"):
        moments(Recurrence(b=(0,) * 4, lam=(1,) * 3), -1)
    assert moments(Recurrence(b=(0,) * 4, lam=(1,) * 3), 4) == (1, 0, 1, 0, 2)
    assert moments(Recurrence(b=(), lam=()), 0) == (1,)


def test_moment_matrix_first_column():
    rec = recurrence_from_jacobi(TANH_PARAMS, 6)
    inv = mat_inverse(coefficient_array(rec, 6))
    assert column(inv, 0) == moments(rec, 6)


@given(
    b=st.lists(RATIONALS, min_size=6, max_size=6),
    lam=st.lists(RATIONALS, min_size=5, max_size=5),
)
@settings(max_examples=30, deadline=None)
def test_moment_matrix_first_column_rational(b, lam):
    rec = Recurrence(b=tuple(b), lam=tuple(lam))
    inv = mat_inverse(coefficient_array(rec, 6))
    assert column(inv, 0) == moments_by_jacobi_recurrence(rec, 6)


def test_gram_orthogonality():
    # sum_j a[n][j] m[i+j] = 0 for i < n: direct summation, small degrees.
    for params in (TANH_PARAMS, ARCTAN_PARAMS, HERMITE_LIKE_PARAMS):
        rec = recurrence_from_jacobi(params, 8)
        arr = coefficient_array(rec, 4)
        m = moments(rec, 8)
        for n in range(1, 5):
            for i in range(n):
                total = sum(arr.rows[n][j] * m[i + j] for j in range(n + 1))
                assert total == 0


# ---------------------------------------------------------------------------
# Hankel transforms
# ---------------------------------------------------------------------------


def test_hankel_of_sech_squared_expansion():
    g, _ = pair("tanh", 12)
    assert hankel_transform(g.egf(), 4) == [1, -2, -24, 3456, 9953280]


def test_hankel_of_tanh_expansion():
    _, f = pair("tanh", 12)
    assert hankel_transform(f.egf(), 5) == [0, -1, 0, 144, 0, -1194393600]


def test_hankel_of_zero_sequence():
    assert hankel_transform([F(0)] * 9, 4) == [0, 0, 0, 0, 0]


def test_hankel_needs_enough_terms():
    with pytest.raises(ValueError, match="^need 5 terms for h_0..h_2$"):
        hankel_transform([1, 2, 3], 2)


def test_hankel_rejects_negative_order():
    with pytest.raises(ValueError, match="^Hankel order -1 is negative$"):
        hankel_transform([1, 2, 3], -1)


@st.composite
def hankel_sequences(draw, max_n=6, extra=0, starts=(None, 0)):
    """(seq, n): 2n+1+extra rational terms, with forced zeros, m_0 drawn from
    ``starts`` (None keeps it), and sometimes m_{2k} moved so that h_k = 0
    for a middle k."""
    n = draw(st.integers(0, max_n))
    seq = draw(st.lists(HANKEL_TERMS, min_size=2 * n + 1 + extra, max_size=2 * n + 1 + extra))
    for i in draw(st.sets(st.integers(0, len(seq) - 1), max_size=3)):
        seq[i] = F(0)
    start = draw(st.sampled_from(starts))
    if start is not None:
        seq[0] = F(start)
    if n >= 2 and draw(st.booleans()):
        # h_k = h_k|_{m_2k = 0} + m_2k h_{k-1}: m_2k sits only at entry (k, k).
        k = draw(st.integers(1, n - 1))
        below = hankel_det(seq, k - 1)
        if below:
            seq[2 * k] -= hankel_det(seq, k) / below
            assert hankel_det(seq, k) == 0
    return seq, n


@given(hankel_sequences())
@settings(max_examples=150, deadline=None)
def test_hankel_transform_matches_determinants(case):
    seq, n = case
    want = [hankel_det(seq, k) for k in range(n + 1)]
    assert hankel_transform(seq, n) == want


def _monomial(c, k: int, order: int):
    """c x^k as an order-``order`` jet (zero when k > order)."""
    return series([0] * k + [c] if k <= order else [], order)


@st.composite
def block_sequences(draw, max_n=9):
    """(seq, n, nonzero): 2n+1 terms whose leading Hankel minors vanish in
    blocks.  ``nonzero`` is the set of n with h_n != 0 when the sequence is
    expanded from a drawn H-fraction, else None.

    Kinds: an H-fraction v_0 x^k_0 / (1 + u_1(x) x - v_1 x^(k_0+k_1+2) / ...)
    with k_j up to 3, expanded from its last level up; a run of leading
    zeros; a zero at every second or third term; and the drawn cases of
    ``hankel_sequences``."""
    kind = draw(st.sampled_from(("hfraction", "leading", "sparse", "drawn")))
    if kind == "drawn":
        seq, n = draw(hankel_sequences(max_n=max_n))
        return seq, n, None
    n = draw(st.integers(0, max_n))
    order = 2 * n
    nonzero = None
    if kind == "hfraction":
        ks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=max_n + 1))
        vs = draw(st.lists(HANKEL_TERMS.filter(bool), min_size=len(ks), max_size=len(ks)))
        us = [draw(st.lists(HANKEL_TERMS, min_size=k + 1, max_size=k + 1)) for k in ks]
        tail = series([], order)  # G_J = 0 past the last level
        for j in reversed(range(len(ks))):
            # G_j = v_j x^k_j / (1 + u_(j+1)(x) x - x^(k_j+2) G_(j+1))
            den = series(([1] + us[j])[: order + 1], order)
            tail = _monomial(vs[j], ks[j], order) / (den - _monomial(1, ks[j] + 2, order) * tail)
        seq = list(tail.coeffs)
        # h_n != 0 exactly at n = s_(j+1) - 1, s_(j+1) = (k_0 + 1) + ... + (k_j + 1)
        nonzero = {s - 1 for s in accumulate(k + 1 for k in ks) if s - 1 <= n}
    else:
        seq = draw(st.lists(HANKEL_TERMS, min_size=order + 1, max_size=order + 1))
        if kind == "leading":
            zeros = draw(st.integers(1, order + 1))
            seq[:zeros] = [F(0)] * zeros
        else:
            step = draw(st.sampled_from((2, 3)))
            offset = draw(st.integers(0, step - 1))
            seq[offset::step] = [F(0)] * len(seq[offset::step])
    return seq, n, nonzero


@given(block_sequences())
@settings(max_examples=200, deadline=None)
def test_hankel_transform_matches_determinants_in_blocks(case):
    seq, n, nonzero = case
    want = [hankel_det(seq, k) for k in range(n + 1)]
    if nonzero is not None:  # Han's theorem, on the oracle's determinants
        assert {k for k, h in enumerate(want) if h} == nonzero
    assert hankel_transform(seq, n) == want


def _catalog_sequences():
    for eid in catalog.ids():
        for side, get in (("forward", pair), ("inverse", catalog.inverse_pair)):
            g, f = get(eid, 24)
            yield pytest.param(g.egf(), id=f"{eid}-{side}-g")
            yield pytest.param(f.egf(), id=f"{eid}-{side}-f")


@pytest.mark.parametrize("seq", list(_catalog_sequences()))
def test_catalog_hankel_transform_matches_determinants(seq):
    assert hankel_transform(seq, 12) == [hankel_det(seq, n) for n in range(13)]


def test_tanh_hankel_transform_at_32():
    # m_0 = 0 and every even h_n vanishes: sixteen levels with k_j = 1.
    assert hankel_formula_check("tanh", 32)
    seq = pair("tanh", 64)[1].egf()
    assert hankel_transform(seq, 32) == [hankel_det(seq, n) for n in range(33)]


def test_hankel_formula_checks():
    assert hankel_formula_check("sech2", 5)
    assert hankel_formula_check("tanh", 6)
    assert hankel_formula_check("sec2_moments", 5)
    with pytest.raises(ValueError, match="unknown"):
        hankel_formula_check("nope", 3)


def test_sec2_moment_hankel_example():
    rec = recurrence_from_jacobi(ARCTAN_PARAMS, 8)
    m = moments(rec, 8)
    assert m == (sec_series(8) ** 2).egf()
    assert hankel_transform(m, 2)[2] == 24  # (1*2)^2 * (2*3)^1


def _heilermann(m0, lam, n_max: int) -> list[F]:
    """h_n = m_0^{n+1} prod_{k=1..n} lambda_k^{n+1-k} for n = 0..n_max."""
    out = []
    for n in range(n_max + 1):
        expected = F(m0) ** (n + 1)
        for k in range(1, n + 1):
            expected *= lam[k - 1] ** (n + 1 - k)
        out.append(expected)
    return out


@given(
    b=st.lists(st.integers(-2, 2), min_size=14, max_size=14),
    lam=st.lists(st.integers(-2, 2), min_size=13, max_size=13),
)
@settings(max_examples=30)
def test_hankel_jacobi_product_identity(b, lam):
    # h_n = prod_{k=1..n} lambda_k^{n+1-k} for the moments of any monic
    # three-term family, vanishing lambdas included.
    rec = Recurrence(b=tuple(map(F, b)), lam=tuple(map(F, lam)))
    m = moments(rec, 14)
    assert hankel_transform(m, 7) == _heilermann(1, rec.lam, 7)


@pytest.mark.parametrize(
    "eid",
    [e for e in catalog.ids() if catalog.entry(e).jacobi or catalog.entry(e).inverse_jacobi],
)
def test_catalog_hankel_transform_is_heilermann_product(eid):
    ent = catalog.entry(eid)
    rec = recurrence_from_jacobi(ent.jacobi or ent.inverse_jacobi, 48)
    m = moments(rec, 48)
    assert hankel_transform(m, 24) == _heilermann(m[0], rec.lam, 24)


# ---------------------------------------------------------------------------
# J-fractions
# ---------------------------------------------------------------------------


def test_jfraction_gompertz():
    g, _ = pair("gompertz", 20)
    rec = jfraction(g.egf(), 9)
    assert rec.b == tuple(-k for k in range(9))
    assert rec.lam == tuple(-k for k in range(1, 10))


def test_jfraction_aerated_catalan():
    m = [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42]
    rec = jfraction(m, 5)
    assert rec.b == (0, 0, 0, 0, 0)
    assert rec.lam == (1, 1, 1, 1, 1)


def test_jfraction_sec2_moments():
    rec_in = recurrence_from_jacobi(ARCTAN_PARAMS, 13)
    m = moments(rec_in, 13)
    rec = jfraction(m, 6)
    assert rec.b == (0,) * 6
    assert rec.lam == tuple(k * (k + 1) for k in range(1, 7))


def test_jfraction_matches_determinant_ratios():
    g, _ = pair("gompertz", 16)
    seq = g.egf()
    via_peel = jfraction(seq, 6)
    via_dets = jfraction_by_determinants(seq, 6)
    assert via_peel.b == via_dets.b
    assert via_peel.lam == via_dets.lam


def test_jfraction_short_input_raises():
    with pytest.raises(ValueError, match="need 9 moments"):
        jfraction([1, 0, 1], 4)


def test_jfraction_vanishing_determinant_raises():
    with pytest.raises(ValueError, match="vanishing Hankel determinant"):
        jfraction([1, 0, 0, 0, 0, 0, 0], 3)


def _outcome(expand, m, depth):
    try:
        rec = expand(m, depth)
    except ValueError as exc:
        return str(exc)
    return rec.b, rec.lam


@given(
    hankel_sequences(max_n=5, extra=1, starts=(1, 1, 1, 1, 1, 1, None, 0)),
    st.sampled_from((0, 0, 0, 0, 0, 1)),
)
@settings(max_examples=150, deadline=None)
def test_jfraction_matches_per_level_oracle(case, short):
    # Depth n leaves one spare term; depth n + 1 runs one term short.
    m, depth = case
    depth += short
    got = _outcome(jfraction, m, depth)
    assert got == _outcome(jfraction_by_levels, m, depth)
    if not isinstance(got, str):  # then m_0 = 1 and h_0..h_(depth-1) != 0
        assert got == _outcome(jfraction_by_determinants, m, depth)


def test_moment_columns_without_jacobi_data():
    # The first column of the array, g's EGF, expanded as a J-fraction.  erf
    # gives a Hermite-type family although its own production matrix is not
    # tridiagonal; algebraic gives b = 0 and lambda_k that are not polynomial
    # in k; quartic has h_1 = h_2 = 0, so its J-fraction stops at depth 1.
    rec = jfraction(pair("erf", 16)[0].egf(), 8)
    assert rec.b == (0,) * 8
    assert rec.lam == tuple(-2 * k for k in range(1, 9))
    rec = jfraction(pair("algebraic", 16)[0].egf(), 8)
    assert rec.b == (0,) * 8
    assert rec.lam == (
        -3, -12, -25, -44, F(-735, 11), F(-5268, 55), F(-281853, 2195), F(-69707280, 416611)
    )
    m = pair("quartic", 16)[0].egf()
    with pytest.raises(ValueError, match="^vanishing Hankel determinant at depth 1;"):
        jfraction(m, 8)
    assert hankel_transform(m, 6) == [1, 0, 0, 27000, 1506600000, 0, 0]


def test_cf_to_ogf_trivial():
    rec = Recurrence(b=(0, 0, 0), lam=(0, 0))
    assert cf_to_ogf(rec, 6).coeffs == (1, 0, 0, 0, 0, 0, 0)


def test_cf_to_ogf_gompertz():
    # The J-fraction OGF carries the moments as ordinary coefficients.
    got = cf_to_ogf(GOMPERTZ_REC, 6)
    assert got.coeffs == (1, 0, -1, 1, 2, -9, 9)


def test_cf_to_ogf_catalan():
    rec = Recurrence(b=(0,) * 6, lam=(1,) * 6)
    assert cf_to_ogf(rec, 10).coeffs == (1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42)


@given(
    b=st.lists(st.integers(-3, 3), min_size=1, max_size=6),
    lam=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
    head=st.builds(F, st.integers(-5, 5), st.integers(2, 7)).filter(lambda q: q.denominator > 1),
    on_lambda=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_cf_to_ogf_with_one_fractional_head_term(b, lam, head, on_lambda):
    # Only b_0 or lambda_1 carries a denominator: both lie in the convergent's
    # denominator data and not in its numerator's, so the two rows' own
    # scales differ.
    b, lam = list(map(F, b)), list(map(F, lam))
    if on_lambda:
        lam[0] = head
    else:
        b[0] = head
    rec = Recurrence(b=tuple(b), lam=tuple(lam))
    for depth in range(len(b) + 1):
        order = 2 * depth + 3
        assert cf_to_ogf(rec, order, depth).coeffs == cf_to_ogf_by_levels(rec, order, depth).coeffs


def test_cf_to_ogf_low_orders():
    rec = Recurrence(b=(0, 0), lam=(1,))
    assert cf_to_ogf(rec, 0).coeffs == (1,)
    assert cf_to_ogf(rec, 1).coeffs == (1, 0)
    with pytest.raises(ValueError, match="depth 3"):
        cf_to_ogf(rec, 4, 3)


@given(
    b=st.lists(RATIONALS, max_size=6),
    extra=st.integers(-2, 2),
    lam=st.lists(RATIONALS, min_size=8, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_cf_to_ogf_matches_per_level_oracle(b, extra, lam):
    # lambda data shorter than, as long as, or longer than b.
    rec = Recurrence(b=tuple(b), lam=tuple(lam[: max(0, len(b) + extra)]))
    for depth in range(len(b) + 1):
        for order in range(3 * depth + 3):
            got = cf_to_ogf(rec, order, depth)
            # The oracle builds x^2, so it runs at order >= 2 and is truncated.
            want = cf_to_ogf_by_levels(rec, max(order, 2), depth).truncate(order)
            assert got.coeffs == want.coeffs
    assert cf_to_ogf(rec, 9).coeffs == cf_to_ogf_by_levels(rec, 9).coeffs


@given(
    b=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    lam=st.lists(st.integers(1, 3), min_size=4, max_size=4),
)
@settings(max_examples=30)
def test_jfraction_round_trip(b, lam):
    rec = Recurrence(b=tuple(map(F, b)), lam=tuple(map(F, lam)))
    ogf = cf_to_ogf(rec, 9)
    back = jfraction(ogf.coeffs, 4)
    assert back.b == rec.b
    assert back.lam == rec.lam
