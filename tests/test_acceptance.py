"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every comparison is exact rational equality; the stated time
budgets are asserted with `time.perf_counter`.
"""

import random
import time
from fractions import Fraction as F

from helpers import (
    NON_SIGMOID_IDS,
    derivative_closed_production,
    gompertz_identities,
    random_riordan_pair,
    stirling2,
)

from expriordan import catalog
from expriordan.catalog import (
    entry,
    expx_series,
    ids,
    inverse_pair,
    pair,
    sample_curve,
    sample_parametric,
    tanh_series,
)
from expriordan.orthopoly import (
    Recurrence,
    coefficient_array,
    hankel_transform,
    jfraction,
    moments,
    recurrence_from_jacobi,
)
from expriordan.production import (
    JacobiParams,
    production_analytic,
    production_definitional,
    za_sequences,
)
from expriordan.riordan import (
    build,
    format_polynomial,
    from_rows,
    inverse,
    mat_inverse,
    mat_mul,
    multiply,
    row_polynomials,
)
from expriordan.series import one, x


def _report(label: str, ok: bool, elapsed: float) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.2f}s)")
    assert ok, label


def _block(arr_matrix, k=7):
    return arr_matrix.leading(k)


# -- reference 7x7 blocks ----------------------------------------------------

COS_SIN_BLOCK = from_rows(
    [
        [1],
        [0, 1],
        [-1, 0, 1],
        [0, -4, 0, 1],
        [1, 0, -10, 0, 1],
        [0, 16, 0, -20, 0, 1],
        [-1, 0, 91, 0, -35, 0, 1],
    ]
)

COS_SIN_PRODUCTION = from_rows(
    [
        [0, 1],
        [-1, 0, 1],
        [0, -3, 0, 1],
        [-3, 0, -6, 0, 1],
        [0, -15, 0, -10, 0, 1],
        [-45, 0, -45, 0, -15, 0, 1],
        [0, -315, 0, -105, 0, -21, 0],
    ]
)

COS_SIN_INVERSE_PRODUCTION = from_rows(
    [
        [0, 1],
        [1, 0, 1],
        [0, 3, 0, 1],
        [5, 0, 6, 0, 1],
        [0, 25, 0, 10, 0, 1],
        [61, 0, 75, 0, 15, 0, 1],
        [0, 427, 0, 175, 0, 21, 0],
    ]
)

PASCAL_PRODUCTION = from_rows(
    [[1 if j in (i, i + 1) else 0 for j in range(min(i + 2, 7))] for i in range(7)]
)

ERF_BLOCK = from_rows(
    [
        [1],
        [0, 1],
        [-2, 0, 1],
        [0, -8, 0, 1],
        [12, 0, -20, 0, 1],
        [0, 112, 0, -40, 0, 1],
        [-120, 0, 532, 0, -70, 0, 1],
    ]
)

ERF_PRODUCTION = from_rows(
    [
        [0, 1],
        [-2, 0, 1],
        [0, -6, 0, 1],
        [-4, 0, -12, 0, 1],
        [0, -20, 0, -20, 0, 1],
        [-56, 0, -60, 0, -30, 0, 1],
        [0, -392, 0, -140, 0, -42, 0],
    ]
)

# Forced by the defining coefficient formula, both factorizations, and the
# Stirling double-sum identity (criterion 6); see GOMPERTZ_PRINTED_VARIANT.
GOMPERTZ_BLOCK = from_rows(
    [
        [1],
        [0, 1],
        [-1, 0, 1],
        [1, -4, 0, 1],
        [2, 5, -10, 0, 1],
        [-9, 22, 15, -20, 0, 1],
        [9, -98, 112, 35, -35, 0, 1],
    ]
)

# A circulating rendering of the same block: the odd columns carry flipped
# signs (so its diagonal alternates, contradicting unit-diagonality) and the
# entries at (4,1), (6,1), (6,3) are garbled outright.  Kept here so nobody
# "fixes" the suite back to it.
GOMPERTZ_PRINTED_VARIANT = from_rows(
    [
        [1],
        [0, -1],
        [-1, 0, 1],
        [1, 4, 0, -1],
        [2, -3, -10, 0, 1],
        [-9, -22, 5, 20, 0, -1],
        [9, 50, 112, -5, -35, 0, 1],
    ]
)

STIRLING_BLOCK = from_rows(
    [
        [1],
        [0, 1],
        [0, 1, 1],
        [0, 1, 3, 1],
        [0, 1, 7, 6, 1],
        [0, 1, 15, 25, 10, 1],
        [0, 1, 31, 90, 65, 15, 1],
    ]
)

ALGEBRAIC_BLOCK = from_rows(
    [
        [1],
        [0, 1],
        [-3, 0, 1],
        [0, -12, 0, 1],
        [45, 0, -30, 0, 1],
        [0, 360, 0, -60, 0, 1],
        [-1575, 0, 1575, 0, -105, 0, 1],
    ]
)


def test_criterion_1_displayed_blocks():
    start = time.perf_counter()
    order = 16
    checks = [
        _block(build(*pair("cos_sin", order)).matrix) == COS_SIN_BLOCK,
        _block(production_definitional(build(*pair("cos_sin", order))))
        == COS_SIN_PRODUCTION,
        _block(production_definitional(inverse(build(*pair("cos_sin", order)))))
        == COS_SIN_INVERSE_PRODUCTION,
        _block(production_definitional(build(*pair("pascal", order))))
        == PASCAL_PRODUCTION,
        _block(build(*pair("erf", order)).matrix) == ERF_BLOCK,
        _block(production_definitional(build(*pair("erf", order)))) == ERF_PRODUCTION,
        _block(build(*pair("gompertz", order)).matrix) == GOMPERTZ_BLOCK,
        _block(stirling2(order)) == STIRLING_BLOCK,
        _block(build(*pair("algebraic", order)).matrix) == ALGEBRAIC_BLOCK,
    ]
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: nine displayed 7x7 blocks reproduced at order 16",
        all(checks) and elapsed < 1.0,
        elapsed,
    )


def test_criterion_2_dual_route_and_closed_production():
    start = time.perf_counter()
    order = 12
    ok = True
    for eid in ids():
        g, f = pair(eid, order)
        definitional = production_definitional(build(*pair(eid, order)))
        ok = ok and production_analytic(za_sequences(g, f), order) == definitional
    for eid in ids():
        if eid == "pascal":
            continue  # not in the derivative subgroup
        _, f = pair(eid, order)
        closed = derivative_closed_production(f)
        definitional = production_definitional(build(*pair(eid, order)))
        ok = ok and closed == definitional.leading(order - 1)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2: dual-route production (10 entries) and closed forms "
        "(9 derivative-subgroup entries) at order 12",
        ok and elapsed < 5.0,
        elapsed,
    )


def test_criterion_3_hankel_transforms():
    start = time.perf_counter()
    order = 32
    g, f = pair("tanh", order)
    ok = hankel_transform(g.egf(), 6) == [
        1,
        -2,
        -24,
        3456,
        9953280,
        -859963392000,
        -3120635156889600000,
    ]
    ok = ok and hankel_transform(f.egf(), 7) == [
        0,
        -1,
        0,
        144,
        0,
        -1194393600,
        0,
        15728001190723584000000,
    ]
    sec2 = build(*inverse_pair("arctan", order)).g
    hs = hankel_transform(sec2.egf(), 6)
    for n in range(7):
        prod = F(1)
        for k in range(n + 1):
            prod *= F((k + 1) * (k + 2)) ** (n - k)
        ok = ok and hs[n] == prod
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3: Hankel transforms at order 32 (sech^2, tanh, sec^2 moments)",
        ok and elapsed < 10.0,
        elapsed,
    )


def test_criterion_4_polynomial_families():
    start = time.perf_counter()

    def fam(params):
        arr = _coeff_rows(params, 6)
        return [format_polynomial(row) for row in arr]

    ok = fam(JacobiParams(0, 2, 0, 1)) == [
        "1",
        "x",
        "x^2 - 2",
        "x^3 - 8x",
        "x^4 - 20x^2 + 24",
        "x^5 - 40x^3 + 184x",
        "x^6 - 70x^4 + 784x^2 - 720",
    ]
    ok = ok and fam(JacobiParams(0, -2, 0, -1)) == [
        "1",
        "x",
        "x^2 + 2",
        "x^3 + 8x",
        "x^4 + 20x^2 + 24",
        "x^5 + 40x^3 + 184x",
        "x^6 + 70x^4 + 784x^2 + 720",
    ]
    ok = ok and fam(JacobiParams(0, -2, 0, 0)) == [
        "1",
        "x",
        "x^2 + 2",
        "x^3 + 6x",
        "x^4 + 12x^2 + 12",
        "x^5 + 20x^3 + 60x",
        "x^6 + 30x^4 + 180x^2 + 120",
    ]
    rows = row_polynomials(build(*pair("algebraic", 6)))
    ok = ok and [format_polynomial(row) for row in rows] == [
        "1",
        "x",
        "x^2 - 3",
        "x^3 - 12x",
        "x^4 - 30x^2 + 45",
        "x^5 - 60x^3 + 360x",
        "x^6 - 105x^4 + 1575x^2 - 1575",
    ]
    elapsed = time.perf_counter() - start
    _report("criterion 4: four polynomial families, 7 polynomials each", ok, elapsed)


def _coeff_rows(params, n):
    from expriordan.orthopoly import coefficient_array

    arr = coefficient_array(recurrence_from_jacobi(params, n), n)
    return [arr.rows[i][: i + 1] for i in range(n + 1)]


def test_criterion_5_secant_squared_moments():
    start = time.perf_counter()
    expected = (1, 0, 2, 0, 16, 0, 272, 0, 7936, 0, 353792, 0, 22368256)
    rec = recurrence_from_jacobi(JacobiParams(0, 2, 0, 1), 13)
    ok = moments(rec, 12) == expected
    sec2 = build(*inverse_pair("arctan", 13)).g
    ok = ok and sec2.egf()[:13] == expected
    elapsed = time.perf_counter() - start
    _report("criterion 5: thirteen moments of sec^2", ok, elapsed)


def test_criterion_6_gompertz_suite():
    start = time.perf_counter()
    ok = gompertz_identities(10)
    g, _ = pair("gompertz", 20)
    rec = jfraction(g.egf(), 9)
    ok = ok and rec.b == tuple(-k for k in range(9))
    ok = ok and rec.lam[:8] == tuple(-k for k in range(1, 9))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 6: Gompertz factorizations, Stirling sums (n<=10), "
        "J-fraction b_k = lambda_k = -k (k<=8)",
        ok,
        elapsed,
    )


def test_criterion_7_group_law_suite():
    start = time.perf_counter()
    rng = random.Random(20260810)
    order = 8
    pairs = [random_riordan_pair(rng, order) for _ in range(200)]
    ident = build(one(order), x(order))
    ok = True
    for i, a in enumerate(pairs):
        inv = inverse(a)
        ok = ok and multiply(a, inv) == ident
        ok = ok and mat_inverse(a.matrix) == inv.matrix
        b = pairs[(i + 17) % 200]
        c = pairs[(i + 71) % 200]
        ab = multiply(a, b)
        ok = ok and mat_mul(a.matrix, b.matrix) == ab.matrix
        ok = ok and multiply(ab, c) == multiply(a, multiply(b, c))
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7: 200 random order-8 arrays: inverses, associativity, "
        "matrix/series agreement",
        ok and elapsed < 30.0,
        elapsed,
    )


def test_criterion_8_documented_value_corrections():
    start = time.perf_counter()
    n = 10
    # Shifted-logistic oracle: 1/(1+e^{-x}) - 1/2 computed by series division
    # alone; independently, tanh(x/2)/2 by argument rescaling.  Both give
    # x^5 EGF coefficient 1/4 (not 1/8).
    logistic = 1 / (1 + expx_series(n, scale=-1)) - F(1, 2)
    ok = logistic == tanh_series(n).scale_argument(F(1, 2)) / 2
    ok = ok and logistic.egf()[5] == F(1, 4)

    # Gompertz moments: the J-fraction expansion of the family with
    # b_k = -k, lambda_k = -k, cross-checked against the series expansion of
    # the first catalog column.  The result is
    # 1, 0, -1, 1, 2, -9, 9 -- not the concatenation-garbled
    # "1, 0, -1, 12, -9, 9".
    grec = Recurrence(b=tuple(-k for k in range(7)), lam=tuple(-k for k in range(1, 7)))
    m = moments(grec, 6)
    ok = ok and m == (1, 0, -1, 1, 2, -9, 9)
    ok = ok and m == pair("gompertz", 6)[0].egf()
    ok = ok and list(m[:6]) != [1, 0, -1, 12, -9, 9]

    # Monic normalization forces P_1 = x for the Gompertz family (b_0 = 0).
    arr = coefficient_array(grec, 1)
    ok = ok and arr.rows[1] == (0, 1)

    # The printed Gompertz block variant disagrees with the identity-forced
    # matrix (criterion 1g/6); keep the disagreement pinned.
    computed = build(*pair("gompertz", 8)).matrix.leading(7)
    ok = ok and computed == GOMPERTZ_BLOCK
    ok = ok and computed != GOMPERTZ_PRINTED_VARIANT
    ok = ok and GOMPERTZ_PRINTED_VARIANT.entry(1, 1) == -1  # breaks t_nn = 1

    elapsed = time.perf_counter() - start
    _report("criterion 8: documented value corrections", ok, elapsed)


def test_criterion_9_plot_data_sanity():
    start = time.perf_counter()
    grid = catalog.SampleGrid(-4.0, 4.0, 200)
    ok = True
    for fp, f in sample_parametric(entry("cos_sin"), grid):
        ok = ok and abs(fp * fp + f * f - 1.0) < 1e-12
    for eid in ids():
        e = entry(eid)
        if eid in NON_SIGMOID_IDS:
            continue
        rows = sample_curve(e, grid)
        ok = ok and all(fp > 0 for _, _, fp in rows)
        values = [f for _, f, _ in rows]
        ok = ok and all(a <= b for a, b in zip(values, values[1:]))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 9: unit circle within 1e-12; sigmoid samples positive-slope "
        "and nondecreasing",
        ok,
        elapsed,
    )
