"""Exact exponential Riordan arrays for sigmoid function pairs.

The package computes, entirely over the rationals: truncated power series
(`series`), exponential Riordan arrays and their group law (`riordan`),
production (Stieltjes) matrices by two independent routes (`production`),
monic orthogonal-polynomial recurrences, moments, Hankel transforms and
J-fractions (`orthopoly`), a catalog of named sigmoid pairs (`catalog`),
and a CLI (`cli`).
"""

from .series import (
    Rational,
    Series,
    exp_series,
    from_egf,
    geometric,
    log_series,
    one,
    pow_rational,
    series,
    x,
)
from .riordan import (
    ExpRiordan,
    PolynomialFamily,
    TriMatrix,
    build,
    identity_array,
    inverse,
    is_checkerboard,
    is_derivative_subgroup,
    mat_inverse,
    mat_mul,
    multiply,
    row_polynomials,
    shift_apply,
    solve_lower,
)
from .production import (
    JacobiParams,
    ZAPair,
    derivative_production_check,
    production_analytic,
    production_definitional,
    tridiagonal_params,
    za_sequences,
)
from .orthopoly import (
    Recurrence,
    cf_to_ogf,
    coefficient_array,
    hankel,
    hankel_transform,
    jfraction,
    moments,
    recurrence_from_jacobi,
)

__version__ = "0.1.0"
