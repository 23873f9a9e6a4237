"""The catalog: named sigmoid pairs and their stated forms, over exact series.

The sigmoid entries are elements [f', f] of the derivative subgroup, which g
alone fixes: each entry states g, and :func:`pair` takes f = int_0^x g.  The
one entry outside the subgroup, ``pascal`` = [e^x, x], states f as well.
Each entry also states the float evaluators used for plot sampling, the
inverse pair where it has a closed form, the (Z, A) series of its
production matrix where they have one, and the tridiagonal production data
where the entry (or its inverse) carries a family of formally orthogonal
polynomials.

Transcendental constants are normalized away so every series stays over
the rationals: the error-function entry uses int_0^x exp(-t^2) dt, which
equals (sqrt(pi)/2) erf(x) exactly, and the Gompertz entry's leading
constant e cancels inside exp(1 - exp(-x)).  The float evaluators carry
the true constants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Optional

from .production import JacobiParams, ZAPair
from .series import (
    Series,
    _egf_quotient,
    _Frozen,
    exp_series,
    from_egf,
    log_series,
    one,
    pow_rational,
    series,
    x,
)

__all__ = [
    "CatalogEntry",
    "SampleGrid",
    "entry",
    "ids",
    "pair",
    "inverse_pair",
    "za_closed_form",
    "sample_curve",
    "sample_parametric",
    "sin_series",
    "cos_series",
    "expx_series",
    "tan_series",
    "sec_series",
    "tanh_series",
    "sech_series",
    "artanh_series",
    "arcsin_series",
    "gauss_series",
    "log1p_series",
]


# ---------------------------------------------------------------------------
# exact series for the elementary functions involved
# ---------------------------------------------------------------------------


# The integer EGF rows of sin, cos, sinh and cosh repeat with these periods.
_SIN, _COS, _SINH, _COSH = (0, 1, 0, -1), (1, 0, -1, 0), (0, 1), (1, 0)


def _periodic(period: tuple[int, ...], order: int) -> list[int]:
    return [period[k % len(period)] for k in range(order + 1)]


def sin_series(order: int) -> Series:
    return from_egf(_periodic(_SIN, order))


def cos_series(order: int) -> Series:
    return from_egf(_periodic(_COS, order))


def expx_series(order: int, scale: int = 1) -> Series:
    """e^{scale * x}."""
    return from_egf([scale**k for k in range(order + 1)])


def tan_series(order: int) -> Series:
    return from_egf(_egf_quotient(_periodic(_SIN, order), _periodic(_COS, order)))


def sec_series(order: int) -> Series:
    return from_egf(_egf_quotient([1] + [0] * order, _periodic(_COS, order)))


def tanh_series(order: int) -> Series:
    return from_egf(_egf_quotient(_periodic(_SINH, order), _periodic(_COSH, order)))


def sech_series(order: int) -> Series:
    return from_egf(_egf_quotient([1] + [0] * order, _periodic(_COSH, order)))


def _ogf(term: Callable[[int], Fraction | int], order: int) -> Series:
    """The series with ordinary coefficients term(0), ..., term(order)."""
    return Series(tuple(term(k) for k in range(order + 1)))


def artanh_series(order: int) -> Series:
    return _ogf(lambda k: Fraction(1, k) if k % 2 else 0, order)


def arcsin_series(order: int) -> Series:
    return _ogf(
        lambda k: Fraction(comb(k - 1, k // 2), 4 ** (k // 2) * k) if k % 2 else 0, order
    )


def gauss_series(order: int) -> Series:
    """exp(-x^2)."""
    return _ogf(lambda k: 0 if k % 2 else Fraction((-1) ** (k // 2), factorial(k // 2)), order)


def log1p_series(order: int) -> Series:
    return _ogf(lambda k: Fraction((-1) ** (k + 1), k) if k else 0, order)


def _poly(coeffs: list[int], order: int) -> Series:
    return series(coeffs[: order + 1], order=order)


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------

PairBuilder = Callable[[int], Series]


class CatalogEntry(_Frozen):
    __slots__ = (
        "id", "g_label", "f_label", "notes", "g_series", "f_eval", "fprime_eval",
        "f_series", "inverse_g", "inverse_f", "a_closed", "z_closed",
        "jacobi", "inverse_jacobi",
    )

    def __init__(
        self,
        id: str,
        g_label: str,
        f_label: str,
        notes: str,
        g_series: PairBuilder,
        f_eval: Callable[[float], float],
        fprime_eval: Callable[[float], float],
        # Only for a pair outside the derivative subgroup; otherwise f = int g.
        f_series: Optional[PairBuilder] = None,
        inverse_g: Optional[PairBuilder] = None,
        inverse_f: Optional[PairBuilder] = None,
        a_closed: Optional[PairBuilder] = None,
        z_closed: Optional[PairBuilder] = None,
        jacobi: Optional[JacobiParams] = None,
        inverse_jacobi: Optional[JacobiParams] = None,
    ) -> None:
        self._set_fields(
            id, g_label, f_label, notes, g_series, f_eval, fprime_eval,
            f_series, inverse_g, inverse_f, a_closed, z_closed, jacobi, inverse_jacobi,
        )


def _geom_x2(c: int, order: int) -> Series:
    """1/(1 - c x^2)."""
    return _ogf(lambda k: 0 if k % 2 else c ** (k // 2), order)


def _gompertz_g(order: int) -> Series:
    # The exponent 1 - e^(-x) - x has the integer EGF row 0, 0, -1, 1, -1, ...
    row = [0, 0, *((-1) ** (m + 1) for m in range(2, order + 1))]
    return exp_series(from_egf(row[: order + 1]))


def _gompertz_inverse_f(order: int) -> Series:
    return -log_series(1 - log1p_series(order))


def _gompertz_a(order: int) -> Series:
    return _poly([1, 1], order) * (1 - log1p_series(order))


def _algebraic_f(t: float) -> float:
    """x/sqrt(1 + x^2).  t*t overflows to inf past |t| = 1.3e154, which
    would give 0; from |t| = 1e150 on, f is sign(t) to within 1/(2t^2), far
    below half an ulp of 1."""
    if abs(t) < 1e150:
        return t / math.sqrt(1.0 + t * t)
    return math.copysign(1.0, t)


def _sech_power(t: float, p: int) -> float:
    """sech(t)^p.  cosh(t)^p overflows past |t| = 710/p; from |t| = 350 on,
    sech(t) is 2 e^(-|t|) to within a relative e^(-700), far below half an
    ulp, and the power underflows to 0 where sech^p does."""
    if abs(t) < 350:
        return 1.0 / math.cosh(t) ** p
    return (2.0 * math.exp(-abs(t))) ** p


def _gudermann_f(t: float) -> float:
    """gd(t) = arctan(sinh(t)).  sinh overflows past |t| = 710; from |t| =
    700 on, gd is sign(t) pi/2 to within 2 e^(-|t|)."""
    if abs(t) < 700:
        return math.atan(math.sinh(t))
    return math.copysign(math.pi / 2, t)


def _gompertz_f(t: float) -> float:
    """exp(1 - e^(-t)) - 1.  e^(-t) overflows below t = -709.78; from t =
    -700 down, exp(1 - e^(-t)) is below e^(-1e304): f is -1 and f' is 0."""
    if t >= -700:
        return math.exp(1.0 - math.exp(-t)) - 1.0
    return -1.0


def _gompertz_fprime(t: float) -> float:
    if t >= -700:
        return math.exp(1.0 - t - math.exp(-t))
    return 0.0


def _quartic_f(t: float) -> float:
    """x/(1 + x^4)^(1/4).  t**4 overflows past |t| = 1.1e77; from |t| = 1e75
    on, f is sign(t) to within 1/(4t^4)."""
    if abs(t) < 1e75:
        return t / (1.0 + t**4) ** 0.25
    return math.copysign(1.0, t)


def _quartic_fprime(t: float) -> float:
    """(1 + x^4)^(-5/4), below 1e-375 from |t| = 1e75 on: 0 in floats."""
    if abs(t) < 1e75:
        return (1.0 + t**4) ** -1.25
    return 0.0


def _sec_integral(order: int) -> Series:
    """int_0^x sec(t) dt = log(sec(x) + tan(x))."""
    if order == 0:
        return series([0], order=0)
    return sec_series(order - 1).integrate()


ENTRIES: dict[str, CatalogEntry] = {}


def _register(e: CatalogEntry) -> None:
    ENTRIES[e.id] = e


_register(
    CatalogEntry(
        id="tanh",
        g_label="sech^2(x)",
        f_label="tanh(x)",
        notes="rescaled logistic; both production routes tridiagonal",
        g_series=lambda n: tanh_series(n + 1).derive(),
        f_eval=math.tanh,
        fprime_eval=lambda t: _sech_power(t, 2),
        inverse_g=lambda n: _geom_x2(1, n),
        inverse_f=artanh_series,
        a_closed=lambda n: _poly([1, 0, -1], n),
        z_closed=lambda n: _poly([0, -2], n),
        jacobi=JacobiParams(0, -2, 0, -1),
    )
)

_register(
    CatalogEntry(
        id="tanh2",
        g_label="sech^2(2x)",
        f_label="tanh(2x)/2",
        notes="argument-doubled variant of tanh; entries scale by 2^(n-k)",
        g_series=lambda n: (tanh_series(n + 1).scale_argument(2) / 2).derive(),
        f_eval=lambda t: 0.5 * math.tanh(2.0 * t),
        fprime_eval=lambda t: _sech_power(2.0 * t, 2),
        inverse_g=lambda n: _geom_x2(4, n),
        inverse_f=lambda n: artanh_series(n).scale_argument(2) / 2,
        a_closed=lambda n: _poly([1, 0, -4], n),
        z_closed=lambda n: _poly([0, -8], n),
        jacobi=JacobiParams(0, -8, 0, -4),
    )
)

_register(
    CatalogEntry(
        id="arctan",
        g_label="1/(1+x^2)",
        f_label="arctan(x)",
        notes="inverse-tangent sigmoid; the array is itself a coefficient array",
        g_series=lambda n: _geom_x2(-1, n),
        f_eval=math.atan,
        fprime_eval=lambda t: 1.0 / (1.0 + t * t),
        inverse_g=lambda n: tan_series(n + 1).derive(),
        inverse_f=tan_series,
        a_closed=lambda n: cos_series(n) ** 2,
        z_closed=lambda n: -sin_series(n).scale_argument(2),
        inverse_jacobi=JacobiParams(0, 2, 0, 1),
    )
)

_register(
    CatalogEntry(
        id="algebraic",
        g_label="(1+x^2)^(-3/2)",
        f_label="x/sqrt(1+x^2)",
        notes="algebraic sigmoid; production is not tridiagonal on either side",
        g_series=lambda n: pow_rational(_poly([1, 0, 1], n), Fraction(-3, 2)),
        f_eval=_algebraic_f,
        fprime_eval=lambda t: (1.0 + t * t) ** -1.5,
        inverse_g=lambda n: pow_rational(_poly([1, 0, -1], n), Fraction(-3, 2)),
        inverse_f=lambda n: pow_rational(_poly([1, 0, -1], n), Fraction(-1, 2)).times_x(),
        a_closed=lambda n: pow_rational(_poly([1, 0, -1], n), Fraction(3, 2)),
        z_closed=lambda n: -3 * pow_rational(_poly([1, 0, -1], n), Fraction(1, 2)).times_x(),
    )
)

_register(
    CatalogEntry(
        id="quartic",
        g_label="(1+x^4)^(-5/4)",
        f_label="x/(1+x^4)^(1/4)",
        notes="quartic member of the algebraic-sigmoid family",
        g_series=lambda n: pow_rational(_poly([1, 0, 0, 0, 1], n), Fraction(-5, 4)),
        f_eval=_quartic_f,
        fprime_eval=_quartic_fprime,
        inverse_g=lambda n: pow_rational(_poly([1, 0, 0, 0, -1], n), Fraction(-5, 4)),
        inverse_f=lambda n: pow_rational(_poly([1, 0, 0, 0, -1], n), Fraction(-1, 4)).times_x(),
        a_closed=lambda n: pow_rational(_poly([1, 0, 0, 0, -1], n), Fraction(5, 4)),
        z_closed=lambda n: -5
        * pow_rational(_poly([1, 0, 0, 0, -1], n), Fraction(1, 4))
        .times_x()
        .times_x()
        .times_x(),
    )
)

_register(
    CatalogEntry(
        id="gudermann",
        g_label="sech(x)",
        f_label="gd(x) = arctan(sinh(x))",
        notes="Gudermannian; factors through the secant-moment array",
        g_series=sech_series,
        f_eval=_gudermann_f,
        fprime_eval=lambda t: _sech_power(t, 1),
        inverse_g=sec_series,
        inverse_f=_sec_integral,
        a_closed=cos_series,
        z_closed=lambda n: -sin_series(n),
    )
)

_register(
    CatalogEntry(
        id="erf",
        g_label="exp(-x^2)",
        f_label="(sqrt(pi)/2) erf(x)",
        notes="error-function sigmoid; no closed form for the inverse pair",
        g_series=gauss_series,
        f_eval=lambda t: 0.5 * math.sqrt(math.pi) * math.erf(t),
        fprime_eval=lambda t: math.exp(-t * t),
    )
)

_register(
    CatalogEntry(
        id="gompertz",
        g_label="exp(1-x-exp(-x))",
        f_label="exp(1-exp(-x)) - 1",
        notes="Gompertz growth curve; not odd, tied to Stirling set numbers",
        g_series=_gompertz_g,
        f_eval=_gompertz_f,
        fprime_eval=_gompertz_fprime,
        inverse_g=lambda n: _gompertz_inverse_f(n + 1).derive(),
        inverse_f=_gompertz_inverse_f,
        a_closed=_gompertz_a,
        z_closed=lambda n: -log1p_series(n),
    )
)

_register(
    CatalogEntry(
        id="cos_sin",
        g_label="cos(x)",
        f_label="sin(x)",
        notes="circular pair; parametric plot is the unit circle",
        g_series=cos_series,
        f_eval=math.sin,
        fprime_eval=math.cos,
        inverse_g=lambda n: arcsin_series(n + 1).derive(),
        inverse_f=arcsin_series,
        a_closed=lambda n: pow_rational(_poly([1, 0, -1], n), Fraction(1, 2)),
        z_closed=lambda n: -pow_rational(_poly([1, 0, -1], n), Fraction(-1, 2)).times_x(),
    )
)

_register(
    CatalogEntry(
        id="pascal",
        g_label="exp(x)",
        f_label="x",
        notes="binomial triangle; bidiagonal production matrix",
        g_series=expx_series,
        f_series=x,
        f_eval=lambda t: t,
        fprime_eval=lambda t: 1.0,
        inverse_g=lambda n: expx_series(n, scale=-1),
        inverse_f=x,
        a_closed=one,
        z_closed=one,
        jacobi=JacobiParams(1, 0, 0, 0),
    )
)


def ids() -> tuple[str, ...]:
    return tuple(ENTRIES)


def entry(entry_id: str) -> CatalogEntry:
    try:
        return ENTRIES[entry_id]
    except KeyError:
        known = ", ".join(ids())
        raise KeyError(f"unknown catalog id {entry_id!r}; known ids: {known}") from None


def pair(entry_id: str, order: int) -> tuple[Series, Series]:
    """(g, f) at jet order ``order``, with f = int_0^x g unless the entry
    states f."""
    e = entry(entry_id)
    g = e.g_series(order)
    if e.f_series is not None:
        return g, e.f_series(order)
    return g, g.integrate().truncate(order)


def inverse_pair(entry_id: str, order: int) -> tuple[Series, Series]:
    """(g, f) of the inverse array.  For an entry that states f, the stated
    inverse pair; for [f', f] in the derivative subgroup, its inverse
    [fbar', fbar], one jet of fbar one order higher: the stated inverse f,
    else the reversion of f."""
    e = entry(entry_id)
    if e.f_series is not None:
        return e.inverse_g(order), e.inverse_f(order)
    if e.inverse_f is not None:
        fbar = e.inverse_f(order + 1)
    else:
        fbar = pair(entry_id, order + 1)[1].revert()
    return fbar.derive(), fbar.truncate(order)


def za_closed_form(entry_id: str, order: int) -> Optional[ZAPair]:
    """The stated (Z, A) series of the entry's production matrix, or None."""
    e = entry(entry_id)
    if e.a_closed is None or e.z_closed is None:
        return None
    return ZAPair(z=e.z_closed(order), a=e.a_closed(order))


# ---------------------------------------------------------------------------
# plot-data sampling
# ---------------------------------------------------------------------------


class SampleGrid(_Frozen):
    """Uniform sampling grid; defaults mirror the usual plotting window."""

    __slots__ = ("t_min", "t_max", "samples")

    def __init__(self, t_min: float = -4.0, t_max: float = 4.0, samples: int = 200) -> None:
        if not (math.isfinite(t_min) and math.isfinite(t_max)):
            raise ValueError("t_min and t_max must be finite")
        if not t_min < t_max:
            raise ValueError("t_min must be strictly below t_max")
        if samples < 2:
            raise ValueError("need at least two samples")
        if not math.isfinite(t_max - t_min):
            raise ValueError("t_max - t_min must be finite")
        self._set_fields(t_min, t_max, samples)

    def points(self) -> list[float]:
        # t_max itself comes last: t_min + i * step can round far off it.
        step = (self.t_max - self.t_min) / (self.samples - 1)
        return [self.t_min + i * step for i in range(self.samples - 1)] + [self.t_max]


def sample_curve(e: CatalogEntry, grid: SampleGrid) -> list[tuple[float, float, float]]:
    """(t, f(t), f'(t)) rows."""
    return [(t, e.f_eval(t), e.fprime_eval(t)) for t in grid.points()]


def sample_parametric(e: CatalogEntry, grid: SampleGrid) -> list[tuple[float, float]]:
    """(f'(t), f(t)) rows."""
    return [(e.fprime_eval(t), e.f_eval(t)) for t in grid.points()]
