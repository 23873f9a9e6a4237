"""Exact arithmetic on truncated power series over the rationals.

A :class:`Series` is a jet of fixed order ``N``: the ordinary coefficients
``c_0 .. c_N`` of a power series truncated after ``x^N``.  Everything is
exact and there is no floating point in this module.  The coefficients are
normalized :class:`fractions.Fraction` values; inside the kernels each
operand becomes integer numerators over one common denominator, and the
result is normalized once at the end.  Composition and the columns of an
exponential Riordan array read one table, the divided-power table: row k
holds the EGF coefficients of g f^k / k!, which is column k of the array
[g, f].  For g and f with integer EGF coefficients these are integers
(f^k / k! has the partial Bell polynomials of f's coefficients as its EGF
coefficients), so row k + 1, the binomial convolution of row k with f,
divides exactly by k + 1; rational input becomes integer rows by the scale
d, the lcm of the denominators of the m! c_m, that makes every d^m m! c_m
an integer.  The rows are series in y = x^s, for s the gcd of the exponents
of the nonzero terms of g and f/x, and keep only the coefficients of
x^(k+js): an odd f with an even g has s = 2 and a quarter of the row
products.  Reversion solves g(f) = x, which is linear in g, by forward
substitution on the rows k = 1 (mod s) of the table of f, each reached from
the last by one step by f^s, then checks the other-sided identity f(g) = x
exactly on a fresh table of g; it hands on that table, so composing other
series with g needs no second one.  exp is the integer recurrence E' = u'E
in exponential coordinates.  A Series divides only by a scalar: the one
series quotient is the EGF quotient, A_m = sum_j C(m, j) Q_j B_(m-j) on
integer rows, and its callers hold EGF rows already: log, as
(log s)' = s'/s and in EGF coordinates s' is s shifted one place
(``production`` takes the Z-sequence (log g)'(fbar) through it), the group
inverse's 1/g(fbar) in ``riordan``, and the catalog's tan, sec, tanh and
sech, quotients of the integer EGF rows of sin, cos, sinh and cosh.  It
reads the divisor B only through its degree and its stride s, the gcd of
the exponents of its terms: a divisor in x^s, as cos and cosh are in x^2,
costs 1/s of the products.  The integer long division ``_quotient`` runs
only the H-fraction of ``orthopoly``.  The EGF views, derivatives and
integrals make each coefficient's Fraction once.

Binary operations require operands of equal order -- mixing orders would
silently discard precision, so it raises instead.  Equality is strict too:
jets of different orders are unequal.  Use :meth:`Series.truncate` when a
shorter jet is genuinely wanted, on both sides to compare two jets through a
given order.

The exponential-coefficient view of the same jet is ``n! * c_n``; the two
views convert exactly in both directions (:func:`from_egf`,
:meth:`Series.egf`).

>>> log_series(1 + x(4))        # log(1+x)
Series((0, 1, -1/2, 1/3, -1/4))
>>> (1 + x(4)) * (1 - x(4))
Series((1, 0, -1, 0, 0))
>>> exp_series(x(5)).egf()
(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1))
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count
from math import comb, factorial, gcd, lcm, perm
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

__all__ = [
    "Series",
    "series",
    "from_egf",
    "x",
    "one",
    "exp_series",
    "log_series",
    "pow_rational",
]


# ---------------------------------------------------------------------------
# coefficient-list kernels
#
# Inputs and outputs are lists of Fractions with explicit truncation.  Inside,
# each operand becomes integer numerators over one common denominator, so a
# coefficient product is an integer product with no gcd; every result is
# normalized once, when its Fractions are built.
# ---------------------------------------------------------------------------


def _scaled(a: Sequence[Fraction], n: int) -> tuple[list[int], int]:
    """Integer numerators of ``a`` through x^n over the lcm of their
    denominators; ``a`` reaches x^n."""
    a = a[: n + 1]
    den = lcm(*(c.denominator for c in a))
    return [c.numerator * (den // c.denominator) for c in a], den


def _content_removed(r: list[int], d: int) -> tuple[list[int], int]:
    """The integer row r over d, with the gcd of d and every term divided out."""
    c = gcd(d, *r)
    return ([v // c for v in r], d // c) if c > 1 else (r, d)


def _conv(a: list[int], b: list[int], n: int) -> list[int]:
    """Integer product of two coefficient lists that reach x^n, truncated after x^n."""
    rb = b[n::-1]  # b[n], ..., b[0]
    return [sum(map(int.__mul__, a, rb[n - k :])) for k in range(n + 1)]


def _mul(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> list[Fraction]:
    an, ad = _scaled(a, n)
    bn, bd = _scaled(b, n)
    d = ad * bd
    return [Fraction(v, d) for v in _conv(an, bn, n)]


def _egf_quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The integer row q with a = q * b in EGF coordinates,
    a_m = sum_{j<=m} C(m, j) q_j b_(m-j), for integer rows a and b of one
    length with b_0 = 1.  b is read only through its degree and its stride
    s = _stride(b), so a sparse divisor such as 1 + x^2 costs a few products
    a term, not m, and a divisor in x^s such as cos or cosh 1/s of them."""
    s = _stride(b)
    bs = b[s : max(compress(count(), b), default=0) + 1 : s]  # b_s, b_2s, ..., b_deg
    q: list[int] = []
    row: list[int] = []  # C(m, i) for i = 1..m
    for am in a:
        qb = map(int.__mul__, q[-s::-s], bs)  # q_(m-is) b_is, is = s..min(m, deg)
        q.append(am - sum(map(int.__mul__, qb, row[s - 1 :: s])))
        row = [*map(int.__add__, row, [1, *row]), 1]
    return q


def _quotient(an: Sequence[int], bn: Sequence[int], n: int) -> tuple[list[int], int]:
    """Integer long division of the rows an / bn through x^n, bn[0] != 0:
    (t, p) with p = bn[0]^(n+1) and t = p * an/bn through x^n.  Both rows
    must reach x^n and may run past it.  The k-th coefficient of an/bn has
    a denominator dividing bn[0]^(k+1), so t is an integer row and every
    division by bn[0] is exact."""
    b0 = bn[0]
    p = b0 ** (n + 1)
    rb = bn[n:0:-1]  # bn[n], ..., bn[1]
    t: list[int] = []
    for k in range(n + 1):
        t.append((an[k] * p - sum(map(int.__mul__, t, rb[n - k :]))) // b0)
    return t, p


# A divided-power table (s, d, rows) from _powers: row k holds integers in
# y = x^s, its term for x^m scaled by d^m.
_Table = tuple[int, int, list[list[int]]]


def _stride(*rows: Sequence) -> int:
    """The gcd of the exponents of the nonzero terms of the rows, 1 when
    there are none: every row is a series in x^s for this s."""
    return gcd(*chain.from_iterable(compress(count(), r) for r in rows)) or 1


def _steps(row: list[int], p: list[int], k: int, t: int, s: int, last: int, n: int) -> list[list[int]]:
    """Rows k, k + t, k + 2t, ... <= last of a divided-power table, from its
    row k.  Row j holds integer EGF coefficients at x^m, m = j, j + s, ...
    <= n, and p those of a series P at x^t, x^(t+s), ...; row j + t is the
    binomial convolution of row j with P, divided by (j + 1)...(j + t), a
    division the caller makes exact."""
    p = p[: max(compress(count(1), p), default=0)]
    # Term m of a convolution with P weighs row j's term at x^(m-e) by
    # C(m, e) P_e for e = t + l*s, whatever j is, so each m has one weight
    # row and each output term is one dot product with the reversed row.
    need = {(j + t) % s for j in range(k, last - t + 1, t)}
    w = {
        m: [comb(m, e) * c for e, c in zip(range(t, m + 1, s), p)]
        for m in range(k + t, n + 1)
        if m % s in need
    }
    rows = [row]
    for j in range(k, last - t + 1, t):
        rr = row[::-1]
        top, div = len(row) - 1, perm(j + t, t)
        row = [
            sum(map(int.__mul__, w[m], rr[top - i :])) // div
            for i, m in enumerate(range(j + t, n + 1, s))
        ]
        rows.append(row)
    return rows


def _powers(g: Sequence[Fraction], f: Sequence[Fraction], n: int) -> _Table:
    """The divided-power table (s, d, rows) of g and f, g[0] = 1 and
    f[0] = 0: row k = 0..n holds the EGF coefficients of g f^k / k! at x^m,
    m = k, k + s, ... <= n, each times d^m.  Row k is column k of [g, f], and
    times k! it is term k of a composition.  d, the lcm of the _egf_scale of
    g and of f (1 for integer EGF coefficients), makes the EGF coefficients
    of g(d x) and f(d x) integers, and then every row is an integer row: the
    EGF coefficients of f^k / k! are partial Bell polynomials in those of f,
    so row k + 1, the binomial convolution of row k with f, divides exactly
    by k + 1.  s is the gcd of
    the exponents of the nonzero terms of g and f/x (1 when there are none),
    and row k holds only the terms of x^(k+js): an odd f with an even g has
    s = 2, and each row costs a quarter."""
    d = lcm(_egf_scale(g), _egf_scale(f))
    gs, fs = _egf_scaled(g[: n + 1], d), _egf_scaled(f[: n + 1], d)
    s = _stride(gs, fs[1:])
    return s, d, _steps((gs + [0] * (n + 1 - len(gs)))[::s], fs[1::s], 0, 1, s, n, n)


def _compose(outer: Sequence[Fraction], table: _Table, n: int) -> list[Fraction]:
    """outer(inner) through x^n, from table = _powers([1], inner, m) with
    m >= n: the EGF sum_k (k! outer_k) inner^k / k!, rows with outer_k = 0
    skipped, then one division by d^m m! per term.  As inner[0] == 0, outer
    above x^n adds nothing."""
    s, d, rows = table
    on, od = _scaled(outer, n)
    out = [0] * (n + 1)
    fact = 1
    for k, c in enumerate(on):
        fact *= k or 1
        if c:
            c *= fact
            for j, v in zip(range(k, n + 1, s), rows[k]):
                out[j] += c * v
    return _egf_unscaled(out, d, od)


def _derive(a: Sequence[Fraction]) -> list[Fraction]:
    return [Fraction(k * c.numerator, c.denominator) for k, c in enumerate(a[1:], 1)]


def _integrate(a: Sequence[Fraction]) -> list[Fraction]:
    return [Fraction(0), *(Fraction(c.numerator, c.denominator * k) for k, c in enumerate(a, 1))]


def _egf_scale(a: Sequence[Fraction]) -> int:
    """The lcm of the denominators of m! * a_m for m >= 1, a D for which
    every D^m * m! * a_m with m >= 1 is an integer.  It need not be the least
    one: for a_m = 6^-m through x^16 it is 2^4 3^10, where 6 suffices."""
    dens = []
    f = 1
    for m, c in enumerate(a[1:], 1):
        f *= m
        dens.append(c.denominator // gcd(f, c.denominator))
    return lcm(*dens)


def _egf_scaled(a: Sequence[Fraction], d: int) -> list[int]:
    """Integers e * d^m * m! * a_m for every m, where e is the denominator of
    a_0 (1 when a_0 is an integer) and d is a multiple of _egf_scale(a)."""
    out, p = [], a[0].denominator
    for m, c in enumerate(a, 1):
        out.append(c.numerator * p // c.denominator)
        p *= d * m
    return out


def _egf_unscaled(v: Sequence[Scalar], d: int, e: int = 1) -> list[Fraction]:
    """The c_m = v_m / (e * d^m * m!): the inverse of _egf_scaled.  The v_m
    are integers on the kernels' paths; from_egf passes Fractions too."""
    out, p = [], e
    for m, c in enumerate(v, 1):
        out.append(Fraction(c, p))
        p *= d * m
    return out


def _exp(u: Sequence[Fraction]) -> list[Fraction]:
    """exp(u) for u_0 = 0.  With a_j = j! u_j and e_m = m! [x^m] exp(u),
    E' = u'E reads e_m = sum_{j=1..m} C(m-1, j-1) a_j e_(m-j), e_0 = 1, and
    scaled by D^m, X_j = D^j a_j and Y_m = D^m e_m are integers under the
    same relation.  X_j vanishes above the degree of u, so those terms are
    skipped."""
    d = _egf_scale(u)
    xs = _egf_scaled(u, d)
    xs = xs[1 : max(compress(count(), xs), default=0) + 1]  # X_1, ..., X_deg
    ys = [1]
    row = [1]  # C(m-1, j-1) for j = 1..m
    for _ in range(1, len(u)):
        xy = map(int.__mul__, xs, reversed(ys))  # X_j Y_(m-j), j = 1..min(m, deg)
        ys.append(sum(map(int.__mul__, xy, row)))
        row = [1, *map(int.__add__, row, row[1:]), 1]
    return _egf_unscaled(ys, d)


def _revert(f: Sequence[Fraction], n: int) -> tuple[list[Fraction], _Table]:
    """The compositional inverse g of the order-n jet f, and the table
    _powers([1], g, n) on which f(g) = x was checked, for composing with g."""
    if f[0] != 0:
        raise ValueError("reversion requires a zero constant term")
    if n < 1 or f[1] == 0:
        raise ValueError("reversion requires an invertible linear coefficient")
    # With fs the EGF coefficients of f(d x), d its EGF scale, and q = fs_1,
    # chi(x) = f(d q x) / q^2 has the integer EGF coefficients 1 and
    # fs_m q^(m-2), m >= 2.  g(f) = x is chi-bar(chi) = x, linear in the EGF
    # coefficients B_m of chi-bar: sum_k B_k T_k[m] = [m = 1], with T_k the
    # divided powers chi^k / k!.  T_m[m] = 1, so forward substitution gives
    # integer B_m with no division.  f/x is a series in x^s, and so is g/x:
    # only B_m with m = 1 (mod s) are nonzero, and they read only the rows
    # k = 1 (mod s), each from the last by one step by chi^s.  Then
    # f-bar(x) = d q chi-bar(x / q^2).
    d = _egf_scale(f)
    fs = _egf_scaled(f[: n + 1], d)
    q, s = fs[1], _stride(fs[1:])
    chi, p = [0, 1], 1
    for v in fs[2:]:
        chi.append(v * p)
        p *= q
    row = chi[1::s]
    step = row
    if s > 1:  # chi^s is s! times row s of the table
        step = [factorial(s) * v for v in _steps(row, row, 1, 1, s, s, n)[-1]]
    g = [Fraction(0)] * (n + 1)
    acc = [-1] + [0] * ((n - 1) // s)  # the terms of sum_{k<m} B_k T_k - x
    for m, r in zip(count(1, s), _steps(row, step, 1, s, s, n, n)):
        b = -acc[0]
        g[m] = Fraction(d * b, q ** (2 * m - 1) * factorial(m))
        acc = [u + b * v for u, v in zip(acc[1:], r[1:])]
    # The check reads f(g) = x, the other-sided identity, on a fresh table
    # of g; g and its table are returned only if it holds through x^n.
    table = _powers([1], g, n)
    err = _compose(f, table, n)
    err[1] -= 1
    if any(err):
        raise ArithmeticError("reversion failed its exact check f(g) = x")
    return g, table


# ---------------------------------------------------------------------------
# the value classes: their frozen base, and Series
# ---------------------------------------------------------------------------


class _Frozen:
    """Base of the package's immutable value classes.  A subclass names its
    fields in ``__slots__``, in constructor order, and sets them once in
    ``__init__``.  Equality, hashing, repr and pickling go by those fields.
    Subclasses override only ``__repr__``; the jet, matrix and array classes
    set ``__hash__ = None``, so they are unhashable."""

    __slots__ = ()

    def _set_fields(self, *values: object) -> None:
        # Hot constructors call object.__setattr__ directly instead.
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), self._fields()


class Series(_Frozen):
    """Immutable order-N jet with exact rational ordinary coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]) -> None:
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __iter__(self):
        return iter(self.coeffs)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(map(str, self.coeffs))
        return f"Series(({body}))"

    # -- order management ---------------------------------------------------

    def _require_same_order(self, other: "Series") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def truncate(self, order: int) -> "Series":
        """Drop coefficients above ``order`` (explicit, never implicit)."""
        if order < 0 or order > self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to order {order}")
        return Series(self.coeffs[: order + 1])

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: Union["Series", Scalar]) -> "Series":
        if isinstance(other, Series):
            self._require_same_order(other)
            return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        return Series((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Union["Series", Scalar]) -> "Series":
        return self + (-other if isinstance(other, Series) else -Fraction(other))

    def __rsub__(self, other: Scalar) -> "Series":
        return (-self) + other

    def __mul__(self, other: Union["Series", Scalar]) -> "Series":
        if isinstance(other, Series):
            self._require_same_order(other)
            return Series(tuple(_mul(self.coeffs, other.coeffs, self.order)))
        q = Fraction(other)
        return Series(tuple(c * q for c in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Series":
        return self * (1 / Fraction(other))

    def __pow__(self, k: int) -> "Series":
        if not isinstance(k, int) or k < 0:
            raise ValueError("integer power must be a non-negative int; see pow_rational")
        if k == 0:
            return one(self.order)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    # -- calculus and composition --------------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """Substitute ``inner`` (constant term 0) into this series."""
        self._require_same_order(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires an inner series with zero constant term")
        n = self.order
        return Series(tuple(_compose(self.coeffs, _powers([1], inner.coeffs, n), n)))

    def revert(self) -> "Series":
        """Compositional inverse: g with self(g(x)) = g(self(x)) = x."""
        return Series(tuple(_revert(self.coeffs, self.order)[0]))

    def derive(self) -> "Series":
        """Formal derivative; the order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Series(tuple(_derive(self.coeffs)))

    def integrate(self) -> "Series":
        """Antiderivative with zero constant term; the order rises by one."""
        return Series(tuple(_integrate(self.coeffs)))

    def times_x(self) -> "Series":
        """Multiply by x at fixed order (the top coefficient falls off)."""
        return Series((Fraction(0),) + self.coeffs[:-1])

    def scale_argument(self, c: Scalar) -> "Series":
        """s(c*x): the n-th coefficient picks up a factor c^n."""
        q = Fraction(c)
        return Series(tuple(ck * q**k for k, ck in enumerate(self.coeffs)))

    # -- views -----------------------------------------------------------------

    def egf(self) -> tuple[Fraction, ...]:
        """Exponential-coefficient view: n-th entry is n! * c_n."""
        out, f = [], 1
        for m, c in enumerate(self.coeffs):
            f *= m or 1
            out.append(Fraction(c.numerator * f, c.denominator))
        return tuple(out)


def _revert_compose(f: Series, *outers: Series) -> tuple[Series, list[Series]]:
    """fbar = f.revert() and each outer(fbar), at the outer's order, on fbar's checked table."""
    fbar, table = _revert(f.coeffs, f.order)
    return Series(tuple(fbar)), [Series(tuple(_compose(o.coeffs, table, o.order))) for o in outers]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def series(coeffs: Iterable[Union[Scalar, str]], order: int | None = None) -> Series:
    """Build a Series from ordinary coefficients, zero-padded to ``order``.

    Padding treats the input as an exact polynomial, so extending with
    zeros loses nothing.
    """
    return _padded([Fraction(c) for c in coeffs], order)


def _padded(cs: list[Fraction], order: int | None) -> Series:
    """The Series of cs, zero-padded to ``order``; cs is extended in place."""
    if order is not None:
        if order + 1 < len(cs):
            raise ValueError("more coefficients than the requested order allows")
        cs += [Fraction(0)] * (order + 1 - len(cs))
    return Series(tuple(cs))


def from_egf(coeffs: Iterable[Union[Scalar, str]], order: int | None = None) -> Series:
    """Build a Series from exponential coefficients a_n (so c_n = a_n/n!),
    zero-padded to ``order`` as :func:`series` pads."""
    cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
    return _padded(_egf_unscaled(cs, 1), order)


def x(order: int) -> Series:
    return series([0, 1][: order + 1], order=order)


def one(order: int) -> Series:
    return series([1], order=order)


# ---------------------------------------------------------------------------
# transcendental operations
# ---------------------------------------------------------------------------


def exp_series(s: Series) -> Series:
    """exp of a series with zero constant term."""
    if s.coeffs[0] != 0:
        raise ValueError("exp requires a zero constant term")
    return Series(tuple(_exp(s.coeffs)))


def log_series(s: Series) -> Series:
    """log of a series with constant term 1."""
    if s.coeffs[0] != 1:
        raise ValueError("log requires constant term 1")
    # (log s)' = s'/s, and in EGF coordinates s' is s shifted one place: the
    # EGF coefficients of log s after the first are the EGF quotient of
    # (Y_1, ..., Y_n) by (Y_0, ..., Y_(n-1)), Y those of s.
    d = _egf_scale(s.coeffs)
    y = _egf_scaled(s.coeffs, d)
    return Series(tuple(_egf_unscaled([0, *_egf_quotient(y[1:], y[:-1])], d)))


def pow_rational(s: Series, r: Union[Scalar, str]) -> Series:
    """s**r for rational r, as exp(r*log(s)); requires constant term 1."""
    if s.coeffs[0] != 1:
        raise ValueError("rational power requires constant term 1")
    return exp_series(log_series(s) * Fraction(r))
