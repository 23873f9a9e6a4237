"""Command-line front end.

Subcommands: list, array, produce, hankel, moments, poly, cf, plotdata.
Output is deterministic; --format selects text (aligned), json, or csv.
Rationals print as integers when the denominator is 1.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import isfinite, isinf

from . import catalog, production
from .riordan import (
    TriMatrix,
    build,
    format_polynomial,
    inverse,
    matrix_to_json,
    row_polynomials,
)
from .series import Series, from_egf, series

DEFAULT_ORDER = 16
# Largest --order, --n and --depth accepted: the largest size the tests and
# benchmarks use.  `hankel tanh --n 64` takes 0.12-0.17 s (best and median of
# 15 processes with bytecode writing off; Python 3.11, shared 2-core x86_64),
# mostly interpreter start-up and import; tanh's order-128 jet takes 14 ms of
# it, and that jet at order 256 takes 84 ms.
MAX_SIZE = 64
# Largest --samples accepted by `plotdata`.  Each sample is one output row of
# about 55 bytes, so the output stays near 5 MB.
MAX_SAMPLES = 100_000


class CliError(Exception):
    """User-facing error: printed as a one-line diagnostic, exit status 1."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a CliError instead of printing the usage and
    exiting with status 2; subcommand parsers inherit the class."""

    def error(self, message: str):
        raise CliError(message)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _parse_coeffs(text: str) -> list[Fraction]:
    try:
        return [Fraction(p.strip()) for p in text.split(",") if p.strip() != ""]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"malformed coefficient list {text!r}: {exc}") from None


def _series_from_spec(text: str, order: int, egf: bool) -> Series:
    coeffs = _parse_coeffs(text)
    if len(coeffs) > order + 1:
        raise CliError(f"{len(coeffs)} coefficients exceed order {order}")
    maker = from_egf if egf else series
    return maker(coeffs, order=order)


def _entry_pair(args, order: int) -> tuple[Series, Series]:
    """(g, f) at jet order ``order`` of the catalog entry, or with --inverse of its inverse."""
    return (catalog.inverse_pair if args.inverse else catalog.pair)(args.id, order)


def _resolve_array(args, order: int) -> tuple[str, "object"]:
    """Build the requested array, at jet order ``order``, from an id or an
    explicit (g, f) spec."""
    if args.id is not None:
        if args.g or args.f:
            raise CliError("give either a catalog id or --g/--f, not both")
        arr, name = build(*_entry_pair(args, order)), args.id
    else:
        if not (args.g and args.f):
            raise CliError("need a catalog id or both --g and --f")
        g = _series_from_spec(args.g, order, args.egf)
        f = _series_from_spec(args.f, order, args.egf)
        try:
            arr = build(g, f)
        except ValueError as exc:
            raise CliError(f"invalid (g, f) pair: {exc}") from None
        if args.inverse:
            arr = inverse(arr)
        name = "custom"
    return (f"{name}^-1" if args.inverse else name), arr


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _json(obj) -> str:
    import json  # only --format json loads it

    return json.dumps(obj)


def _emit_matrix(m: TriMatrix, name: str, fmt: str, extra: dict | None = None) -> str:
    if fmt == "text":
        out = m.render_text()
        if extra:
            out += "\n" + "\n".join(f"{k}: {v}" for k, v in extra.items())
        return out
    if fmt == "json":
        obj = matrix_to_json(m, name)
        if extra:
            obj.update(extra)
        return _json(obj)
    header = ",".join(f"c{j}" for j in range(m.dim))
    lines = [header]
    lines += [",".join(map(str, row)) for row in m.rows]
    if extra:
        lines += [f"# {k}: {v}" for k, v in extra.items()]
    return "\n".join(lines)


def _emit_sequence(values, fmt: str) -> str:
    strs = [str(v) for v in values]
    if fmt == "text":
        return ", ".join(strs)
    if fmt == "json":
        return _json(strs)
    return "\n".join(["n,value"] + [f"{n},{s}" for n, s in enumerate(strs)])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_list(args) -> str:
    lines = []
    for eid in catalog.ids():
        e = catalog.entry(eid)
        lines.append(f"{eid:10s}  g = {e.g_label:22s}  f = {e.f_label:28s}  {e.notes}")
    return "\n".join(lines)


def _cmd_array(args) -> str:
    name, arr = _resolve_array(args, args.order)
    return _emit_matrix(arr.matrix, name, args.format)


def _cmd_produce(args) -> str:
    # An order-N array determines the N-square block of its production matrix.
    name, arr = _resolve_array(args, args.order + 1)
    p = production.production_definitional(arr)
    params = production.tridiagonal_params(p)
    if params is None:
        jacobi = None if args.format == "json" else "not tridiagonal"
    else:
        jacobi = {k: str(getattr(params, k)) for k in ("alpha", "beta", "gamma", "delta")}
        if args.format != "json":
            jacobi = ", ".join(f"{k}={v}" for k, v in jacobi.items())
    return _emit_matrix(p, f"production({name})", args.format, {"jacobi": jacobi})


def _entry_sequence(args, length: int) -> tuple[Fraction, ...]:
    """The first ``length`` + 1 EGF coefficients of the chosen part of a
    catalog entry, from its order-``length`` jet."""
    g, f = _entry_pair(args, length)
    return (f if args.of == "f" else g).egf()


def _cmd_hankel(args) -> str:
    if args.seq:
        if args.id or args.inverse:
            raise CliError("--seq takes no catalog id and no --inverse")
        seq = _parse_coeffs(args.seq)
    elif args.id:
        seq = _entry_sequence(args, 2 * args.n)
    else:
        raise CliError("need a catalog id or --seq")
    from .orthopoly import hankel_transform  # only hankel and cf load orthopoly

    return _emit_sequence(hankel_transform(seq, args.n), args.format)


def _cmd_moments(args) -> str:
    return _emit_sequence(_entry_sequence(args, args.n), args.format)


def _cmd_poly(args) -> str:
    # p_0..p_n read the jets through x^n; a --g/--f spec is read whole, as by `array`.
    specs = [s for s in (args.g, args.f) if s and args.id is None]
    order = max([args.n, 1] + [min(len(_parse_coeffs(s)) - 1, MAX_SIZE) for s in specs])
    name, arr = _resolve_array(args, order)
    polys = row_polynomials(arr)[: args.n + 1]
    if args.format == "json":
        return _json({"name": name, "polys": [list(map(str, p)) for p in polys]})
    if args.format == "csv":
        lines = ["n,coefficients"]
        lines += [f"{i},{' '.join(map(str, p))}" for i, p in enumerate(polys)]
        return "\n".join(lines)
    return "\n".join(map(format_polynomial, polys))


def _cmd_cf(args) -> str:
    from .orthopoly import jfraction

    seq = _entry_sequence(args, 2 * args.depth)
    rec = jfraction(seq, args.depth)
    b, lam = [str(v) for v in rec.b], [str(v) for v in rec.lam]
    if args.format == "json":
        return _json({"b": b, "lambda": lam})
    if args.format == "csv":
        return "\n".join(["k,b,lambda"] + [f"{k},{u},{v}" for k, (u, v) in enumerate(zip(b, lam))])
    return f"b: {', '.join(b)}\nlambda: {', '.join(lam)}"


def _cmd_plotdata(args) -> str:
    if args.samples > MAX_SAMPLES:
        raise CliError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    e = catalog.entry(args.id)
    grid = catalog.SampleGrid(t_min=args.tmin, t_max=args.tmax, samples=args.samples)
    if args.kind == "curve":
        rows = catalog.sample_curve(e, grid)
        header = "t,f,fprime"
    else:
        rows = catalog.sample_parametric(e, grid)
        header = "fprime,f"
    lines = [header]
    lines += [",".join(map(_plot_field, row)) for row in rows]
    return "\n".join(lines)


def _plot_field(v: float) -> str:
    """v to 15 significant digits, or in full where that text would read
    back as infinite (within about 5e293 of the float maximum)."""
    text = f"{v:.15g}"
    return repr(v) if isinf(float(text)) and isfinite(v) else text


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )


def _add_array_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("id", nargs="?", help="catalog id (see `list`)")
    p.add_argument("--g", help="ordinary coefficients of g, comma-separated")
    p.add_argument("--f", help="ordinary coefficients of f, comma-separated")
    p.add_argument("--egf", action="store_true", help="read --g/--f as EGF coefficients")
    p.add_argument("--inverse", action="store_true", help="use the group inverse")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="expriordan",
        description="Exact exponential Riordan arrays for sigmoid pairs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list catalog entries")
    p.set_defaults(func=_cmd_list)

    for name, text, func in (
        ("array", "print the array of a pair", _cmd_array),
        ("produce", "print the production matrix", _cmd_produce),
    ):
        p = sub.add_parser(name, help=text)
        _add_array_source(p)
        p.add_argument("--order", type=int, default=DEFAULT_ORDER, help="jet order (default 16)")
        _add_format(p)
        p.set_defaults(func=func)

    p = sub.add_parser("hankel", help="Hankel transform of an EGF expansion")
    p.add_argument("id", nargs="?", help="catalog id")
    p.add_argument("--seq", help="explicit sequence, comma-separated rationals")
    p.add_argument("--n", type=int, default=5, help="largest determinant index")
    p.add_argument("--of", choices=("f", "g"), default="f", help="expand f or g")
    p.add_argument("--inverse", action="store_true", help="use the inverse pair")
    _add_format(p)
    p.set_defaults(func=_cmd_hankel)

    p = sub.add_parser("moments", help="EGF coefficients of g (first array column)")
    p.add_argument("id", help="catalog id")
    p.add_argument("--n", type=int, default=10, help="largest index")
    p.add_argument("--of", choices=("f", "g"), default="g", help="expand f or g")
    p.add_argument("--inverse", action="store_true", help="use the inverse pair")
    _add_format(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("poly", help="row polynomials of the array")
    _add_array_source(p)
    p.add_argument("--n", type=int, default=6, help="largest polynomial degree")
    _add_format(p)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("cf", help="J-fraction of the g-expansion moment sequence")
    p.add_argument("id", help="catalog id")
    p.add_argument("--depth", type=int, default=4, help="number of levels")
    p.add_argument("--of", choices=("f", "g"), default="g", help="expand f or g")
    p.add_argument("--inverse", action="store_true", help="use the inverse pair")
    _add_format(p)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("plotdata", help="CSV samples of (t, f, f') or (f', f)")
    p.add_argument("id", help="catalog id")
    p.add_argument("--kind", choices=("curve", "parametric"), default="curve")
    p.add_argument("--tmin", type=float, default=-4.0)
    p.add_argument("--tmax", type=float, default=4.0)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=_cmd_plotdata)

    return ap


def _check_ranges(args) -> None:
    """Reject size options below the smallest value a command can use, or
    above MAX_SIZE.

    A jet needs order 1 to hold f'(0) = 1, and ``produce`` reads its Jacobi
    parameters off a 3x3 block, which takes order 2.
    """
    lows = {"order": 2 if args.command == "produce" else 1, "n": 0, "depth": 1}
    for name, low in lows.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise CliError(f"--{name} must be at least {low}, got {value}")
        if value is not None and value > MAX_SIZE:
            raise CliError(f"--{name} must be at most {MAX_SIZE}, got {value}")


def main(argv: list[str] | None = None) -> int:
    # Exact results outgrow Python's default 4300-digit limit on converting
    # between int and str (h_61 of tanh's EGF has 4436 digits), and so may a
    # --seq term; the limit is lifted while the command runs.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        _check_ranges(args)
        out = args.func(args)
    except (CliError, ValueError, ArithmeticError, KeyError) as exc:
        # str() of a KeyError quotes its message; print the message itself.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
