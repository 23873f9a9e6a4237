#!/usr/bin/env python3
"""Time the series, array and orthopoly layers at fixed jet orders; write a BENCH_*.json.

Usage: python scripts/bench_layers.py OUT [--src DIR] [--label NAME]

At n = 8, 16, 24, 32 and 64 it times ``revert``, ``compose`` (f with its inverse),
``build``, ``inverse``, ``za_sequences``, ``multiply``,
``production_definitional``, ``production_analytic`` (the (n-1)-square block
from the (Z, A) pair), ``mat_inverse`` and ``mat_mul`` (of the array's matrix
with itself) on the catalog entry ``algebraic``, whose odd f and even g make
power tables in x^2.  It times ``revert``, ``build``, ``inverse``,
``multiply`` and ``za_sequences`` on ``gompertz`` too, whose f and g have
terms at every exponent, so its tables stay in x.  On the ``tanh`` entry's
Jacobi parameters it times ``recurrence_from_jacobi`` for P_0..P_n, and on
their recurrence ``coefficient_array`` of degree n, ``moments``
m_0..m_n, ``cf_to_ogf`` at depth n and order 2n, and ``hankel_transform``
h_0..h_{n/2} and ``jfraction`` at depth n/2 of those moments.  On the EGFs
of the same entry it times ``hankel_transform_g_egf`` (h_0..h_n of sech^2,
no vanishing minor), ``jfraction_g_egf`` (depth n of sech^2) and
``hankel_transform_f_egf`` (h_0..h_n of tanh, whose m_0 = 0 and every even
h_n vanish), and ``egf`` of the entry's g.  It also times ``exp_series`` of
1 - e^(-x) and ``log_series`` of 1 - log(1 + x), the series of the
``gompertz`` entry, ``pow_rational`` (1 + x^2)^(-3/2), the g of
``algebraic``, ``catalog.pair`` of ``gompertz`` and of ``algebraic``, and
three series divisions (``div``, the entry column
naming the operands): sinh/cosh, 1/cosh and 1/(1 - x - x^2), all three by
OGF long division.  At orders 24, 48 and 128 it times the catalog
jets: ``pair`` of every entry, ``inverse_pair`` of ``arctan``, and the four
EGF quotients ``tan_series``, ``sec_series``, ``tanh_series`` and
``sech_series`` (the entry column naming the operands).  At orders 64 and
128 it times ``revert``, ``inverse``, ``za_sequences``, ``build`` and
``multiply`` (of the array with itself) on every catalog entry (those at 64
on ``algebraic`` and ``gompertz`` are the rows above).  Last, it times
start-up (``startup``): fresh interpreters running ``python -c "import
expriordan.cli"`` and ``python -m expriordan list`` against ``--src`` with
``PYTHONDONTWRITEBYTECODE=1``, so that each compiles the package from source
as a clean checkout does.

The inputs are built before the timed calls.  The rows are timed
round-robin: each of five rounds calls every operation once, in order, so
a row's calls are spread over the whole run rather than bunched into one
phase of a machine whose speed drifts.  The least wall time of a row, which
a busy machine can only raise, is recorded with the number of calls and
the largest numerator or denominator bit-length in the result, as
``perfbench/results.py`` counts it.  A start-up
row is the least wall time of 20 processes; it has no order or bit-length.
The numbers go under ``runs[NAME]`` of the JSON file OUT, and other labels
in it are kept, so the numbers of two source trees (say, a parent commit's
``src`` and this one's, run in turn) sit side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "algebraic"
JACOBI_ENTRY = "tanh"
EXP_ENTRY = "gompertz"
ORDERS = (8, 16, 24, 32, 64)
PAIR_ORDERS = (24, 48, 128)
QUOTIENTS = {
    "tan_series": "sin/cos",
    "sec_series": "1/cos",
    "tanh_series": "sinh/cosh",
    "sech_series": "1/cosh",
}
REVERT_ORDERS = (64, 128)
ROUNDS = 5
STARTUP_CALLS = 20
STARTUP = {
    "import expriordan.cli": ["-c", "import expriordan.cli"],
    "python -m expriordan list": ["-m", "expriordan", "list"],
}


def _at_order(n: int) -> list[tuple[str, str, int, Callable[[], object]]]:
    """The rows at jet order n, each call bound to this order's inputs."""
    from expriordan import catalog, orthopoly, production, riordan
    from expriordan.series import exp_series, log_series, pow_rational, series

    g, f = catalog.pair(ENTRY, n)
    arr = riordan.build(g, f)
    dense_g, dense_f = catalog.pair(EXP_ENTRY, n)
    dense = riordan.build(dense_g, dense_f)
    fbar = f.revert()
    za = production.za_sequences(g, f)
    params = catalog.entry(JACOBI_ENTRY).jacobi
    rec = orthopoly.recurrence_from_jacobi(params, n)
    m = orthopoly.moments(rec, n)
    sech2, tanh_f = (s.egf() for s in catalog.pair(JACOBI_ENTRY, 2 * n))
    jacobi_g = catalog.pair(JACOBI_ENTRY, n)[0]
    gompertz_u = 1 - catalog.expx_series(n, scale=-1)
    gompertz_w = 1 - catalog.log1p_series(n)
    square = series([1, 0, 1], order=n)
    sinh, cosh = catalog.sinh_series(n), catalog.cosh_series(n)
    fib = series([1, -1, -1], order=n)
    return [
        (name, entry, n, op)
        for name, entry, op in [
            ("revert", ENTRY, lambda: f.revert()),
            ("compose", ENTRY, lambda: f.compose(fbar)),
            ("build", ENTRY, lambda: riordan.build(g, f)),
            ("inverse", ENTRY, lambda: riordan.inverse(arr)),
            ("za_sequences", ENTRY, lambda: production.za_sequences(g, f)),
            ("multiply", ENTRY, lambda: riordan.multiply(arr, arr)),
            ("production_definitional", ENTRY, lambda: production.production_definitional(arr)),
            ("production_analytic", ENTRY, lambda: production.production_analytic(za, n - 1)),
            ("mat_inverse", ENTRY, lambda: riordan.mat_inverse(arr.matrix)),
            ("mat_mul", ENTRY, lambda: riordan.mat_mul(arr.matrix, arr.matrix)),
            ("revert", EXP_ENTRY, lambda: dense_f.revert()),
            ("build", EXP_ENTRY, lambda: riordan.build(dense_g, dense_f)),
            ("inverse", EXP_ENTRY, lambda: riordan.inverse(dense)),
            ("multiply", EXP_ENTRY, lambda: riordan.multiply(dense, dense)),
            ("za_sequences", EXP_ENTRY, lambda: production.za_sequences(dense_g, dense_f)),
            (
                "recurrence_from_jacobi",
                JACOBI_ENTRY,
                lambda: orthopoly.recurrence_from_jacobi(params, n),
            ),
            ("coefficient_array", JACOBI_ENTRY, lambda: orthopoly.coefficient_array(rec, n)),
            ("moments", JACOBI_ENTRY, lambda: orthopoly.moments(rec, n)),
            ("cf_to_ogf", JACOBI_ENTRY, lambda: orthopoly.cf_to_ogf(rec, 2 * n, n)),
            ("hankel_transform", JACOBI_ENTRY, lambda: orthopoly.hankel_transform(m, n // 2)),
            ("jfraction", JACOBI_ENTRY, lambda: orthopoly.jfraction(m, n // 2)),
            ("hankel_transform_g_egf", JACOBI_ENTRY, lambda: orthopoly.hankel_transform(sech2, n)),
            ("jfraction_g_egf", JACOBI_ENTRY, lambda: orthopoly.jfraction(sech2, n)),
            ("hankel_transform_f_egf", JACOBI_ENTRY, lambda: orthopoly.hankel_transform(tanh_f, n)),
            ("egf", JACOBI_ENTRY, jacobi_g.egf),
            ("exp_series", EXP_ENTRY, lambda: exp_series(gompertz_u)),
            ("log_series", EXP_ENTRY, lambda: log_series(gompertz_w)),
            ("pow_rational", ENTRY, lambda: pow_rational(square, "-3/2")),
            ("pair", EXP_ENTRY, lambda: catalog.pair(EXP_ENTRY, n)),
            ("pair", ENTRY, lambda: catalog.pair(ENTRY, n)),
            ("div", "sinh/cosh", lambda: sinh / cosh),
            ("div", "1/cosh", lambda: 1 / cosh),
            ("div", "1/(1-x-x^2)", lambda: 1 / fib),
        ]
    ]


def operations() -> list[tuple[str, str, int, Callable[[], object]]]:
    """Every timed row as (operation, entry, order, call), inputs built."""
    from expriordan import catalog, production, riordan

    ops = [op for n in ORDERS for op in _at_order(n)]
    jets = [("pair", eid) for eid in catalog.ids()] + [("inverse_pair", "arctan")]
    for n in PAIR_ORDERS:
        for getter, entry in jets:
            ops.append((getter, entry, n, partial(getattr(catalog, getter), entry, n)))
        for name, operands in QUOTIENTS.items():
            ops.append((name, operands, n, partial(getattr(catalog, name), n)))
    for n in REVERT_ORDERS:
        for eid in catalog.ids():
            if n in ORDERS and eid in (ENTRY, EXP_ENTRY):
                continue
            g, f = catalog.pair(eid, n)
            arr = riordan.build(g, f)
            ops += [
                ("revert", eid, n, f.revert),
                ("inverse", eid, n, partial(riordan.inverse, arr)),
                ("za_sequences", eid, n, partial(production.za_sequences, g, f)),
                ("build", eid, n, partial(riordan.build, g, f)),
                ("multiply", eid, n, partial(riordan.multiply, arr, arr)),
            ]
    return ops


def measure() -> list[dict]:
    from results import max_bits

    ops = operations()
    times: list[list[float]] = [[] for _ in ops]
    bits: list[int] = []
    for k in range(ROUNDS):
        for i, (name, entry, n, op) in enumerate(ops):
            start = time.perf_counter()
            result = op()
            times[i].append(time.perf_counter() - start)
            if k == 0:
                bits.append(max_bits(result))
        print(f"round {k + 1} of {ROUNDS} done", file=sys.stderr)
    rows = []
    for (name, entry, n, _), ts, b in zip(ops, times, bits):
        row = {
            "operation": name,
            "entry": entry,
            "order": n,
            "min_s": round(min(ts), 6),
            "calls": len(ts),
            "bits": b,
        }
        print(f"{name:24s} {entry:12s} n={n:3d}  {row['min_s']:.6f} s  {b} bits")
        rows.append(row)
    return rows


def startup(src: Path) -> list[dict]:
    """Start-up rows, timed on a copy of ``src`` without __pycache__ so that
    no child reads bytecode that an earlier import left behind."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "src"
        shutil.copytree(src, clean, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(clean), PYTHONDONTWRITEBYTECODE="1")
        for entry, args in STARTUP.items():
            times = []
            for _ in range(STARTUP_CALLS):
                start = time.perf_counter()
                subprocess.run(
                    [sys.executable, *args], env=env, cwd=tmp, stdout=subprocess.DEVNULL, check=True
                )
                times.append(time.perf_counter() - start)
            row = {
                "operation": "startup",
                "entry": entry,
                "min_s": round(min(times), 6),
                "calls": len(times),
            }
            print(f"{'startup':24s} {entry:28s} {row['min_s']:.6f} s")
            rows.append(row)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="JSON file to write, say BENCH_24.json")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding expriordan")
    ap.add_argument("--label", default="change", help="key of this run in the output")
    args = ap.parse_args()
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]

    results = measure() + startup(src)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("script", "scripts/bench_layers.py")
    doc.setdefault("orders", list(ORDERS))
    doc.setdefault("pair_orders", list(PAIR_ORDERS))
    doc.setdefault("revert_orders", list(REVERT_ORDERS))
    doc.setdefault("statistic", "least wall time of one call per round, rows timed round-robin")
    doc.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "results": results,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
