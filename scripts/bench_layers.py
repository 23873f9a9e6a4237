#!/usr/bin/env python3
"""Time the array and orthopoly layers at fixed jet orders; write BENCH_8.json.

Usage: python scripts/bench_layers.py [--src DIR] [--label NAME]

At n = 16, 32 and 64 it times ``revert``, ``compose`` (f with its inverse),
``build``, ``inverse``, ``za_sequences``, ``multiply``,
``production_definitional``, ``production_analytic`` (the (n-1)-square block
from the (Z, A) pair), ``mat_inverse`` and ``mat_mul`` (of the array's matrix
with itself) on the catalog entry ``algebraic``; and,
on the ``tanh`` entry's Jacobi recurrence, ``coefficient_array`` of degree n,
``moments`` m_0..m_n, ``cf_to_ogf`` at depth n and order 2n,
``hankel_transform`` h_0..h_{n/2} and ``jfraction`` at depth n/2 of those
moments, and ``hankel_transform_f_egf``, h_0..h_{n/2} of the EGF of the
entry's f, whose m_0 = 0 takes the zero-pivot route.  For each it records the
least wall time over five calls, which a busy machine can only raise, and
the largest numerator or denominator bit-length in the result.  The inputs
are built before the timed calls.  The numbers go under ``runs[NAME]`` of
BENCH_8.json at the repository root and other labels are kept, so the
numbers of two source trees (say, a parent commit's ``src`` and this one's)
sit side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "algebraic"
JACOBI_ENTRY = "tanh"
JACOBI_OPS = (
    "coefficient_array",
    "moments",
    "cf_to_ogf",
    "hankel_transform",
    "jfraction",
    "hankel_transform_f_egf",
)
ORDERS = (16, 32, 64)
REPEATS = 5
OUT = ROOT / "BENCH_8.json"


def _fractions(obj) -> list:
    """Every rational in a result, through the public attributes."""
    from expriordan.orthopoly import Recurrence
    from expriordan.production import ZAPair
    from expriordan.riordan import ExpRiordan, TriMatrix
    from expriordan.series import Series

    if isinstance(obj, Series):
        return list(obj.coeffs)
    if isinstance(obj, TriMatrix):
        return [v for row in obj.rows for v in row]
    if isinstance(obj, ExpRiordan):
        return [*obj.g.coeffs, *obj.f.coeffs, *_fractions(obj.matrix)]
    if isinstance(obj, ZAPair):
        return [*obj.z.coeffs, *obj.a.coeffs]
    if isinstance(obj, Recurrence):
        return [*obj.b, *obj.lam]
    if isinstance(obj, (tuple, list)):
        return list(obj)
    raise TypeError(f"no rationals known for {type(obj).__name__}")


def max_bits(obj) -> int:
    return max(
        max(q.numerator.bit_length(), q.denominator.bit_length())
        for q in _fractions(obj)
    )


def measure() -> list[dict]:
    from expriordan import catalog, orthopoly, production, riordan

    rows = []
    for n in ORDERS:
        g, f = catalog.pair(ENTRY, n)
        arr = riordan.build(g, f)
        fbar = f.revert()
        za = production.za_sequences(g, f)
        rec = orthopoly.recurrence_from_jacobi(catalog.entry(JACOBI_ENTRY).jacobi, n)
        m = orthopoly.moments(rec, n)
        tanh_f = catalog.pair(JACOBI_ENTRY, n)[1].egf()
        ops = {
            "revert": lambda: f.revert(),
            "compose": lambda: f.compose(fbar),
            "build": lambda: riordan.build(g, f),
            "inverse": lambda: riordan.inverse(arr),
            "za_sequences": lambda: production.za_sequences(g, f),
            "multiply": lambda: riordan.multiply(arr, arr),
            "production_definitional": lambda: production.production_definitional(arr),
            "production_analytic": lambda: production.production_analytic(za, n - 1),
            "mat_inverse": lambda: riordan.mat_inverse(arr.matrix),
            "mat_mul": lambda: riordan.mat_mul(arr.matrix, arr.matrix),
            "coefficient_array": lambda: orthopoly.coefficient_array(rec, n),
            "moments": lambda: orthopoly.moments(rec, n),
            "cf_to_ogf": lambda: orthopoly.cf_to_ogf(rec, 2 * n, n),
            "hankel_transform": lambda: orthopoly.hankel_transform(m, n // 2),
            "jfraction": lambda: orthopoly.jfraction(m, n // 2),
            "hankel_transform_f_egf": lambda: orthopoly.hankel_transform(tanh_f, n // 2),
        }
        for name, op in ops.items():
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                result = op()
                times.append(time.perf_counter() - start)
            rows.append(
                {
                    "operation": name,
                    "entry": JACOBI_ENTRY if name in JACOBI_OPS else ENTRY,
                    "order": n,
                    "min_s": round(min(times), 6),
                    "bits": max_bits(result),
                }
            )
            print(f"{name:24s} n={n:2d}  {rows[-1]['min_s']:.6f} s  {rows[-1]['bits']} bits")
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding expriordan")
    ap.add_argument("--label", default="change", help="key of this run in the output")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))

    results = measure()
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc.setdefault("script", "scripts/bench_layers.py")
    doc.setdefault("entry", ENTRY)
    doc.setdefault("orders", list(ORDERS))
    doc.setdefault("statistic", "least wall time over the repeats")
    doc.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "repeats": REPEATS,
        "results": results,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
