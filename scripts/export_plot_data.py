#!/usr/bin/env python3
"""Export curve and parametric CSV samples for every catalog entry.

Usage: python scripts/export_plot_data.py [--outdir DIR] [--tmin T] [--tmax T] [--samples K]

Each file is the output of `expriordan plotdata <id> --kind <kind>` over the
given window; a rejected window prints the CLI's diagnostic and exits 1.
"""

import argparse
import io
from contextlib import redirect_stdout
from pathlib import Path

from expriordan import cli
from expriordan.catalog import ids


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="plot_data")
    ap.add_argument("--tmin", type=float, default=-4.0)
    ap.add_argument("--tmax", type=float, default=4.0)
    ap.add_argument("--samples", type=int, default=200)
    args = ap.parse_args()

    window = [f"--tmin={args.tmin!r}", f"--tmax={args.tmax!r}", f"--samples={args.samples}"]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for eid in ids():
        for kind in ("curve", "parametric"):
            out = io.StringIO()
            with redirect_stdout(out):
                status = cli.main(["plotdata", eid, "--kind", kind, *window])
            if status:
                return status
            path = outdir / f"{eid}_{kind}.csv"
            path.write_text(out.getvalue())
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
