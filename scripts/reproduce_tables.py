#!/usr/bin/env python3
"""Print every headline matrix and sequence in one run.

Usage: python scripts/reproduce_tables.py [--order N]
"""

import argparse

from expriordan.catalog import expx_series, ids, inverse_pair, pair
from expriordan.orthopoly import hankel_transform, jfraction
from expriordan.production import production_definitional, tridiagonal_params
from expriordan.riordan import build, format_polynomial, row_polynomials
from expriordan.series import one


def show(title: str, body: str) -> None:
    print(f"== {title}")
    print(body)
    print()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--order", type=int, default=16)
    args = ap.parse_args()
    n = args.order

    for eid in ids():
        arr = build(*pair(eid, n))
        show(f"array [{eid}], leading 7x7", arr.matrix.leading(7).render_text())
        p = production_definitional(arr)
        params = tridiagonal_params(p)
        tag = (
            "alpha={}, beta={}, gamma={}, delta={}".format(
                params.alpha, params.beta, params.gamma, params.delta
            )
            if params
            else "not tridiagonal"
        )
        show(f"production [{eid}] ({tag}), leading 7x7", p.leading(7).render_text())

    stirling = build(one(6), expx_series(6) - 1).matrix
    show("Stirling set-number triangle", stirling.render_text())

    inv_prod = production_definitional(build(*inverse_pair("cos_sin", n)))
    show("production of [cos, sin]^{-1}, leading 7x7", inv_prod.leading(7).render_text())

    polys = row_polynomials(build(*pair("algebraic", 6)))
    show("row polynomials of the algebraic sigmoid array", "\n".join(map(format_polynomial, polys)))

    g, f = pair("tanh", 32)
    show("Hankel transform of the sech^2 expansion", str(hankel_transform(g.egf(), 6)))
    show("Hankel transform of the tanh expansion", str(hankel_transform(f.egf(), 7)))

    sec2 = inverse_pair("arctan", 13)[0]
    show("moments with EGF sec^2", ", ".join(str(v) for v in sec2.egf()))

    rec = jfraction(pair("gompertz", 20)[0].egf(), 9)
    show(
        "Gompertz J-fraction",
        "b:      " + ", ".join(str(v) for v in rec.b)
        + "\nlambda: " + ", ".join(str(v) for v in rec.lam),
    )

    coeffs = pair("gompertz", 6)[0].egf()
    show("Gompertz moment sequence", ", ".join(str(v) for v in coeffs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
