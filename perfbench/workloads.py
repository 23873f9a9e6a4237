"""The benchmark's workloads: their jobs, inputs and result checks.

A job's ``run`` is the timed work.  It calls the library only through the
tracer, by the names in ``LAYER_FUNCS``, and returns its exact results by
name.  Its ``check`` runs outside the timed span and returns the oracle
failures as ``(layer, message)`` pairs; the digest of the results is checked
against ``digests.json`` apart from it.

Why these workloads:

- ``sweep``: every catalog entry at jet order 24 through the paper's main
  pipeline.  Coefficient growth in reversion and composition dominates it.
- ``hankel``: Hankel transforms h_0..h_24 of five EGF sequences, J-fraction
  round trips and moments from Jacobi parameters.  Fraction-free elimination
  dominates and the array layer is idle; tanh keeps the vanishing-minor path.
- ``group_law``: many small dense arrays of order 6-8.  Per-call overhead
  dominates, so a kernel that wins at order 24 but adds per-call work
  shows up as a loss here.
- ``cli``: one ``python -m expriordan`` process per command, as a console
  user runs it, paying interpreter start-up, import, argparse and rendering
  every time.

The seed fixes the inputs.  For ``group_law`` it draws the arrays from a
fixed pool of reproducible random arrays, whose digests are all recorded;
for the other workloads it fixes the order in which the jobs run.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "expriordan" / "__init__.py").is_file():
    raise ImportError(f"no library source at {SRC / 'expriordan'}")
if sys.path[:1] != [str(SRC)]:
    sys.path.insert(0, str(SRC))

from expriordan import catalog, orthopoly, production, riordan  # noqa: E402
from expriordan.series import Series  # noqa: E402

import oracles  # noqa: E402
from results import ChildResult, plain  # noqa: E402

WORKLOADS = ("sweep", "hankel", "group_law", "cli")

SWEEP_ORDER = 24
HANKEL_N = 24
GROUP_LAW_POOL = 1024
GROUP_LAW_JOBS = 105
GROUP_LAW_ORDERS = (6, 7, 8)

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

# The sizes the recorded digests belong to.
SIZES = {
    "sweep_order": SWEEP_ORDER,
    "hankel_n": HANKEL_N,
    "group_law_pool": GROUP_LAW_POOL,
    "group_law_orders": list(GROUP_LAW_ORDERS),
}

Problems = list[tuple[str, str]]


@dataclass(frozen=True)
class Job:
    key: str
    run: Callable  # (tracer) -> dict of exact results
    check: Callable[[dict], Problems]


# ---------------------------------------------------------------------------
# the layer functions the benchmark calls, by dotted name
# ---------------------------------------------------------------------------


def run_child(args: list[str]) -> ChildResult:
    """Run ``python <args>`` from the checkout root against ``src/``.

    stderr goes into the same pipe as stdout, so one read drains both.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    ) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out, usage.ru_maxrss)


CLI_SUBCOMMANDS = ("list", "array", "produce", "hankel", "moments", "poly", "cf", "plotdata")

LAYER_FUNCS: dict[str, Callable] = {
    "series.revert": Series.revert,
    "series.compose": Series.compose,
    "riordan.build": riordan.build,
    "riordan.inverse": riordan.inverse,
    "riordan.multiply": riordan.multiply,
    "riordan.mat_inverse": riordan.mat_inverse,
    "riordan.mat_mul": riordan.mat_mul,
    "riordan.matrix_to_json": riordan.matrix_to_json,
    "production.production_definitional": production.production_definitional,
    "production.za_sequences": production.za_sequences,
    "production.production_analytic": production.production_analytic,
    "production.tridiagonal_params": production.tridiagonal_params,
    "orthopoly.hankel_transform": orthopoly.hankel_transform,
    "orthopoly.jfraction": orthopoly.jfraction,
    "orthopoly.cf_to_ogf": orthopoly.cf_to_ogf,
    "orthopoly.moments": orthopoly.moments,
    "catalog.pair": catalog.pair,
    "catalog.inverse_pair": catalog.inverse_pair,
    "cli.import": run_child,
    **{f"cli.{sub}": run_child for sub in CLI_SUBCOMMANDS},
}

LAYERS = ("series", "riordan", "production", "orthopoly", "catalog", "cli")

_CACHED = ("pair", "inverse_pair", "build_entry", "build_inverse_entry", "stirling2")


def clear_caches() -> None:
    """Empty the catalog's memo tables, so that every job pays for the series
    it uses, whatever ran before it."""
    for name in _CACHED:
        clear = getattr(getattr(catalog, name, None), "cache_clear", None)
        if clear is not None:
            clear()


def _mismatch(layer: str, what: str, got, want) -> Problems:
    return [] if plain(got) == plain(want) else [(layer, f"{what} differs from its oracle")]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_job(eid: str, n: int) -> Job:
    def run(t) -> dict:
        g, f = t("catalog.pair", eid, n)
        fbar = t("series.revert", f)
        f_of_fbar = t("series.compose", f, fbar)
        arr = t("riordan.build", g, f)
        inv = t("riordan.inverse", arr)
        ident = t("riordan.multiply", arr, inv)
        p = t("production.production_definitional", arr)
        za = t("production.za_sequences", g, f)
        q = t("production.production_analytic", za, n - 1)
        params = t("production.tridiagonal_params", p)
        js = t("riordan.matrix_to_json", p, f"production({eid})")
        return {
            "g": g, "f": f, "fbar": fbar, "f_of_fbar": f_of_fbar, "array": arr,
            "inverse": inv, "identity": ident, "production": p, "za": za,
            "production_analytic": q, "jacobi": params, "json": js,
        }

    def check(r: dict) -> Problems:
        e = catalog.entry(eid)
        out = _mismatch("series", "f(fbar)", r["f_of_fbar"], oracles.x_coeffs(n))
        out += _mismatch("riordan", "fbar of the inverse", r["inverse"].f, r["fbar"])
        out += _mismatch("riordan", "A * A^-1", r["identity"].matrix, oracles.identity_rows(n + 1))
        if e.inverse_g is not None:
            out += _mismatch("riordan", "inverse g", r["inverse"].g, e.inverse_g(n))
            out += _mismatch("riordan", "inverse f", r["inverse"].f, e.inverse_f(n))
        out += _mismatch(
            "production",
            "definitional production",
            oracles.leading_block(plain(r["production"]), n - 1),
            r["production_analytic"],
        )
        closed = catalog.za_closed_form(eid, n - 1)
        if closed is not None:
            out += _mismatch("production", "(Z, A)", r["za"], closed)
        if e.jacobi is not None:
            out += _mismatch("production", "Jacobi parameters", r["jacobi"], e.jacobi)
        out += _mismatch(
            "riordan", "serialized production", oracles.rows_from_json(r["json"]), r["production"]
        )
        return out

    return Job(f"sweep/{eid}", run, check)


def _sweep_jobs() -> list[Job]:
    return [_sweep_job(eid, SWEEP_ORDER) for eid in catalog.ids()]


# ---------------------------------------------------------------------------
# hankel
# ---------------------------------------------------------------------------

# sequence name -> (getter, catalog id, 0 for g or 1 for f)
HANKEL_SEQUENCES = {
    "sech2": ("catalog.pair", "tanh", 0),
    "tanh": ("catalog.pair", "tanh", 1),
    "sec2": ("catalog.inverse_pair", "arctan", 0),
    "sech": ("catalog.pair", "gudermann", 0),
    "gompertz": ("catalog.pair", "gompertz", 0),
}


def _egf(t, name: str, length: int) -> tuple[Fraction, ...]:
    getter, eid, part = HANKEL_SEQUENCES[name]
    return t(getter, eid, length)[part].egf()


def _hankel_job(name: str, n: int) -> Job:
    def run(t) -> dict:
        seq = _egf(t, name, 2 * n)
        return {"sequence": seq, "hankel": t("orthopoly.hankel_transform", seq, n)}

    def check(r: dict) -> Problems:
        closed = oracles.HANKEL_CLOSED.get(name)
        if closed is None:
            return []
        return _mismatch("orthopoly", f"Hankel transform of {name}", r["hankel"],
                         [closed(k) for k in range(n + 1)])

    return Job(f"hankel/{name}", run, check)


def _jfraction_job(name: str, n: int) -> Job:
    def run(t) -> dict:
        seq = _egf(t, name, 2 * n)
        rec = t("orthopoly.jfraction", seq, n)
        return {"sequence": seq, "jfraction": rec, "ogf": t("orthopoly.cf_to_ogf", rec, 2 * n)}

    def check(r: dict) -> Problems:
        return _mismatch("orthopoly", f"J-fraction round trip of {name}", r["ogf"], r["sequence"])

    return Job(f"jfraction/{name}", run, check)


def _moments_job(eid: str, side: str, n: int) -> Job:
    e = catalog.entry(eid)
    params, g_series = (e.jacobi, e.g_series) if side == "g" else (e.inverse_jacobi, e.inverse_g)

    def run(t) -> dict:
        rec = orthopoly.recurrence_from_jacobi(params, n)
        return {"moments": t("orthopoly.moments", rec, n)}

    def check(r: dict) -> Problems:
        return _mismatch("orthopoly", f"moments of {eid} ({side})", r["moments"],
                         g_series(n).egf())

    return Job(f"moments/{eid}/{side}", run, check)


def _hankel_jobs() -> list[Job]:
    n = HANKEL_N
    out = [_hankel_job(name, n) for name in HANKEL_SEQUENCES]
    out += [_jfraction_job(name, n) for name in HANKEL_SEQUENCES if name != "tanh"]  # m_0 = 0
    for eid in catalog.ids():
        e = catalog.entry(eid)
        if e.jacobi is not None:
            out.append(_moments_job(eid, "g", 2 * n))
        if e.inverse_jacobi is not None:
            out.append(_moments_job(eid, "inverse", 2 * n))
    return out


# ---------------------------------------------------------------------------
# group_law
# ---------------------------------------------------------------------------


def group_law_inputs(index: int) -> tuple[int, list[tuple[Series, Series]]]:
    """Order and three (g, f) pairs of pool array ``index``: dense, with
    coefficients p/q, |p| <= 3, 1 <= q <= 3, g(0) = 1, f(0) = 0, f'(0) = 1.
    The order cycles through GROUP_LAW_ORDERS with the index."""
    rng = random.Random(index)
    order = GROUP_LAW_ORDERS[index % len(GROUP_LAW_ORDERS)]

    def coeffs(count: int) -> list[Fraction]:
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(count)]

    pairs = [
        (Series(tuple([Fraction(1)] + coeffs(order))),
         Series(tuple([Fraction(0), Fraction(1)] + coeffs(order - 1))))
        for _ in range(3)
    ]
    return order, pairs


def _group_law_job(index: int) -> Job:
    order, pairs = group_law_inputs(index)

    def run(t) -> dict:
        a, b, c = (t("riordan.build", g, f) for g, f in pairs)
        inv = t("riordan.inverse", a)
        ab = t("riordan.multiply", a, b)
        return {
            "a": a, "b": b, "c": c, "inverse": inv,
            "identity": t("riordan.multiply", a, inv),
            "ab": ab,
            "ab_c": t("riordan.multiply", ab, c),
            "a_bc": t("riordan.multiply", a, t("riordan.multiply", b, c)),
            "ab_matrix": t("riordan.mat_mul", a.matrix, b.matrix),
            "inverse_matrix": t("riordan.mat_inverse", a.matrix),
            "f_of_fbar": t("series.compose", a.f, inv.f),
            "production": t("production.production_definitional", a),
            "production_analytic": t(
                "production.production_analytic",
                t("production.za_sequences", a.g, a.f),
                order - 1,
            ),
        }

    def check(r: dict) -> Problems:
        out = _mismatch("riordan", "A * A^-1", r["identity"].matrix,
                        oracles.identity_rows(order + 1))
        out += _mismatch("riordan", "(AB)C against A(BC)", r["ab_c"], r["a_bc"])
        out += _mismatch("riordan", "matrix product", r["ab_matrix"], r["ab"].matrix)
        out += _mismatch("riordan", "matrix inverse", r["inverse_matrix"], r["inverse"].matrix)
        out += _mismatch("series", "f(fbar)", r["f_of_fbar"], oracles.x_coeffs(order))
        out += _mismatch(
            "production",
            "definitional production",
            oracles.leading_block(plain(r["production"]), order - 1),
            r["production_analytic"],
        )
        return out

    return Job(f"group_law/{index:04d}", run, check)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# Every command of the README, then three at moderate size.
CLI_COMMANDS = (
    "list",
    "array gompertz --order 6",
    "array --g 1 --f 0,1 --order 3",
    "produce tanh --order 6",
    "produce algebraic --order 6",
    "hankel tanh --n 5",
    "moments arctan --inverse --n 8",
    "poly algebraic --n 6",
    "cf gompertz --depth 4",
    "plotdata tanh --kind parametric",
    "produce gompertz --order 24",
    "hankel tanh --n 24",
    "array algebraic --inverse --order 24 --format json",
)

# Known output, from the README and closed forms.
CLI_EXPECTED = {
    "hankel tanh --n 5": "0, -1, 0, 144, 0, -1194393600\n",
    "hankel tanh --n 24": ", ".join(str(oracles.hankel_tanh(k)) for k in range(25)) + "\n",
    "moments arctan --inverse --n 8": "1, 0, 2, 0, 16, 0, 272, 0, 7936\n",
    "cf gompertz --depth 4": "b: 0, -1, -2, -3\nlambda: -1, -2, -3, -4\n",
}
CLI_LAST_LINE = {
    "produce tanh --order 6": "jacobi: alpha=0, beta=-2, gamma=0, delta=-1",
    "produce algebraic --order 6": "jacobi: not tridiagonal",
}


def _cli_job(name: str, command: str, args: list[str]) -> Job:
    def run(t) -> dict:
        return {"child": t(name, args)}

    def check(r: dict) -> Problems:
        child = r["child"]
        if child.status != 0:
            return [("cli", f"exit status {child.status}: {child.stdout.strip()[-200:]}")]
        if command in CLI_EXPECTED and child.stdout != CLI_EXPECTED[command]:
            return [("cli", "output differs from the known values")]
        if command in CLI_LAST_LINE and child.stdout.splitlines()[-1] != CLI_LAST_LINE[command]:
            return [("cli", "Jacobi line differs from the known values")]
        return []

    return Job(f"cli/{command}", run, check)


def _cli_jobs() -> list[Job]:
    out = [_cli_job("cli.import", "import", ["-c", "import expriordan.cli"])]
    for command in CLI_COMMANDS:
        words = command.split()
        out.append(_cli_job(f"cli.{words[0]}", command, ["-m", "expriordan", *words]))
    return out


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def all_jobs(workload: str) -> list[Job]:
    """Every job of a workload whose digest is recorded; for group_law the pool."""
    if workload == "group_law":
        return [_group_law_job(k) for k in range(GROUP_LAW_POOL)]
    return {"sweep": _sweep_jobs, "hankel": _hankel_jobs, "cli": _cli_jobs}[workload]()


def jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass, made from the seed."""
    rng = random.Random(seed)
    if workload == "group_law":
        # The same number of arrays of each order, so that seeds differ in
        # coefficients and not in how much work a pass is.
        m = len(GROUP_LAW_ORDERS)
        picks = [k for r in range(m) for k in rng.sample(range(r, GROUP_LAW_POOL, m), GROUP_LAW_JOBS // m)]
        rng.shuffle(picks)
        return [_group_law_job(k) for k in picks]
    out = all_jobs(workload)
    rng.shuffle(out)
    return out


def load_digests() -> dict[str, str]:
    with open(DIGESTS_FILE) as fh:
        recorded = json.load(fh)
    if recorded["sizes"] != SIZES:
        raise RuntimeError(
            f"{DIGESTS_FILE.name} was recorded for sizes {recorded['sizes']}, "
            f"the benchmark runs {SIZES}; record the digests again"
        )
    return recorded["digests"]
