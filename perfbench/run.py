"""Benchmark of expriordan: run a workload, check every result, print metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

A run repeats passes over the workload's jobs for about ``--seconds``
seconds, in this one process (``cli`` starts one child process per job),
and takes each job's time as its best over the passes.  The catalog's memo
tables are emptied before every job.  Each job's exact
results are checked outside its timed span, against oracles and against the
digest recorded in ``digests.json``; a job that raises or fails a check is
counted in ``failed`` and makes the exit status 1.

With ``--trace 0`` every pass runs untraced and the end-to-end metrics are
printed; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are printed, with the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit).  ``--workload all`` runs the four
workloads in turn and prints a result object for each.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads  # first: it puts the library source on the path
from results import ChildResult, digest
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh interpreters started per run to time set-up; the shortest is reported.
SETUP_PROBES = 15

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class PassResult:
    index: int
    traced: bool
    times: list[float] = field(default_factory=list)  # seconds per job
    # (job key, layer or "" when none applies, message)
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    child_peak_kb: int = 0

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(index: int, jobs, tracer, digests: dict[str, str]) -> PassResult:
    """One pass over the jobs; results are checked outside the timed spans."""
    out = PassResult(index, tracer.enabled)
    tracer.pass_index = index
    for job in jobs:
        workloads.clear_caches()
        tracer.job = job.key
        start = time.perf_counter()
        try:
            results = job.run(tracer)
        except Exception as exc:  # a failed job is counted, the run goes on
            out.times.append(time.perf_counter() - start)
            out.failures.append((job.key, "", f"raised {type(exc).__name__}: {exc}"))
            continue
        out.times.append(time.perf_counter() - start)
        try:
            problems = job.check(results)
            if digest(results) != digests.get(job.key):
                problems.append(("", "result digest differs from the recorded one"))
        except Exception as exc:
            problems = [("", f"check raised {type(exc).__name__}: {exc}")]
        out.failures += [(job.key, layer, msg) for layer, msg in problems]
        for value in results.values():
            if isinstance(value, ChildResult):
                out.child_peak_kb = max(out.child_peak_kb, value.peak_rss_kb)
    return out


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh interpreters, from process start to first job."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        samples.append((int(done.stdout.split()[-1]) - start) / 1e9)
    return samples


def measure(workload: str, seed: int, seconds: float, trace: bool, digests: dict[str, str]):
    """Passes until ``seconds`` would be overrun; with tracing, alternate."""
    jobs = workloads.jobs(workload, seed)
    tracers = {False: Tracer(workloads.LAYER_FUNCS, False), True: Tracer(workloads.LAYER_FUNCS, True)}
    passes: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        start = time.perf_counter()
        passes.append(run_pass(len(passes), jobs, tracers[traced], digests))
        last = time.perf_counter() - start
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.perf_counter() + last > deadline:
            break
    return passes, tracers[True]


def best_times(passes: list[PassResult]) -> list[float]:
    """Each job's shortest time over the passes.

    Other load on the machine only ever slows a job down, so the shortest
    of several repetitions is the steadiest estimate of the job's own cost.
    """
    return [min(ts) for ts in zip(*(p.times for p in passes))]


def end_to_end(workload: str, passes: list[PassResult], setup: list[float]) -> dict:
    untraced = [p for p in passes if not p.traced]
    best = best_times(untraced)
    p90 = statistics.quantiles(best, n=10, method="inclusive")[8] if len(best) > 1 else best[0]
    if workload == "cli":
        peak_kb = max(p.child_peak_kb for p in untraced)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": min(setup),
        "wall_s": sum(best),
        "job_ms.p50": statistics.median(best) * 1e3,
        "job_ms.p90": p90 * 1e3,
        "peak_rss_mb": peak_kb / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def per_layer(passes: list[PassResult], tracer) -> dict:
    """Calls, busy seconds and result bit-lengths per layer function, per pass.

    Busy seconds add up each call's shortest time over the traced passes,
    the same estimate as ``best_times``; every pass makes the same calls.
    """
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    by_pass = {p.index: [] for p in traced}
    for span in tracer.spans:
        by_pass[span.pass_index].append(span)
    metrics = {}
    for name in workloads.LAYER_FUNCS:
        spans = [[s for s in ss if s.name == name] for ss in by_pass.values()]
        metrics[f"{name}.calls"] = (len(spans[0]), "count")
        metrics[f"{name}.s"] = (sum(min(s.end - s.start for s in call) for call in zip(*spans)), "s")
        metrics[f"{name}.bits"] = (max((s.bits for ss in spans for s in ss), default=0), "bits")
    for mod in workloads.LAYERS:
        failed = [
            tracer.raised[p.index, mod] + sum(1 for _, lay, _ in p.failures if lay == mod)
            for p in traced
        ]
        metrics[f"{mod}.failed"] = (max(failed), "count")
    metrics["bits.max"] = (max(v for k, (v, _) in metrics.items() if k.endswith(".bits")), "bits")
    traced_wall = sum(best_times(traced))
    span_share = [
        sum(s.end - s.start for s in by_pass[p.index]) / p.wall if p.wall else 0.0 for p in traced
    ]
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - sum(best_times(untraced)), "s")
    metrics["trace.coverage"] = (100 * statistics.median(span_share), "%")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _print_layer_table(metrics: dict) -> None:
    wall = metrics["trace.wall_s"]["value"]
    print("| function | calls | busy s | share of traced wall_s | bits |")
    print("|---|---|---|---|---|")
    for name in workloads.LAYER_FUNCS:
        calls = metrics[f"{name}.calls"]["value"]
        if calls:
            busy = metrics[f"{name}.s"]["value"]
            share = 100 * busy / wall if wall else 0.0
            print(f"| {name} | {_fmt(calls)} | {_fmt(busy)} | {share:.1f}% | {metrics[f'{name}.bits']['value']} |")
    failed = ", ".join(f"{m} {metrics[f'{m}.failed']['value']}" for m in workloads.LAYERS)
    print(f"\nfailed per layer: {failed}")
    for name in ("bits.max", "trace.wall_s", "trace.overhead_s", "trace.coverage"):
        m = metrics[name]
        print(f"{name}: {_fmt(m['value'])} {m['unit']}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, digests: dict[str, str]) -> bool:
    """Measure and print one workload; True when every job passed."""
    passes, tracer = measure(workload, seed, seconds, trace, digests)
    attempted = sum(len(p.times) for p in passes)
    failed_jobs = {(p.index, key) for p in passes for key, _, _ in p.failures}
    for p in passes:
        for key, lay, msg in p.failures:
            print(f"FAILED pass {p.index} {key}: {lay + ': ' if lay else ''}{msg}", file=sys.stderr)
    if trace:
        metrics = per_layer(passes, tracer)
    else:
        metrics = end_to_end(workload, passes, setup_seconds(workload, seed))
    n_traced = sum(p.traced for p in passes)
    print(
        f"## {workload}: seed {seed}, {len(passes)} passes ({n_traced} traced) of "
        f"{len(passes[0].times)} jobs; attempted {attempted}, failed {len(failed_jobs)}, "
        f"failed_frac {len(failed_jobs) / attempted:.4g}"
    )
    if trace:
        _print_layer_table(metrics)
    else:
        print("| metric | value | unit |\n|---|---|---|")
        for name, m in metrics.items():
            print(f"| {name} | {_fmt(m['value'])} | {m['unit']} |")
    print(
        json.dumps(
            {
                "correct": not failed_jobs,
                "attempted": attempted,
                "failed": len(failed_jobs),
                "metrics": metrics,
            }
        )
    )
    return not failed_jobs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        digests = workloads.load_digests()
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: cannot use the recorded digests: {exc}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [run_workload(w, args.seed, args.seconds, bool(args.trace), digests) for w in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
