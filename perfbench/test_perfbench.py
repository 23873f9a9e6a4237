"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import re
from fractions import Fraction

import pytest

import oracles
import run
import workloads
from expriordan.riordan import build
from expriordan.series import Series
from results import digest, max_bits
from tracing import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _corrupt_first_call(fn, spoil):
    calls = []

    def wrapped(*args):
        result = fn(*args)
        calls.append(None)
        return spoil(result) if len(calls) == 1 else result

    return wrapped


def test_oracles_reproduce_known_values():
    assert [oracles.hankel_sech2(n) for n in range(7)] == [
        1, -2, -24, 3456, 9953280, -859963392000, -3120635156889600000
    ]
    assert [oracles.hankel_tanh(n) for n in range(6)] == [0, -1, 0, 144, 0, -1194393600]
    assert [oracles.hankel_sec2(n) for n in range(3)] == [1, 2, 24]
    assert max_bits("1, -2, 3/1024") == 11
    assert max_bits("x^4 - 300x^2") == 9
    assert max_bits("t,f\n-3.99,1e-05") == 0
    assert max_bits([Fraction(-5, 1024), None, {"x": "7/3"}]) == 11


def test_corrupted_result_fails_the_run(monkeypatch, capsys):
    def spoil(values):
        return [values[0] + 1, *values[1:]]

    name = "orthopoly.hankel_transform"
    monkeypatch.setitem(
        workloads.LAYER_FUNCS, name, _corrupt_first_call(workloads.LAYER_FUNCS[name], spoil)
    )
    status = run.main(["--workload", "hankel", "--seed", "3", "--seconds", "0"])
    result = _last_json(capsys.readouterr().out)
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == len(workloads.jobs("hankel", 3))


def test_a_corrupted_array_is_caught_by_the_oracles():
    def spoil(arr):
        g = Series(arr.g.coeffs[:-1] + (arr.g.coeffs[-1] + 1,))
        return build(g, arr.f)

    funcs = dict(workloads.LAYER_FUNCS)
    funcs["riordan.inverse"] = _corrupt_first_call(funcs["riordan.inverse"], spoil)
    jobs = workloads.jobs("group_law", 5)[:3]
    out = run.run_pass(0, jobs, Tracer(funcs, True), workloads.load_digests())
    assert {key for key, _, _ in out.failures} == {jobs[0].key}
    layers = {layer for _, layer, _ in out.failures}
    assert {"riordan", ""} <= layers  # oracle checks and the digest both notice


def _sample_jobs():
    def pick(workload, keys):
        return [j for j in workloads.all_jobs(workload) if j.key in keys]

    return (
        pick("sweep", {"sweep/pascal", "sweep/quartic"})
        + pick("hankel", {"moments/tanh/g", "moments/arctan/inverse", "jfraction/sech2"})
        + workloads.jobs("group_law", 9)[:4]
        + pick("cli", {"cli/list", "cli/hankel tanh --n 5"})
    )


def test_tracing_leaves_results_unchanged():
    recorded = workloads.load_digests()
    untraced = Tracer(workloads.LAYER_FUNCS, False)
    traced = Tracer(workloads.LAYER_FUNCS, True)
    for job in _sample_jobs():
        workloads.clear_caches()
        plain_digest = digest(job.run(untraced))
        workloads.clear_caches()
        assert digest(job.run(traced)) == plain_digest == recorded[job.key], job.key
    assert untraced.spans == []
    assert {s.name.split(".")[0] for s in traced.spans} == set(workloads.LAYERS)


def test_group_law_inputs_follow_the_seed():
    def keys(seed):
        return [job.key for job in workloads.jobs("group_law", seed)]

    assert keys(7) == keys(7)
    assert keys(7) != keys(8)
    index = int(keys(7)[0].split("/")[1])
    first = workloads.group_law_inputs(index)
    again = workloads.group_law_inputs(index)
    assert first[0] == again[0]
    assert [digest(p) for p in first[1]] == [digest(p) for p in again[1]]
    recorded = workloads.load_digests()
    assert all(f"group_law/{k:04d}" in recorded for k in range(workloads.GROUP_LAW_POOL))


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, section, capsys):
    status = run.main(["--workload", "cli", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    result = _last_json(capsys.readouterr().out)
    assert status == 0 and result["correct"] is True and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
