"""Tests of the benchmark itself, at sizes far below the benchmark's.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from grassmann_stream import sampling

HERE = Path(__file__).resolve().parent

SMALL = {
    "gaussian_sketch": workloads.GaussianSketch(n=300, d=4, m=60, steps=10),
    "entrywise_converge": workloads.EntrywiseConverge(n=200, d=4, m=40),
    "identity_verify": workloads.IdentityVerify(n=200, d=4, m=40, steps=30),
}
COUNTS = (
    "sampling.bytes_drawn_per_step",
    "numerics.least_squares_calls_per_step",
    "grouse.iterations_to_target",
    "grouse.skip_frac",
    "grouse.reorth_per_kstep",
)


def test_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    layers = tracing.layer_metrics(tracing.TraceSummary(), tracing.TraceSummary(), 1)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {name: unit for name, (_, unit) in layers.items()} == {
        name: unit for name, unit in declared.items() if not name.startswith("trace.")}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly_across_runs(name):
    workload = SMALL[name]
    runs = []
    for _ in range(2):
        result = workloads.measure(workload, seed=5, seconds=0.0, trace=True)
        assert result.attempted == workload.min_trials
        assert result.failures == []
        metrics = tracing.layer_metrics(result.timing, result.counts, workload.min_trials)
        runs.append({k: metrics[k][0] for k in COUNTS})
    assert runs[0] == runs[1]
    assert runs[0]["grouse.iterations_to_target"] > 0
    # One operator per step: a float64 m x n matrix or m int64 indices.
    per_entry = workload.n * 8 if name == "gaussian_sketch" else 8
    assert runs[0]["sampling.bytes_drawn_per_step"] == workload.m * per_entry
    assert runs[0]["numerics.least_squares_calls_per_step"] >= 1


def _corrupt(name, output):
    if name == "identity_verify":
        report = json.loads(json.dumps(output))
        first = next(k for k in report["identities"] if k not in workloads.FULL_DATA_ONLY)
        report["identities"][first]["samples"] = 0
        return report
    return dataclasses.replace(output, final_zeta=math.nan)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_corrupted_output_is_a_failure(name, monkeypatch):
    workload = SMALL[name]
    config = workload.config(seed=2, trial=0)
    _, output = workload.run(config)
    assert workload.check(config, output) is None
    assert workload.check(config, _corrupt(name, output)) is not None

    original_run = type(workload).run

    def corrupted_run(self, config):
        steps, output = original_run(self, config)
        return steps, _corrupt(name, output)

    monkeypatch.setattr(type(workload), "run", corrupted_run)
    result = workloads.measure(workload, seed=2, seconds=0.0, trace=False)
    assert len(result.failures) == result.attempted == workload.min_trials


def test_failed_identity_is_a_failure():
    workload = SMALL["identity_verify"]
    config = workload.config(seed=2, trial=0)
    _, report = workload.run(config)
    name = next(k for k in report["identities"] if k not in workloads.FULL_DATA_ONLY)
    report["identities"][name]["passed"] = False
    assert workload.check(config, report) is not None


def test_slow_convergence_is_a_failure():
    workload = SMALL["entrywise_converge"]
    config = workload.config(seed=2, trial=0)
    _, series = workload.run(config)
    late = dataclasses.replace(series, iterations=int(3 * workload.heuristic) + 1)
    assert workload.check(config, late) is not None
    unconverged = dataclasses.replace(series, converged=False, iterations=None)
    assert workload.check(config, unconverged) is not None


def _wrapped_attributes():
    entries = tracing.WRAPPED + (tracing.STREAM,)
    return {(module.__name__, attr): getattr(module, attr) for module, attr, _ in entries}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_results_unchanged(name):
    workload = SMALL[name]
    originals = _wrapped_attributes()
    config = workload.config(seed=4, trial=1)
    steps, plain = workload.run(config)
    tracer = tracing.Tracer()
    with tracer:
        assert _wrapped_attributes() != originals
        traced_steps, traced = workload.run(config)
    assert _wrapped_attributes() == originals
    assert traced_steps == steps
    assert workload.fingerprint(traced) == workload.fingerprint(plain)
    summary = tracer.summary()
    assert summary.steps == steps
    assert summary.calls["harness"] == 1


def test_tracer_restores_functions_when_the_call_raises():
    originals = _wrapped_attributes()
    with pytest.raises(ValueError):
        with tracing.Tracer():
            sampling.make_gaussian(0, 5, None)
    assert _wrapped_attributes() == originals


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 2.0, 5.0, 0),
        ("d", 3.0, 4.0, 1),
        ("c", 6.0, 7.0, 0),
    ]
    summary = tracer.summary()
    assert summary.self_s == {"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0}
    assert summary.calls == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gaussian_sketch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

