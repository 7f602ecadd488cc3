"""The benchmark's workloads and its timed loop.

Each workload builds its trial configurations from the benchmark seed,
makes one call to a public harness entry point per trial, and checks the
call's output. The checks hold for any random stream with the documented
distribution, so a change that consumes random numbers differently but
keeps the distribution still passes; none compares seeded outputs
bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import ClassVar

from grassmann_stream import harness, theory

from reference import LARGE_DRAW, SMALL_CALLS
from tracing import TraceSummary, Tracer

# A random start at n=5000, d=10 has log zeta near log E[zeta0] = -72, with
# a spread of a few nats; 40 sketched steps lift it by 30 nats or more. A
# final similarity this far above the expected start means the stream
# made progress.
LOG_ZETA_RISE = 10.0

# Identities verify_step_invariants checks only for fully sampled streams.
FULL_DATA_ONLY = frozenset({"full_data_exact_ratio"})

# Reference-kernel time per unit of trial time, and the fewest kernel
# runs per measurement: enough samples to pin the machine's speed.
REFERENCE_SHARE = 0.1
REFERENCE_MIN_RUNS = 3


def trial_seed(seed: int, trial: int) -> int:
    """Seed of trial ``trial`` in a run with benchmark seed ``seed``."""
    return seed * 1000 + trial


class _RunTrialWorkload:
    """A workload whose trial is one harness.run_trial call."""

    def run(self, config: harness.TrialConfig):
        series = harness.run_trial(config)
        steps = series.iterations if series.converged else config.max_iters
        return steps, series

    @staticmethod
    def fingerprint(series: harness.TrialSeries) -> tuple:
        return (series.converged, series.iterations, series.final_zeta)

    def warm_up(self) -> None:
        harness.run_trial(dataclasses.replace(self.config(0, 0), max_iters=2))


@dataclass(frozen=True)
class GaussianSketch(_RunTrialWorkload):
    """Fixed-length run_trial with a fresh dense Gaussian sketch per step."""

    name: ClassVar[str] = "gaussian_sketch"
    reference: ClassVar = LARGE_DRAW
    n: int = 5000
    d: int = 10
    m: int = 500
    steps: int = 40
    min_trials: int = 2

    def config(self, seed: int, trial: int) -> harness.TrialConfig:
        return harness.TrialConfig(
            n=self.n, d=self.d, op_kind="gaussian", m=self.m,
            max_iters=self.steps, seed=trial_seed(seed, trial),
            diagnostics_level="none",
        )

    def check(self, config: harness.TrialConfig, series) -> str | None:
        zeta = series.final_zeta
        if not (math.isfinite(zeta) and 0.0 < zeta <= 1.0):
            return f"final zeta {zeta!r} is not in (0, 1]"
        floor = math.log(theory.expected_zeta0(self.n, self.d)) + LOG_ZETA_RISE
        if math.log(zeta) < floor:
            return f"log final zeta {math.log(zeta):.2f} < {floor:.2f}"
        return None


@dataclass(frozen=True)
class EntrywiseConverge(_RunTrialWorkload):
    """run_trial with entry-wise sampling from a random start to zeta >= zeta*."""

    name: ClassVar[str] = "entrywise_converge"
    reference: ClassVar = SMALL_CALLS
    n: int = 2000
    d: int = 20
    m: int = 100
    zeta_star: float = 1.0 - 1e-3
    min_trials: int = 2

    @property
    def heuristic(self) -> float:
        return theory.heuristic_iterations(self.n, self.m, self.d, self.zeta_star)

    def config(self, seed: int, trial: int) -> harness.TrialConfig:
        return harness.TrialConfig(
            n=self.n, d=self.d, op_kind="entrywise", m=self.m,
            zeta_star=self.zeta_star, max_iters=int(3 * self.heuristic) + 1,
            seed=trial_seed(seed, trial), diagnostics_level="none",
        )

    def check(self, config: harness.TrialConfig, series) -> str | None:
        if not series.converged:
            return f"not converged within {config.max_iters} steps"
        if series.iterations > 3 * self.heuristic:
            return f"{series.iterations} steps > 3x heuristic {self.heuristic:.0f}"
        if not (math.isfinite(series.final_zeta) and series.final_zeta >= self.zeta_star):
            return f"final zeta {series.final_zeta!r} below {self.zeta_star}"
        return None


@dataclass(frozen=True)
class IdentityVerify:
    """verify_step_invariants on the entrywise_converge shape, started near the truth.

    The start lies in the local region (init="perturbed"). From a random
    start at this shape the overlap matrix can be ill-conditioned enough
    for the Schur determinant identity to miss its 1e-9 tolerance, which
    would fail the run for a reason unrelated to speed.
    """

    name: ClassVar[str] = "identity_verify"
    reference: ClassVar = SMALL_CALLS
    n: int = 2000
    d: int = 20
    m: int = 100
    steps: int = 400
    min_trials: int = 3

    def config(self, seed: int, trial: int) -> harness.TrialConfig:
        return harness.TrialConfig(
            n=self.n, d=self.d, op_kind="entrywise", m=self.m, init="perturbed",
            seed=trial_seed(seed, trial),
        )

    def run(self, config: harness.TrialConfig):
        return self.steps, harness.verify_step_invariants(config, self.steps)

    def check(self, config: harness.TrialConfig, report: dict) -> str | None:
        identities = report["identities"]
        applicable = {k: v for k, v in identities.items() if k not in FULL_DATA_ONLY}
        if not applicable:
            return "no identities reported"
        for name, result in applicable.items():
            if result["samples"] == 0:
                return f"{name} has no samples"
            if not result["passed"]:
                return f"{name} violated by {result['max_violation']!r}"
        if not report["passed"]:
            return "verify reports a failure"
        return None

    @staticmethod
    def fingerprint(report: dict) -> dict:
        return report

    def warm_up(self) -> None:
        harness.verify_step_invariants(self.config(0, 0), 2)


WORKLOADS = {w.name: w for w in (GaussianSketch(), EntrywiseConverge(), IdentityVerify())}


@dataclass
class Measurement:
    """What one timed loop saw: one entry per passing trial in each list."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    trial_s: list[float] = field(default_factory=list)
    traced_trial_s: list[float] = field(default_factory=list)
    # Untraced-only runs: the machine's slowdown during each passing trial,
    # from reference-kernel runs right before and right after it, and the
    # number of kernel runs.
    slowdown: list[float] = field(default_factory=list)
    reference_runs: int = 0
    # Timings from every traced trial; exact counts from the first
    # min_trials traced trials, which every run of a seed makes.
    timing: TraceSummary = field(default_factory=TraceSummary)
    counts: TraceSummary = field(default_factory=TraceSummary)


def _call(workload, config, tracer: Tracer | None):
    """One timed harness call: (steps, seconds, result), or a failure string."""
    start = time.perf_counter()
    try:
        if tracer is None:
            steps, result = workload.run(config)
        else:
            with tracer:
                steps, result = workload.run(config)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return f"raised {exc!r}"
    return steps, time.perf_counter() - start, result


def _time_reference(reference, budget_s: float) -> list[float]:
    """Kernel times: at least REFERENCE_MIN_RUNS runs and ``budget_s`` seconds."""
    times = []
    while sum(times) < budget_s or len(times) < REFERENCE_MIN_RUNS:
        times.append(reference.time())
    return times


def measure(workload, seed: int, seconds: float, trace: bool) -> Measurement:
    """Run trials until ``seconds`` have passed and at least min_trials ran.

    With ``trace``, each trial runs twice on the same inputs, untraced and
    traced, in alternating order; the traced output must equal the
    untraced one.
    """
    out = Measurement()
    before = [] if trace else _time_reference(workload.reference, 0.0)
    out.reference_runs = len(before)
    start = time.perf_counter()
    while out.attempted < workload.min_trials or time.perf_counter() - start < seconds:
        trial = out.attempted
        out.attempted += 1
        config = workload.config(seed, trial)
        tracer = Tracer() if trace else None
        order = [None]
        if trace:
            order = [None, tracer] if trial % 2 == 0 else [tracer, None]
        calls = {t is not None: _call(workload, config, t) for t in order}
        if not trace:
            call = calls[False]
            trial_s = 0.0 if isinstance(call, str) else call[1]
            after = _time_reference(workload.reference, REFERENCE_SHARE * trial_s)
            slowdown = (workload.reference.slowdown(before)
                        + workload.reference.slowdown(after)) / 2
            out.reference_runs += len(after)
            before = after
        failure = _first_failure(workload, config, calls)
        if failure is not None:
            out.failures.append(f"trial {trial} (seed {config.seed}): {failure}")
            continue
        steps, plain_s, _ = calls[False]
        out.steps.append(steps)
        out.trial_s.append(plain_s)
        if trace:
            out.traced_trial_s.append(calls[True][1])
            summary = tracer.summary()
            out.timing.add(summary)
            if trial < workload.min_trials:
                out.counts.add(summary)
        else:
            out.slowdown.append(slowdown)
    return out


def _first_failure(workload, config, calls: dict) -> str | None:
    for traced, call in calls.items():
        if isinstance(call, str):
            return call
        failure = workload.check(config, call[2])
        if failure is not None:
            return ("traced: " if traced else "") + failure
    if len(calls) == 2:
        if workload.fingerprint(calls[True][2]) != workload.fingerprint(calls[False][2]):
            return "traced output differs from untraced output"
    return None
