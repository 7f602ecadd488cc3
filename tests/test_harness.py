import dataclasses
import inspect
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from grassmann_stream import datagen, grouse, harness, metrics, numerics, sampling, theory


def test_config_validation():
    with pytest.raises(ValueError):
        harness.TrialConfig(n=50, d=5, zeta_star=1.0)
    with pytest.raises(ValueError):
        harness.TrialConfig(n=50, d=5, max_iters=0)
    with pytest.raises(ValueError):
        harness.TrialConfig(n=50, d=5, op_kind="entrywise")  # missing m
    with pytest.raises(ValueError):
        harness.TrialConfig(n=50, d=5, op_kind="laplace")


def test_run_trial_full_data_converges_fast():
    config = harness.TrialConfig(
        n=50, d=5, op_kind="full", zeta_star=1.0 - 1e-4, max_iters=10_000, seed=0
    )
    series = harness.run_trial(config)
    assert series.converged
    assert series.iterations < 500
    assert series.final_zeta >= config.zeta_star


def test_run_trial_tiny_edge_case():
    # d = n - 1 leaves a single complement direction.
    config = harness.TrialConfig(
        n=3, d=2, op_kind="full", zeta_star=1.0 - 1e-4, max_iters=10_000, seed=1
    )
    series = harness.run_trial(config)
    assert series.converged


def test_full_data_zeta_nondecreasing():
    config = harness.TrialConfig(
        n=60, d=6, op_kind="full", zeta_star=1.0 - 1e-6, max_iters=2000, seed=2
    )
    series = harness.run_trial(config)
    zeta = series.records["zeta"]
    assert np.all(np.diff(zeta) >= -1e-12)


def test_run_trial_reproducible():
    config = harness.TrialConfig(
        n=40, d=4, op_kind="entrywise", m=15, zeta_star=0.999, max_iters=300, seed=3
    )
    a, b = harness.run_trial(config), harness.run_trial(config)
    assert np.array_equal(a.records["zeta"], b.records["zeta"])
    assert a.converged == b.converged and a.iterations == b.iterations


def test_run_trial_skipped_steps_leave_zeta_unchanged():
    # m barely above d: rank-deficient skips occur; zeta must not move on them.
    config = harness.TrialConfig(
        n=100, d=8, op_kind="entrywise", m=9, zeta_star=0.9999,
        max_iters=300, seed=4,
    )
    series = harness.run_trial(config)
    zeta = series.records["zeta"]
    status = series.records["status"]
    skipped = np.flatnonzero(status != 0)
    for t in skipped:
        prev = zeta[t - 1] if t > 0 else zeta[0]
        assert zeta[t] == pytest.approx(prev, rel=1e-12)


def test_run_trial_counts_steps_at_every_level():
    # The rank-deficient shape above: the counts match the status column,
    # and "none", which records no series, still counts.
    base = dict(
        n=100, d=8, op_kind="entrywise", m=9, zeta_star=0.9999, max_iters=300, seed=4
    )
    basic = harness.run_trial(harness.TrialConfig(**base, diagnostics_level="basic"))
    status = basic.records["status"]
    expected = {
        name: int(np.sum(status == code)) for code, name in harness.STATUS_NAMES.items()
    }
    assert basic.step_counts == expected
    assert expected["skipped_rank_deficient"] > 0 and expected["updated"] > 0
    none = harness.run_trial(harness.TrialConfig(**base, diagnostics_level="none"))
    assert none.records == {}
    assert none.step_counts == expected
    assert none.reorthonormalizations == basic.reorthonormalizations > 0


def test_undiagnosed_entrywise_trial_never_forms_v(monkeypatch):
    # An entry-wise stream measures x from the sampled rows of Ubar; the
    # n-long v = Ubar s is formed only where a diagnosis reads it.
    formed = []
    real_v = datagen.StreamSample.v

    def counting_v(sample):
        formed.append(None)
        return real_v.func(sample)

    monkeypatch.setattr(datagen.StreamSample, "v", property(counting_v))
    base = dict(n=300, d=8, op_kind="entrywise", m=40, max_iters=150, seed=12)
    for level in ("none", "basic"):
        series = harness.run_trial(harness.TrialConfig(**base, diagnostics_level=level))
        assert series.reorthonormalizations > 0
    assert formed == []
    harness.run_trial(harness.TrialConfig(**base, diagnostics_level="full"))
    assert len(formed) == 150


def test_run_trial_reorthonormalizes_only_on_the_cadence():
    # Large early steps from a random start would make the pending factor
    # K of the entry-wise basis ill conditioned; K is folded into V before
    # cond_bound reaches COND_LIMIT, so only the cadence reorthonormalizes.
    series = harness.run_trial(
        harness.TrialConfig(
            n=300, d=8, op_kind="entrywise", m=40, zeta_star=1 - 1e-12,
            max_iters=150, seed=12, diagnostics_level="none",
        )
    )
    assert series.iterations is None
    assert series.reorthonormalizations == 150 // grouse.REORTH_EVERY


# (converged, iterations, non-UPDATED steps, final_zeta) of seeds 0-2, as
# the SVD rank test and SVD similarity produced them. A cheaper kernel must
# make the same decisions; final_zeta may move by rounding only.
FROZEN_OUTPUTS = {
    "entrywise_n2000": (
        dict(n=2000, d=20, op_kind="entrywise", m=100, zeta_star=1 - 1e-3),
        [
            (True, 6206, 0, 0.999002163827323),
            (True, 6082, 0, 0.9990007794196527),
            (True, 7065, 0, 0.9990010406970926),
        ],
    ),
    "entrywise_n500": (
        dict(n=500, d=10, op_kind="entrywise", m=60, zeta_star=1 - 1e-6),
        [
            (True, 1982, 0, 0.9999990024824565),
            (True, 1958, 0, 0.9999990045454084),
            (True, 1933, 0, 0.9999990027310222),
        ],
    ),
    # m = d: the true residual is zero, so every skip-or-update decision
    # sits on the DEGENERACY_RTOL threshold of the residual the solve leaves.
    "entrywise_square": (
        dict(n=300, d=20, op_kind="entrywise", m=20, zeta_star=1 - 1e-6, max_iters=300),
        [
            (False, None, 300, 1.7184093076400046e-33),
            (False, None, 300, 2.4640940904851587e-33),
            (False, None, 299, 6.449880562441782e-33),
        ],
    ),
    "full_n300": (
        dict(n=300, d=5, op_kind="full", zeta_star=1 - 1e-8),
        [
            (True, 98, 0, 0.9999999963464146),
            (True, 89, 0, 0.9999999906008141),
            (True, 100, 0, 0.9999999951007983),
        ],
    ),
    "gaussian_n500": (
        dict(n=500, d=5, op_kind="gaussian", m=60, zeta_star=1 - 1e-6),
        [
            (True, 834, 0, 0.9999990107689913),
            (True, 807, 0, 0.9999990155143887),
            (True, 801, 0, 0.9999990033163582),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_OUTPUTS))
def test_seeded_outputs_are_frozen(name):
    base, expected = FROZEN_OUTPUTS[name]
    for seed, (converged, iterations, skipped, final_zeta) in enumerate(expected):
        series = harness.run_trial(
            harness.TrialConfig(**base, seed=seed, diagnostics_level="basic")
        )
        assert series.converged == converged
        assert series.iterations == iterations
        assert int(np.sum(series.records["status"] != 0)) == skipped
        assert series.final_zeta == pytest.approx(final_zeta, rel=1e-12, abs=0.0)


# bin -> (count, mean_ratio[, theory]) of the populated bins,
# recorded from the harness when each function had its own loop.
FROZEN_HISTOGRAMS = {
    "entrywise": (
        dict(n=60, d=4, op_kind="entrywise", m=20, seed=21),
        dict(num_steps=120, num_trials=3),
        {
            0: (97, 74.80012611954562), 1: (24, 1.1001627872198623),
            2: (10, 1.100591988262029), 3: (11, 1.094271932433582),
            4: (6, 1.1181171527429723), 5: (7, 1.077903946245267),
            6: (6, 1.092071989382689), 7: (5, 1.058888162043434),
            8: (5, 1.0745817724784719), 9: (5, 1.065912206874169),
            10: (7, 1.0460711928432151), 11: (7, 1.0303673485345075),
            12: (12, 1.0193577627774626), 13: (9, 1.0241567879117663),
            14: (15, 1.0145185750250836), 15: (17, 1.0109712984248744),
            16: (17, 1.0105504586208018), 17: (20, 1.007498830956221),
            18: (37, 1.004357968986671), 19: (43, 1.0015938269364388),
        },
    ),
    "gaussian_step_theory_warmup": (
        dict(n=60, d=4, op_kind="gaussian", m=20, seed=22),
        dict(
            num_steps=40, num_trials=3, warmup_targets=[0.3, 0.95],
            theory_step_fn=lambda zeta, M: theory.expected_rate_cs(
                zeta, 4, 20, 60, delta=0.25,
                phi_d=min(float(np.arccos(metrics.overlap_cosines(M)[-1])), 1.5),
            ).rate,
        ),
        {
            11: (4, 1.0233384807628882, 0.9846199599237347),
            12: (8, 1.0090473210002382, 0.9888571211929829),
            13: (3, 1.0223452142658012, 0.9925863517577218),
            14: (4, 1.015840626704042, 0.9942385313764102),
            15: (4, 1.0149971043797494, 0.9957102502087775),
            16: (6, 1.0187146421320565, 0.9969179195440604),
            17: (13, 1.006553165296107, 0.9983095182373849),
            18: (20, 1.0039939119048682, 0.9990587756108937),
            19: (58, 1.0008209329617892, 0.9998519180686007),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_HISTOGRAMS))
def test_monte_carlo_ratio_is_frozen(name):
    base, kwargs, expected = FROZEN_HISTOGRAMS[name]
    hist = harness.monte_carlo_ratio(harness.TrialConfig(**base), **kwargs)
    assert {int(b) for b in np.flatnonzero(hist.counts)} == set(expected)
    for b, (count, mean_ratio, *floor) in expected.items():
        assert hist.counts[b] == count
        assert hist.mean_ratio[b] == pytest.approx(mean_ratio, rel=1e-12, abs=0.0)
        for value in floor:
            assert hist.theory[b] == pytest.approx(value, rel=1e-12, abs=0.0)


# Identity -> (samples, passed) over 100 steps at n=60, d=4, m=20, seed 23,
# recorded from the verifier when it had its own loop.
_ALL_SAMPLED = dict.fromkeys(harness.INVARIANT_TOLERANCES, (100, True))
FROZEN_VERIFY = {
    "full": {
        **_ALL_SAMPLED,
        "schur_determinant_identity": (0, True),
        "undersampled_lower_bound": (0, True),
        # Checked only while ||v_perp|| is above its rounding allowance:
        # the stream converges, and the last 30 steps fall below it.
        "truth_overlap_of_residual": (70, True),
    },
    "gaussian": {**_ALL_SAMPLED, "full_data_exact_ratio": (0, True)},
    "entrywise": {**_ALL_SAMPLED, "full_data_exact_ratio": (0, True)},
}


@pytest.mark.parametrize("kind", sorted(FROZEN_VERIFY))
def test_verify_step_invariants_is_frozen(kind):
    config = harness.TrialConfig(
        n=60, d=4, op_kind=kind, m=None if kind == "full" else 20, seed=23,
        diagnostics_level="full",
    )
    report = harness.verify_step_invariants(config, 100)
    observed = {
        name: (result["samples"], result["passed"])
        for name, result in report["identities"].items()
    }
    assert observed == FROZEN_VERIFY[kind]


@pytest.mark.parametrize(
    "base",
    [
        dict(n=60, d=4, op_kind="full", seed=0),
        dict(n=2000, d=5, op_kind="full", seed=2),
        dict(n=200, d=3, op_kind="entrywise", m=100, init="perturbed", seed=0),
        # d = 1 makes the bound tight; U drifts ~30 eps off orthonormal.
        dict(n=60, d=1, op_kind="entrywise", m=30, seed=8),
    ],
    ids=["full-60", "full-2000", "entrywise", "entrywise-d1"],
)
def test_verify_passes_on_a_converged_stream(base):
    # Past convergence ||v_perp|| is rounding-sized against ||v||; its
    # rounding error must not read as an excess truth overlap.
    report = harness.verify_step_invariants(harness.TrialConfig(**base), 300)
    assert report["passed"], report["identities"]


def test_verify_flags_a_real_truth_overlap_excess(monkeypatch):
    # With d = 1 the overlap bound is an equality. Reporting sin(phi_d)
    # 1e-8 too small, 10x the tolerance, must be flagged on a stream whose
    # ||v_perp|| stays far above the rounding allowance.
    real = metrics.overlap_cosines

    def shifted(M):
        cosines = real(M)
        sin_d = np.sqrt(1.0 - cosines[-1] ** 2)
        cosines[-1] = np.sqrt(1.0 - max(sin_d - 1e-8, 0.0) ** 2)
        return cosines

    monkeypatch.setattr(metrics, "overlap_cosines", shifted)
    config = harness.TrialConfig(n=60, d=1, op_kind="gaussian", m=20, seed=23)
    result = harness.verify_step_invariants(config, 50)["identities"][
        "truth_overlap_of_residual"
    ]
    assert result["samples"] == 50
    assert not result["passed"]
    assert result["max_violation"] == pytest.approx(1e-8, rel=1e-3)


def test_harness_steps_through_grouse_step(monkeypatch):
    # The benchmark's tracer and the fault-injection test replace
    # grouse.step on its module: every harness step must go through it.
    calls = []
    real_step = grouse.step

    def counting_step(*args, **kwargs):
        calls.append(None)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(grouse, "step", counting_step)
    series = harness.run_trial(
        harness.TrialConfig(n=100, d=8, op_kind="entrywise", m=9, max_iters=200, seed=4)
    )
    assert len(calls) == sum(series.step_counts.values()) > 0
    calls.clear()
    config = harness.TrialConfig(
        n=60, d=4, op_kind="gaussian", m=20, seed=1, diagnostics_level="full"
    )
    harness.verify_step_invariants(config, num_steps=50)
    assert len(calls) == 50
    calls.clear()
    harness.monte_carlo_ratio(config, num_steps=30, num_trials=2, warmup_targets=[0.5])
    assert len(calls) >= 2 * 30
    # The tracer's per-layer numbers also need each layer called through
    # its module: one entry-wise step makes one call to each.
    layer_calls = _count_calls(
        monkeypatch,
        (sampling, "restrict_basis"), (sampling, "adjoint"), (numerics, "least_squares"),
    )
    series = harness.run_trial(
        harness.TrialConfig(n=100, d=8, op_kind="entrywise", m=40, max_iters=1, seed=4)
    )
    assert series.step_counts["updated"] == 1
    assert layer_calls == {"restrict_basis": 1, "adjoint": 1, "least_squares": 1}


def _count_calls(monkeypatch, *targets) -> Counter:
    """Calls made through each (module, name) attribute, counted by name."""
    calls = Counter()
    for module, name in targets:
        def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def _count_svd_calls(monkeypatch) -> list:
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(None)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def test_entrywise_step_takes_no_svd(monkeypatch):
    # The rank test and log zeta of a step need no SVD; at most a
    # reorthonormalization whose certificate fails falls back to one.
    calls = _count_svd_calls(monkeypatch)
    config = harness.TrialConfig(
        n=2000, d=20, op_kind="entrywise", m=100, zeta_star=1 - 1e-12,
        max_iters=300, seed=0, diagnostics_level="none",
    )
    series = harness.run_trial(config)
    assert sum(series.step_counts.values()) == 300
    assert len(calls) <= series.reorthonormalizations


@pytest.mark.parametrize("kind", ["full", "gaussian", "entrywise"])
def test_verify_takes_one_svd_per_step(monkeypatch, kind):
    # The cosines of M are the one SVD a verified step needs; delta_term
    # finds a singular M from its solve. Rank certificates that fail fall
    # back to an SVD of R, counted apart.
    calls = _count_svd_calls(monkeypatch)
    fallbacks = []
    check_full_rank = numerics._check_full_rank

    def counting_check(*args, **kwargs):
        before = len(calls)
        try:
            return check_full_rank(*args, **kwargs)
        finally:
            fallbacks.append(len(calls) - before)

    monkeypatch.setattr(numerics, "_check_full_rank", counting_check)
    config = harness.TrialConfig(
        n=60, d=4, op_kind=kind, m=None if kind == "full" else 20, seed=23
    )
    harness.verify_step_invariants(config, 100)
    assert len(calls) - sum(fallbacks) <= 100


def test_monte_carlo_ratio_takes_no_svd_per_step(monkeypatch):
    # Angles (an SVD) are needed only for a theory_step_fn's phi_d.
    calls = _count_svd_calls(monkeypatch)
    config = harness.TrialConfig(
        n=500, d=10, op_kind="entrywise", m=60, zeta_star=1 - 1e-12, seed=1
    )
    hist = harness.monte_carlo_ratio(config, num_steps=100, num_trials=2)
    assert hist.counts.sum() > 0
    # One SVD per step would make 200 calls; allow one fallback per trial.
    assert len(calls) <= 2


@pytest.mark.parametrize("op_kind, m", [("gaussian", 3), ("gaussian", 20), ("entrywise", 20)])
def test_monte_carlo_ratio_takes_the_floor_of_updated_steps_only(op_kind, m):
    # m = 3 < d = 4 leaves every Gaussian step rank deficient: no step
    # records, so no floor may be evaluated.
    config = harness.TrialConfig(n=60, d=4, op_kind=op_kind, m=m, seed=21)
    calls = []
    mode_rate = harness._mode_rate(config)

    def counting_rate(zeta, M):
        calls.append(None)
        return mode_rate(zeta, M)

    hist = harness.monte_carlo_ratio(config, 100, 2, theory_step_fn=counting_rate)
    assert len(calls) == hist.counts.sum()
    assert (len(calls) > 0) == (m > config.d)


def test_diagnostics_levels():
    base = dict(n=40, d=4, op_kind="full", zeta_star=0.99, max_iters=200, seed=5)
    none = harness.run_trial(harness.TrialConfig(**base, diagnostics_level="none"))
    assert none.records == {}
    full = harness.run_trial(harness.TrialConfig(**base, diagnostics_level="full"))
    assert set(full.records) == set(harness.SERIES_COLUMNS)
    # Full-data delta is zero to rounding on every updated step.
    updated = full.records["status"] == 0
    assert np.all(np.abs(full.records["delta"][updated]) < 1e-10)


# delta and det_lower_bound of the first six steps at n=60, d=4, m=20,
# seed 23 from a random start, recorded when theory.delta_term tested M
# for singularity by its SVD.
FROZEN_DELTA = {
    "gaussian": (
        [6.488175981339197, -2.640873728218652, -0.07545600772291533,
         -0.5977906259574522, 0.5294820379652814, -0.7156532439170286],
        [28.230814709563056, -0.2660550581140497, 1.2623992256881758,
         0.14531205901723543, 2.645805129113403, -1.8086159271015554],
    ),
    "entrywise": (
        [-2.049624781021807, -5.679043501432117, -0.09369918141809808,
         -5.510697899534577, 1.93948498447726, 1.3641136728960088],
        [-8.410134494701488, -11.05141165277124, 1.164980919408209,
         -3.893298522903374, 6.714963985301102, 3.582942396236283],
    ),
}


@pytest.mark.parametrize("kind", sorted(FROZEN_DELTA))
def test_delta_columns_are_frozen(kind):
    series = harness.run_trial(
        harness.TrialConfig(
            n=60, d=4, op_kind=kind, m=20, zeta_star=1 - 1e-12, max_iters=6,
            seed=23, diagnostics_level="full",
        )
    )
    delta, bound = FROZEN_DELTA[kind]
    np.testing.assert_allclose(series.records["delta"], delta, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        series.records["det_lower_bound"], bound, rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize(
    "base",
    [
        dict(n=2000, d=10, m=100, max_iters=300, seed=7),
        # Runs on to 1 - zeta ~ 1e-10, where v lies almost in span(U).
        dict(n=300, d=5, m=60, max_iters=5000, zeta_star=1 - 1e-10, seed=1),
    ],
    ids=["far", "converging"],
)
def test_diagnostics_do_not_steer_a_gaussian_stream(base):
    # Full diagnostics query each lazy Gaussian operator for A v_par after
    # the step; the step must see the same matrix, bit for bit, as without
    # them.
    base = dict(base, op_kind="gaussian")
    none, basic, full = (
        harness.run_trial(harness.TrialConfig(**base, diagnostics_level=level))
        for level in ("none", "basic", "full")
    )
    assert np.array_equal(full.records["zeta"], basic.records["zeta"])
    for series in (basic, full):
        assert series.iterations == none.iterations
        assert series.final_zeta == none.final_zeta


def test_perturbed_init_starts_near_truth():
    config = harness.TrialConfig(
        n=200, d=5, op_kind="entrywise", m=60, init="perturbed",
        zeta_star=1 - 1e-6, max_iters=1, seed=6,
    )
    series = harness.run_trial(config)
    assert series.records["zeta"][0] > 0.99


@pytest.mark.parametrize(
    "op_kind, m, iterations", [("full", None, 63), ("entrywise", 60, 593)]
)
def test_sparse_truth_runs_through_a_trial(op_kind, m, iterations):
    config = harness.TrialConfig(
        n=200, d=4, op_kind=op_kind, m=m, truth_kind="sparse",
        zeta_star=1 - 1e-6, max_iters=5000, seed=0,
    )
    series = harness.run_trial(config)
    assert series.converged and series.iterations == iterations
    assert series.final_zeta >= config.zeta_star
    assert series.metadata["truth_kind"] == "sparse"
    # A sparse truth is far more coherent than the dense one at the same
    # seed (mu0 20.2 against 3.87).
    dense = harness.run_trial(dataclasses.replace(config, truth_kind="dense", max_iters=1))
    assert dense.metadata["truth_kind"] == "dense"
    assert series.metadata["mu0"] > 2.0 * dense.metadata["mu0"]


def test_monte_carlo_ratio_full_data():
    config = harness.TrialConfig(
        n=60, d=6, op_kind="full", zeta_star=1 - 1e-12, max_iters=10_000, seed=7
    )
    hist = harness.monte_carlo_ratio(config, num_steps=300, num_trials=10)
    assert hist.counts.sum() > 0
    populated = hist.counts >= 30
    assert populated.any()
    # Empirical mean ratio must clear the expected-rate floor statistically,
    # evaluated at the mean zeta of each populated bin.
    for b in np.flatnonzero(populated):
        floor = theory.expected_rate_full(hist.mean_zeta[b], config.d)
        assert hist.mean_ratio[b] >= floor - 3.0 * hist.std_err[b]


def test_monte_carlo_counts_consistency():
    config = harness.TrialConfig(
        n=40, d=4, op_kind="entrywise", m=20, zeta_star=1 - 1e-12,
        max_iters=10_000, seed=8,
    )
    hist = harness.monte_carlo_ratio(config, num_steps=100, num_trials=5)
    assert hist.bin_edges.shape == (21,)
    assert hist.counts.sum() <= 500
    # Bins with samples carry finite statistics; empty bins are NaN.
    for b in range(20):
        if hist.counts[b] > 0:
            assert np.isfinite(hist.mean_ratio[b])
            assert 0.0 <= hist.mean_zeta[b] <= 1.0
        else:
            assert np.isnan(hist.mean_ratio[b])
    # The floor is the mean over a bin's steps: finite exactly where a bin
    # has steps.
    assert np.array_equal(np.isfinite(hist.theory), hist.counts > 0)


def test_bin_samples_match_direct_masks():
    # Non-uniform edges. zeta on an edge belongs to the bin above it, and
    # zeta = 1 to the last bin. Bin 0 is empty and bin 3 holds one sample.
    edges = np.array([0.0, 0.5, 0.9, 0.99, 0.999, 1.0])
    rng = np.random.default_rng(0)
    zeta = np.concatenate((rng.uniform(0.5, 0.99, 60), [0.5, 0.9, 0.9, 0.99, 0.999, 1.0, 1.0]))
    ratio = 1.0 + rng.random(zeta.size)
    theory_step = rng.random(zeta.size)
    stats = harness._bin_samples(edges, zeta, ratio, theory_step)
    counts, mean_ratio, std_err, mean_zeta, theory_mean = (
        stats[k] for k in ("counts", "mean_ratio", "std_err", "mean_zeta", "theory")
    )
    for b in range(len(edges) - 1):
        upper = zeta <= edges[b + 1] if b == len(edges) - 2 else zeta < edges[b + 1]
        mask = (edges[b] <= zeta) & upper
        assert counts[b] == mask.sum()
        if not mask.any():
            for stat in (mean_ratio, std_err, mean_zeta, theory_mean):
                assert np.isnan(stat[b])
            continue
        assert mean_ratio[b] == pytest.approx(ratio[mask].mean(), rel=1e-12)
        assert mean_zeta[b] == pytest.approx(zeta[mask].mean(), rel=1e-12)
        assert theory_mean[b] == pytest.approx(theory_step[mask].mean(), rel=1e-12)
        if mask.sum() == 1:
            assert np.isnan(std_err[b])
        else:
            expected = ratio[mask].std(ddof=1) / np.sqrt(mask.sum())
            assert std_err[b] == pytest.approx(expected, rel=1e-12)
    assert counts.tolist() == [0, counts[1], counts[2], 1, 3]
    assert counts.sum() == zeta.size


@pytest.mark.parametrize("op_kind", ["full", "entrywise"])
def test_monte_carlo_theory_is_the_rate_at_the_mean_zeta(op_kind):
    # Both rates are affine in zeta, so the mean of the steps' floors is
    # the rate at the bin's mean zeta, to rounding.
    config = harness.TrialConfig(
        n=60, d=4, op_kind=op_kind, m=None if op_kind == "full" else 20, seed=8
    )
    hist = harness.monte_carlo_ratio(config, num_steps=120, num_trials=3)
    populated = np.flatnonzero(hist.counts)
    assert populated.size >= 5
    for b in populated:
        if op_kind == "full":
            rate = theory.expected_rate_full(hist.mean_zeta[b], config.d)
        else:
            rate = theory.expected_rate_missing(
                hist.mean_zeta[b], config.d, config.m, config.n
            ).rate
        assert hist.theory[b] == pytest.approx(rate, rel=1e-12, abs=0.0)


def test_monte_carlo_bins_follow_the_start():
    # A random start spreads over [0, 1]; a perturbed one starts near
    # zeta = 1 and is binned by 1 - zeta in quarter decades.
    base = dict(n=60, d=4, op_kind="entrywise", m=20, seed=8)
    random = harness.monte_carlo_ratio(harness.TrialConfig(**base), 20, 2)
    assert np.array_equal(random.bin_edges, np.linspace(0.0, 1.0, 21))
    perturbed = harness.monte_carlo_ratio(
        harness.TrialConfig(**base, init="perturbed"), 20, 2
    )
    kappa = 10.0 ** (-np.arange(1, 25) / 4.0)
    assert np.array_equal(perturbed.bin_edges, np.concatenate(([0.0], 1.0 - kappa, [1.0])))
    assert perturbed.counts.sum() > 0 and perturbed.counts[0] == 0


def test_readme_states_the_histogram_bins():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    text = " ".join(readme.split())
    uniform = re.findall(r"(\d+) uniform bins of \[0, 1\] from a random start", text)
    assert uniform
    for k in uniform:
        assert np.array_equal(harness._bin_edges("random"), np.linspace(0.0, 1.0, int(k) + 1))
    decades = re.findall(
        r"from a perturbed start, 1 - zeta at 10\^\(-k/(\d+)\) for k = 1\.\.(\d+)", text
    )
    assert decades
    for per_decade, last in decades:
        kappa = 10.0 ** (-np.arange(1, int(last) + 1) / int(per_decade))
        expected = np.concatenate(([0.0], 1.0 - kappa, [1.0]))
        assert np.array_equal(harness._bin_edges("perturbed"), expected)


def test_missing_with_m_equals_n_close_to_full():
    # Entry-wise sampling at m = n (with replacement) is noisier than full
    # sampling but its improvement profile lands in the same range.
    base = dict(n=50, d=5, zeta_star=1 - 1e-12, max_iters=10_000, seed=9)
    full = harness.monte_carlo_ratio(
        harness.TrialConfig(op_kind="full", **base), num_steps=150, num_trials=8
    )
    miss = harness.monte_carlo_ratio(
        harness.TrialConfig(op_kind="entrywise", m=50, **base),
        num_steps=150,
        num_trials=8,
    )
    both = (full.counts >= 50) & (miss.counts >= 50)
    assert both.any()
    for b in np.flatnonzero(both):
        spread = 6.0 * (full.std_err[b] + miss.std_err[b])
        assert abs(full.mean_ratio[b] - miss.mean_ratio[b]) <= spread + 0.05


def test_sweep_single_cell():
    base = harness.TrialConfig(
        n=40, d=4, op_kind="full", zeta_star=0.999, max_iters=5000, seed=10
    )
    cells = harness.sweep(base, [(40, 4, None)], trials_per_cell=5)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.fail_frac == 0.0
    # Each trial's iterations over the heuristic count at m = n.
    iterations = [
        harness.run_trial(
            dataclasses.replace(base, seed=base.seed + trial, diagnostics_level="none")
        ).iterations
        for trial in range(5)
    ]
    heuristic = theory.heuristic_iterations(40, 40, 4, base.zeta_star)
    assert cell.mean_ratio == pytest.approx(np.mean(iterations) / heuristic, rel=1e-12)


def test_sweep_impossible_cell_fails():
    base = harness.TrialConfig(
        n=40, d=4, op_kind="entrywise", m=4, zeta_star=0.999, max_iters=50, seed=11
    )
    cells = harness.sweep(base, [(40, 4, 4)], trials_per_cell=3)
    cell = cells[0]
    assert cell.fail_frac == 1.0
    assert np.isnan(cell.mean_ratio)
    # Every step of every trial is counted, by status: this cell fails on
    # skips, not on slow progress.
    assert set(cell.step_counts) == {status.value for status in grouse.StepStatus}
    assert sum(cell.step_counts.values()) == 3 * 50
    assert cell.step_counts["updated"] == 0
    assert cell.step_counts["skipped_rank_deficient"] > 0
    assert cell.step_counts["skipped_zero_residual"] > 0
    assert cell.wall_time_s > 0.0


def test_sweep_seeds_stay_distinct_past_1000_trials_per_cell(monkeypatch):
    # With a stride of 1000, cell 0's trial 1000 would take cell 1's first seed.
    seeds = []

    def fake_run_trial(config):
        seeds.append(config.seed)
        return harness.TrialSeries(config, {}, False, None, 0.0, 0.0)

    monkeypatch.setattr(harness, "run_trial", fake_run_trial)
    base = harness.TrialConfig(n=40, d=4, seed=5)
    harness.sweep(base, [(40, 4, None), (40, 4, None)], trials_per_cell=1001)
    assert len(seeds) == len(set(seeds)) == 2002
    # Up to 1000 trials per cell, cells stay 1000 seeds apart.
    seeds.clear()
    harness.sweep(base, [(40, 4, None), (40, 4, None)], trials_per_cell=3)
    assert seeds == [5, 6, 7, 1005, 1006, 1007]


@pytest.mark.parametrize("kind", ["full", "gaussian", "entrywise"])
def test_verify_passes_across_frequent_reorthonormalizations(monkeypatch, kind):
    # A reorthonormalization re-forms M and may flip the sign of det M; the
    # determinant identities must read det M across the rank-one update.
    monkeypatch.setattr(grouse, "REORTH_EVERY", 7)
    config = harness.TrialConfig(
        n=60, d=4, op_kind=kind, m=None if kind == "full" else 20, seed=23
    )
    report = harness.verify_step_invariants(config, 100)
    assert report["passed"], report["identities"]
    name = "full_data_exact_ratio" if kind == "full" else "schur_determinant_identity"
    assert report["identities"][name]["samples"] >= 70


def test_verify_sees_a_flipped_sign_of_the_full_data_ratio(monkeypatch):
    # Reading det M after a reorthonormalization, which may flip its sign,
    # leaves the squared ratio intact; the signed ratio must catch it.
    real_step = harness._Trial.step

    def late_det(self, sample, diagnose=False):
        report = real_step(self, sample, diagnose)
        self.update_det = (self.sign, self.logdet)
        return report

    monkeypatch.setattr(harness._Trial, "step", late_det)
    monkeypatch.setattr(grouse, "REORTH_EVERY", 7)
    config = harness.TrialConfig(n=60, d=4, seed=23)
    result = harness.verify_step_invariants(config, 100)["identities"][
        "full_data_exact_ratio"
    ]
    assert not result["passed"]
    assert result["max_violation"] == pytest.approx(2.0, abs=1e-6)


ALL_KINDS = ["full", "gaussian", "entrywise"]


def _drop_span_term(report, M, Ubar_r):
    return np.sin(report.theta) / report.norm_r * Ubar_r


def _scale_change(report, M, Ubar_r, _real=grouse.StepReport.overlap_change):
    return (1.0 + 1e-6) * _real(report, M, Ubar_r)


@pytest.mark.parametrize(
    "mutant", [_drop_span_term, _scale_change], ids=["drop-span-term", "scale-1e-6"]
)
def test_verify_catches_a_wrong_overlap_change(monkeypatch, mutant):
    # The tracked M feeds log zeta, the cosines and Delta: a wrong rank-one
    # change of it must fail verify from a random start, in every mode.
    monkeypatch.setattr(grouse.StepReport, "overlap_change", mutant)
    for kind in ALL_KINDS:
        config = harness.TrialConfig(
            n=60, d=4, op_kind=kind, m=None if kind == "full" else 20, seed=23
        )
        assert not harness.verify_step_invariants(config, 250)["passed"], kind


def test_verified_step_forms_each_product_once(monkeypatch):
    # One verified step in each mode: A U and the lifted residual once, in
    # the step, A v once in the stream (an entry-wise stream takes x from
    # the sampled rows of Ubar instead) and A v_par once, one projection,
    # one coefficient split and one Delta.
    calls = _count_calls(
        monkeypatch,
        (sampling, "restrict_basis"), (sampling, "adjoint"), (sampling, "apply"),
        (numerics, "project"), (theory, "coefficient_split"), (theory, "delta_term"),
    )
    for kind in ALL_KINDS:
        calls.clear()
        config = harness.TrialConfig(
            n=60, d=4, op_kind=kind, m=None if kind == "full" else 20, seed=23
        )
        report = harness.verify_step_invariants(config, 1)
        name = "full_data_exact_ratio" if kind == "full" else "schur_determinant_identity"
        assert report["identities"][name]["samples"] == 1, kind
        assert calls == {
            "restrict_basis": 1, "adjoint": 1, "apply": 1 if kind == "entrywise" else 2,
            "project": 1, "coefficient_split": 1, "delta_term": 1,
        }, kind


def test_verified_step_factors_once_and_never_forms_U(monkeypatch):
    # A verified entry-wise stream long enough for a factor K to be pending:
    # each step's QR of [B x] is its only factorization (no step here
    # reorthonormalizes), and the diagnosis takes its products with U from V
    # and K, so no step reads GrouseState.U. The benchmark's tracer wraps
    # these layers by name on their modules.
    layers = ((numerics, "least_squares"), (numerics, "project"),
              (theory, "coefficient_split"), (theory, "delta_term"), (grouse, "step"))
    assert all(inspect.isfunction(getattr(module, name)) for module, name in layers)
    calls = _count_calls(monkeypatch, (numerics, "qr_in_place"), *layers)
    reads, pending, reads_per_step = [], [], []
    real_U, real_step = grouse.GrouseState.U, harness._Trial.step

    def recording_step(self, sample, diagnose=False):
        pending.append(self.state.K is not None)
        before = len(reads)
        result = real_step(self, sample, diagnose)
        reads_per_step.append(len(reads) - before)
        return result

    monkeypatch.setattr(
        grouse.GrouseState, "U", property(lambda state: reads.append(0) or real_U.fget(state))
    )
    monkeypatch.setattr(harness._Trial, "step", recording_step)
    config = harness.TrialConfig(n=60, d=4, op_kind="entrywise", m=20, seed=23)
    report = harness.verify_step_invariants(config, 5)
    assert report["identities"]["schur_determinant_identity"]["samples"] == 5
    assert any(pending)
    assert reads_per_step == [0] * 5
    assert calls == {
        "qr_in_place": 5, "least_squares": 5, "step": 5,
        "project": 5, "coefficient_split": 5, "delta_term": 5,
    }


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_worst_step_replays_the_largest_violation(monkeypatch, kind):
    # Streams are prefix-consistent: a run cut after an identity's
    # worst_step reaches the same largest violation, bit for bit.
    monkeypatch.setattr(grouse.StepReport, "overlap_change", _scale_change)
    config = harness.TrialConfig(
        n=60, d=4, op_kind=kind, m=None if kind == "full" else 20, seed=23
    )
    identities = harness.verify_step_invariants(config, 250)["identities"]
    assert not all(result["passed"] for result in identities.values())
    replays = {}
    for name, result in identities.items():
        step = result["worst_step"]
        assert (step is None) == (result["samples"] == 0), name
        if step is None:
            continue
        if step not in replays:
            replays[step] = harness.verify_step_invariants(config, step + 1)["identities"]
        assert replays[step][name]["max_violation"] == result["max_violation"], name
        assert replays[step][name]["worst_step"] == step, name


def test_verify_step_invariants_all_modes():
    for kind, m in (("full", None), ("gaussian", 25), ("entrywise", 25)):
        config = harness.TrialConfig(
            n=60, d=5, op_kind=kind, m=m, zeta_star=1 - 1e-12,
            max_iters=10_000, seed=12, diagnostics_level="full",
        )
        report = harness.verify_step_invariants(config, num_steps=120)
        assert report["passed"], (kind, report["identities"])
        if kind == "full":
            assert report["identities"]["full_data_exact_ratio"]["samples"] > 0
        else:
            assert report["identities"]["schur_determinant_identity"]["samples"] > 0
            assert report["identities"]["undersampled_lower_bound"]["samples"] > 0


def test_series_columns_constant():
    assert harness.SERIES_COLUMNS == (
        "t", "zeta", "kappa", "theta", "norm_p", "norm_r_tilde",
        "norm_r", "delta", "det_lower_bound", "status",
    )
