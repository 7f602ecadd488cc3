import dataclasses

import numpy as np
import pytest

from grassmann_stream import harness, theory


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


def test_diagnostics_levels():
    base = dict(n=40, d=4, op_kind="full", zeta_star=0.99, max_iters=200, seed=5)
    none = harness.run_trial(harness.TrialConfig(**base, diagnostics_level="none"))
    assert none.records == {}
    full = harness.run_trial(harness.TrialConfig(**base, diagnostics_level="full"))
    assert set(full.records) == set(harness.SERIES_COLUMNS)
    # Full-data delta is zero to rounding on every updated step.
    updated = full.records["status"] == 0
    assert np.all(np.abs(full.records["delta"][updated]) < 1e-10)


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
    # Full diagnostics query each lazy Gaussian operator for v_par and a
    # residual before the step does; the step must see the same matrix as
    # without them.
    base = dict(base, op_kind="gaussian")
    runs = [
        harness.run_trial(harness.TrialConfig(**base, diagnostics_level=level))
        for level in ("none", "basic", "full")
    ]
    for series in runs[1:]:
        assert series.iterations == runs[0].iterations
        assert series.final_zeta == pytest.approx(runs[0].final_zeta, rel=1e-9, abs=0.0)


def test_perturbed_init_starts_near_truth():
    config = harness.TrialConfig(
        n=200, d=5, op_kind="entrywise", m=60, init="perturbed",
        zeta_star=1 - 1e-6, max_iters=1, seed=6,
    )
    series = harness.run_trial(config)
    assert series.records["zeta"][0] > 0.99


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
    cells = harness.sweep(
        base, [(40, 4, None)], trials_per_cell=5, bound_fn=lambda n, d, m: 1000.0
    )
    assert len(cells) == 1
    cell = cells[0]
    assert cell.fail_frac == 0.0
    assert 0.0 < cell.mean_ratio < 1.0


def test_sweep_impossible_cell_fails():
    base = harness.TrialConfig(
        n=40, d=4, op_kind="entrywise", m=4, zeta_star=0.999, max_iters=50, seed=11
    )
    cells = harness.sweep(
        base, [(40, 4, 4)], trials_per_cell=3, bound_fn=lambda n, d, m: 100.0
    )
    assert cells[0].fail_frac == 1.0
    assert np.isnan(cells[0].mean_ratio)


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
