import math

import numpy as np
import pytest

from grassmann_stream import datagen, grouse, metrics, numerics, sampling, theory


# --- closed-form evaluators against independently computed values --------


def test_exact_full_ratio():
    assert theory.exact_full_ratio(1.0, 0.0) == 1.0
    assert theory.exact_full_ratio(2.0, 2.0) == pytest.approx(2.0)
    assert theory.exact_full_ratio(1.0, 3.0) == pytest.approx(10.0)
    with pytest.raises(theory.ZeroProjection):
        theory.exact_full_ratio(0.0, 1.0)


def test_expected_rate_full():
    assert theory.expected_rate_full(1.0, 10) == 1.0
    assert theory.expected_rate_full(0.5, 10) == pytest.approx(1.05)
    assert theory.expected_rate_full(0.0, 4) == pytest.approx(1.25)


def test_iteration_bound_full_frozen():
    # Values computed once by hand-evaluating the closed forms at
    # n=5000, d=10, rho=0.1, zeta_star=1-1e-4, C=1.
    b = theory.iteration_bound_full(5000, 10, 0.1, 1.0 - 1e-4)
    assert b.components["tau0"] == pytest.approx(0.8464618104763978, rel=1e-12)
    assert b.components["K1"] == pytest.approx(14426.167016735859, rel=1e-12)
    assert b.components["K2"] == pytest.approx(216.39556568820785, rel=1e-12)
    assert b.value == pytest.approx(14642.562582424067, rel=1e-12)


def test_iteration_bound_full_validation():
    with pytest.raises(ValueError):
        theory.iteration_bound_full(100, 5, 0.0, 0.99)
    with pytest.raises(ValueError):
        theory.iteration_bound_full(100, 5, 0.1, 1.0)


def test_heuristic_iterations_frozen():
    val = theory.heuristic_iterations(5000, 500, 10, 1.0 - 1e-4)
    assert val == pytest.approx(9438.227228613867, rel=1e-12)
    # Full sampling (m = n) removes the density factor entirely.
    assert theory.heuristic_iterations(100, 100, 5, 0.99) == pytest.approx(
        25 * math.log(100) + 5 * math.log(100), rel=1e-12
    )
    with pytest.raises(ValueError):
        theory.heuristic_iterations(100, 200, 5, 0.99)


def test_expected_rate_cs_frozen():
    # zeta=0.5, d=10, m=500, n=5000, delta=0.25, phi_d=0.1.
    rb = theory.expected_rate_cs(0.5, 10, 500, 5000, delta=0.25, phi_d=0.1)
    assert rb.params["gamma1"] == pytest.approx(0.45150007002925413, rel=1e-12)
    assert rb.params["gamma2"] == pytest.approx(35.637849572264855, rel=1e-12)
    assert rb.rate == pytest.approx(1.0006484511923892, rel=1e-12)
    # Union bound is hugely negative here: clamped and flagged vacuous.
    assert rb.probability == 0.0
    assert rb.params["vacuous"] == 1.0


def test_expected_rate_cs_improves_with_m():
    rates = [
        theory.expected_rate_cs(0.5, 10, m, 5000, delta=0.1, phi_d=0.05).rate
        for m in (500, 1000, 2000)
    ]
    assert rates[0] < rates[1] < rates[2]
    assert all(r > 1.0 for r in rates)


def test_expected_rate_cs_validation():
    with pytest.raises(ValueError):
        theory.expected_rate_cs(0.5, 10, 100, 50, delta=0.25, phi_d=0.1)
    with pytest.raises(ValueError):
        theory.expected_rate_cs(0.5, 10, 50, 100, delta=1.5, phi_d=0.1)
    with pytest.raises(ValueError):
        theory.expected_rate_cs(0.5, 10, 50, 100, delta=0.25, phi_d=np.pi / 2)
    # 1 - 2 delta sqrt(m/n) is a divisor: zero at delta = 1/2, m = n, and
    # negative beyond.
    for delta in (0.5, 0.6):
        with pytest.raises(ValueError):
            theory.expected_rate_cs(0.5, 10, 5000, 5000, delta=delta, phi_d=0.1)


def test_expected_rate_cs_vacuous_when_rate_promises_nothing():
    # A positive probability with a rate floor below 1 guarantees nothing.
    rb = theory.expected_rate_cs(0.5, 10, 10_000, 20_000, delta=0.46, phi_d=0.5)
    assert rb.probability == pytest.approx(0.23, abs=0.01)
    assert rb.rate < 1.0
    assert rb.params["vacuous"] == 1.0
    # At zeta = 1 every rate is exactly 1; only the probability decides.
    rb = theory.expected_rate_cs(1.0, 10, 10_000, 20_000, delta=0.46, phi_d=0.5)
    assert rb.rate == 1.0 and rb.params["vacuous"] == 0.0


def test_sample_complexity_cs_frozen():
    # d=10, delta=0.25, phi_d=0.5, n=5000.
    b = theory.sample_complexity_cs(10, 0.25, 0.5, 5000)
    assert b.components["beta"] == pytest.approx(71.11111111111111, rel=1e-12)
    assert b.components["covering_term"] == pytest.approx(32091.06856832555, rel=1e-10)
    assert b.components["perturbation_term"] == pytest.approx(
        6314.060982437928, rel=1e-10
    )
    assert b.value == pytest.approx(32091.06856832555, rel=1e-10)
    with pytest.raises(ValueError):
        theory.sample_complexity_cs(10, 0.5, 0.5, 5000)


def test_expected_rate_missing_frozen():
    rb = theory.expected_rate_missing(0.5, 10, 500, 5000)
    assert rb.rate == pytest.approx(1.00125, rel=1e-12)
    assert rb.probability == pytest.approx(1.0 - 3.0 / 5000**2, rel=1e-12)
    with pytest.raises(ValueError):
        theory.expected_rate_missing(0.5, 10, 600, 500)


def test_sample_complexity_missing_frozen():
    b = theory.sample_complexity_missing(10, 1.0, 1.0, 5000)
    assert b.components["basis_coverage_term"] == pytest.approx(
        4273.091980029113, rel=1e-10
    )
    assert b.components["residual_coverage_term"] == pytest.approx(
        545.1003642506392, rel=1e-10
    )
    assert b.components["perturbation_term"] == pytest.approx(
        24306.081815160433, rel=1e-10
    )
    assert b.value == pytest.approx(24306.081815160433, rel=1e-10)


def test_discrepancy_decay_missing_frozen():
    out = theory.discrepancy_decay_missing(1.0, 10, 500, 5000, 1.0)
    assert out == pytest.approx(0.9975003125, rel=1e-12)
    # kappa scales linearly.
    assert theory.discrepancy_decay_missing(0.5, 10, 500, 5000, 1.0) == pytest.approx(
        out / 2, rel=1e-12
    )
    with pytest.raises(ValueError):
        theory.discrepancy_decay_missing(1.5, 10, 500, 5000, 1.0)


def test_missing_data_bounds_reject_impossible_incoherence():
    # By definition mu0 lies in [1, n/d] and mu(v_perp) in [1, n].
    n, d = 5000, 10
    for mu0, mu_vperp in ((-3.0, 1.0), (0.0, 1.0), (0.99, 1.0), (500.5, 1.0),
                          (1.0, 0.0), (1.0, 5000.5)):
        with pytest.raises(ValueError):
            theory.sample_complexity_missing(d, mu0, mu_vperp, n)
    for mu0 in (-3.0, 0.0, 500.5):
        with pytest.raises(ValueError):
            theory.discrepancy_decay_missing(0.5, d, 500, n, mu0)
    # The ends of both ranges are allowed.
    assert theory.sample_complexity_missing(d, 500.0, 5000.0, n).value > 0.0
    assert 0.0 < theory.discrepancy_decay_missing(0.5, d, 500, n, 500.0) < 0.5


def test_expected_zeta0_frozen():
    assert theory.expected_zeta0(10, 1) == pytest.approx(
        1.0 / (10.0 * math.e), rel=1e-12
    )
    assert theory.expected_zeta0(100, 2) == pytest.approx(
        (2.0 / (100.0 * math.e)) ** 2, rel=1e-12
    )
    # Stays finite and positive deep in underflow-adjacent territory.
    tiny = theory.expected_zeta0(5000, 10)
    assert 0.0 < tiny < 1e-30
    with pytest.raises(ValueError):
        theory.expected_zeta0(5, 5)


# --- perturbation term Delta against execution oracles -------------------


def _split_and_delta(U, Ubar, op, v):
    """(w_par, w_perp, Delta) of v observed through op, against a fresh Ubar^T U."""
    B = sampling.restrict_basis(op, U)
    x = sampling.apply(op, v)
    v_par, _ = numerics.project(U, v)
    w_par, w_perp = theory.coefficient_split(B, x, sampling.apply(op, v_par))
    r = sampling.adjoint(op, x - B @ (w_par + w_perp))
    return w_par, w_perp, theory.delta_term(Ubar.T @ U, Ubar.T @ r, w_perp)


def test_delta_zero_for_full_sampling():
    rng = np.random.default_rng(0)
    for _ in range(10):
        Ubar = datagen.gen_dense_truth(40, 5, rng).Ubar
        U = grouse.init_random(40, 5, rng).U
        v = Ubar @ rng.standard_normal(5)
        _, _, delta = _split_and_delta(U, Ubar, sampling.make_full(40), v)
        assert abs(delta) < 1e-12


def test_coefficient_split_sums_to_solution():
    rng = np.random.default_rng(1)
    Ubar = datagen.gen_dense_truth(60, 6, rng).Ubar
    for kind in ("full", "gaussian", "entrywise"):
        for _ in range(5):
            U = grouse.init_random(60, 6, rng).U
            v = Ubar @ rng.standard_normal(6)
            op = datagen.OpSpec(kind, 30).draw(60, rng)
            B, x = sampling.restrict_basis(op, U), sampling.apply(op, v)
            v_par, _ = numerics.project(U, v)
            w_par, w_perp = theory.coefficient_split(B, x, sampling.apply(op, v_par))
            w = numerics.least_squares(B, x)
            assert np.linalg.norm(w_par + w_perp - w) <= 1e-10 * np.linalg.norm(w)


def test_schur_identity_oracle():
    # det(Ubar^T U_new) / det(Ubar^T U) must equal
    # (||p||^2 + ||r_tilde||^2 + Delta) / (||p|| sqrt(||p||^2 + ||r||^2)),
    # with both sides computed by independent code paths.
    rng = np.random.default_rng(2)
    for kind in ("gaussian", "entrywise"):
        for _ in range(15):
            n, d, m = 50, 5, 20
            Ubar = datagen.gen_dense_truth(n, d, rng).Ubar
            state = grouse.init_random(n, d, rng)
            U_before = state.U.copy()
            v = Ubar @ rng.standard_normal(d)
            op = (
                sampling.make_gaussian(m, n, rng)
                if kind == "gaussian"
                else sampling.make_entrywise(m, n, rng)
            )
            _, _, delta = _split_and_delta(U_before, Ubar, op, v)
            report = grouse.step(state, op, sampling.apply(op, v))
            assert report.status is grouse.StepStatus.UPDATED
            s0, l0 = np.linalg.slogdet(Ubar.T @ U_before)
            s1, l1 = np.linalg.slogdet(Ubar.T @ state.U)
            measured = s0 * s1 * np.exp(l1 - l0)
            predicted = (report.norm_p**2 + report.norm_r_tilde**2 + delta) / (
                report.norm_p * np.sqrt(report.norm_p**2 + report.norm_r**2)
            )
            assert measured == pytest.approx(predicted, rel=1e-9)


def test_step_lower_bound_holds_on_trajectories():
    rng = np.random.default_rng(3)
    n, d, m = 60, 6, 25
    truth = datagen.gen_dense_truth(n, d, rng)
    state = grouse.init_random(n, d, rng)
    checked = 0
    for sample in datagen.gen_stream(truth, datagen.OpSpec("entrywise", m), 150, rng):
        U_before = state.U.copy()
        _, _, delta = _split_and_delta(U_before, truth.Ubar, sample.op, sample.v)
        before = metrics.principal_angles(U_before, truth.Ubar).log_zeta
        report = grouse.step(state, sample.op, sample.x)
        if report.status is not grouse.StepStatus.UPDATED:
            continue
        after = metrics.principal_angles(state.U, truth.Ubar).log_zeta
        ratio = np.exp(after - before)
        bound = theory.step_lower_bound_undersampled(
            report.norm_p, report.norm_r_tilde, report.norm_r, delta
        )
        assert ratio >= bound - 1e-9
        checked += 1
    assert checked > 100


def test_step_lower_bound_missing_reduction():
    # Entry-wise sampling has ||r_tilde|| = ||r||, collapsing the bound to
    # 1 + ||r||^2/||p||^2 + 2 Delta/||p||^2.
    val = theory.step_lower_bound_undersampled(2.0, 1.5, 1.5, 0.3)
    assert val == pytest.approx(1.0 + 1.5**2 / 4.0 + 0.6 / 4.0, rel=1e-12)
    with pytest.raises(theory.ZeroProjection):
        theory.step_lower_bound_undersampled(0.0, 1.0, 1.0, 0.0)


def test_delta_singular_overlap_raises():
    # Fully sampled, so the split exists while the overlap is singular.
    Ubar = np.eye(6)[:, :2]
    U = np.eye(6)[:, 2:4]
    with pytest.raises(theory.SingularOverlap):
        _split_and_delta(U, Ubar, sampling.make_full(6), Ubar @ np.ones(2))
