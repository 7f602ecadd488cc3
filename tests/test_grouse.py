import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from grassmann_stream import datagen, grouse, harness, metrics, numerics, sampling
from grassmann_stream.grouse import StepStatus


def test_hand_example_one_step_alignment():
    # n=2, d=1: estimate at 45 degrees to the truth e1 (zeta = 1/2). One
    # fully sampled observation of the truth rotates the estimate exactly
    # onto x/||x||, so zeta jumps to 1.
    Ubar = np.array([[1.0], [0.0]])
    U0 = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    state = grouse.GrouseState(U=U0.copy())
    assert metrics.principal_angles(state.U, Ubar).zeta == pytest.approx(0.5)
    x = np.array([3.0, 0.0])
    report = grouse.step(state, sampling.make_full(2), x)
    assert report.status is StepStatus.UPDATED
    assert metrics.principal_angles(state.U, Ubar).zeta == pytest.approx(1.0, abs=1e-12)


def test_full_data_step_reaches_observation_span():
    # With full data and d=1 the greedy angle always lands on x/||x||.
    rng = np.random.default_rng(0)
    for _ in range(10):
        U0 = numerics.orthonormalize(rng.standard_normal((8, 1)))
        state = grouse.GrouseState(U=U0)
        x = rng.standard_normal(8)
        grouse.step(state, sampling.make_full(8), x)
        target = (x / np.linalg.norm(x)).reshape(-1, 1)
        assert metrics.principal_angles(state.U, target).zeta == pytest.approx(
            1.0, abs=1e-10
        )


def test_update_preserves_orthonormality():
    rng = np.random.default_rng(1)
    state = grouse.init_random(50, 6, rng)
    truth = datagen.gen_dense_truth(50, 6, rng)
    for sample in datagen.gen_stream(truth, datagen.OpSpec("full"), 200, rng):
        grouse.step(state, sample.op, sample.x)
    assert numerics.orthonormality_drift(state.U) < 1e-9


def test_skip_zero_residual():
    # Observing a vector already in the span leaves the basis untouched.
    rng = np.random.default_rng(2)
    state = grouse.init_random(20, 3, rng)
    U_before = state.U.copy()
    x = state.U @ np.array([1.0, -2.0, 0.5])
    report = grouse.step(state, sampling.make_full(20), x)
    assert report.status is StepStatus.SKIPPED_ZERO_RESIDUAL
    assert np.array_equal(state.U, U_before)


def test_skip_zero_projection():
    # Observation orthogonal to the span: no usable projection direction.
    state = grouse.GrouseState(U=np.eye(5)[:, :2])
    report = grouse.step(state, sampling.make_full(5), np.eye(5)[:, 4] * 2.0)
    assert report.status is StepStatus.SKIPPED_ZERO_PROJECTION


def test_skip_rank_deficient():
    # Fewer measurements than d cannot determine the coefficients.
    rng = np.random.default_rng(3)
    state = grouse.init_random(30, 5, rng)
    U_before = state.U.copy()
    op = sampling.make_entrywise(3, 30, rng)
    report = grouse.step(state, op, np.ones(3))
    assert report.status is StepStatus.SKIPPED_RANK_DEFICIENT
    assert np.array_equal(state.U, U_before)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_skip_nonfinite_observation(bad):
    # A NaN or infinite measurement must not reach the basis.
    rng = np.random.default_rng(3)
    state = grouse.init_random(30, 5, rng)
    U_before = state.U.copy()
    x = rng.standard_normal(30)
    x[7] = bad
    report = grouse.step(state, sampling.make_full(30), x)
    assert np.array_equal(state.U, U_before)
    assert np.all(np.isfinite(state.U))
    assert report.status is StepStatus.SKIPPED_NONFINITE_INPUT


def test_norm_p_equals_norm_w():
    rng = np.random.default_rng(4)
    state = grouse.init_random(40, 4, rng)
    op = sampling.make_gaussian(20, 40, rng)
    x = sampling.apply(op, rng.standard_normal(40))
    report = grouse.step(state, op, x)
    assert report.status is StepStatus.UPDATED
    assert report.norm_p == pytest.approx(np.linalg.norm(report.w), rel=1e-12)
    assert report.theta == pytest.approx(np.arctan2(report.norm_r, report.norm_p))


def test_step_theta_validates_range():
    rng = np.random.default_rng(5)
    state = grouse.init_random(10, 2, rng)
    with pytest.raises(ValueError):
        grouse.step(state, sampling.make_full(10), np.ones(10), theta=-0.1)
    with pytest.raises(ValueError):
        grouse.step(state, sampling.make_full(10), np.ones(10), theta=2.0)


def test_step_theta_zero_is_identity_on_span():
    rng = np.random.default_rng(6)
    state = grouse.init_random(15, 3, rng)
    U_before = state.U.copy()
    x = rng.standard_normal(15)
    report = grouse.step(state, sampling.make_full(15), x, theta=0.0)
    assert report.status is StepStatus.UPDATED
    # theta = 0 leaves the span unchanged.
    assert metrics.principal_angles(state.U, U_before).zeta == pytest.approx(
        1.0, abs=1e-10
    )


def test_arbitrary_angle_ratio_identity_small():
    # zeta ratio = (cos t + (||v_perp||/||v_par||) sin t)^2 for any t.
    rng = np.random.default_rng(7)
    for _ in range(25):
        n, d = 30, 4
        Ubar = datagen.gen_dense_truth(n, d, rng).Ubar
        state = grouse.init_random(n, d, rng)
        v = Ubar @ rng.standard_normal(d)
        _, v_par, v_perp = numerics.project(state.U, v)
        t = rng.uniform(0.0, np.pi / 2)
        before = metrics.principal_angles(state.U, Ubar).log_zeta
        report = grouse.step(state, sampling.make_full(n), v, theta=t)
        assert report.status is StepStatus.UPDATED
        after = metrics.principal_angles(state.U, Ubar).log_zeta
        predicted = (
            np.cos(t) + np.linalg.norm(v_perp) / np.linalg.norm(v_par) * np.sin(t)
        ) ** 2
        assert np.exp(after - before) == pytest.approx(predicted, rel=1e-9)


def test_reorthonormalization_cadence(monkeypatch):
    monkeypatch.setattr(grouse, "REORTH_EVERY", 10)
    rng = np.random.default_rng(8)
    state = grouse.init_random(30, 4, rng)
    truth = datagen.gen_dense_truth(30, 4, rng)
    reorth_steps = []
    for t, sample in enumerate(
        datagen.gen_stream(truth, datagen.OpSpec("full"), 35, rng)
    ):
        report = grouse.step(state, sample.op, sample.x)
        if report.reorthonormalized:
            reorth_steps.append(t)
    assert reorth_steps, "cadence of 10 must fire within 35 steps"
    assert numerics.orthonormality_drift(state.U) < 1e-10


def test_state_rejects_a_basis_that_is_not_orthonormal():
    U0 = grouse.init_random(10, 3, np.random.default_rng(16)).U
    moved = U0.copy()
    moved[0, 0] += 1e-9
    not_finite = U0.copy()
    not_finite[4, 1] = np.nan
    for U in (2 * U0, moved, not_finite):
        with pytest.raises(ValueError, match="not an orthonormal basis"):
            grouse.GrouseState(U=U)
    assert np.array_equal(grouse.GrouseState(U=U0).U, U0)


def test_rounding_drift_before_each_reorthonormalization(monkeypatch):
    # The cadence and the fold of K before cond_bound reaches COND_LIMIT
    # bound the drift of U from orthonormality; it must stay far below the
    # 1e-10 of the basis contract before every reorthonormalization and
    # every fold of a pending K (measured worst 6.6e-15).
    drifts, fold_drifts = [], []

    def recording(state, _real=grouse.reorthonormalize):
        drifts.append(numerics.orthonormality_drift(state.U))
        _real(state)

    def recording_fold(state, _real=grouse._fold):
        if state.K is not None:
            fold_drifts.append(numerics.orthonormality_drift(state.U))
        _real(state)

    monkeypatch.setattr(grouse, "reorthonormalize", recording)
    monkeypatch.setattr(grouse, "_fold", recording_fold)
    reorthonormalizations = 0
    # (kind, n, d, m, seed); d = 1 and m = d + 1 included. Seed 12 at
    # n=300, d=8, m=40 is the trial of
    # test_factored_steps_match_dense_reference_and_tracked_overlap, whose
    # early large steps fold K before cond_bound reaches COND_LIMIT.
    cases = [
        ("full", 200, 5, None, 17), ("gaussian", 200, 5, 40, 18),
        ("entrywise", 200, 5, 40, 19), ("full", 100, 1, None, 20),
        ("gaussian", 100, 1, 2, 21), ("entrywise", 100, 1, 2, 22),
        ("gaussian", 200, 5, 6, 23), ("entrywise", 200, 5, 6, 24),
        ("entrywise", 300, 8, 40, 12),
    ]
    for kind, n, d, m, seed in cases:
        config = harness.TrialConfig(n=n, d=d, op_kind=kind, m=m, seed=seed)
        trial = harness._Trial(config)
        for t, sample in enumerate(trial.stream(config.op_spec(), 300)):
            # One right-angle step folds a pending K into a dense update.
            theta = np.pi / 2 if (seed, t) == (19, 150) else None
            report = grouse.step(trial.state, sample.op, sample.x, theta=theta)
            reorthonormalizations += report.reorthonormalized
            assert trial.state.cond_bound < grouse.COND_LIMIT
    assert len(drifts) == reorthonormalizations > 0
    assert fold_drifts
    assert max(drifts + fold_drifts) <= 1e-12


@pytest.mark.parametrize("n, d", [(2000, 20), (300, 8), (100, 1)])
@pytest.mark.parametrize("drift", [1e-12, 0.99 * numerics.ORTHONORMAL_TOL])
def test_reorthonormalization_is_householder_q_to_rounding(n, d, drift):
    # A basis drifted to 1e-12 (the worst the steps leave, see above) and
    # to the 1e-10 contract. V R^-1 must be np.linalg.qr's Q to rounding,
    # with its column signs and V's span, and orthonormal to rounding.
    #
    # The bound. Householder QR gives the exact R of V + dV, V + dV = Q R
    # with Q orthonormal; inverting R and the product V R^-1 round too. So
    # the computed V R^-1 is Q + E, E = Q R dX - dV R^-1 + dM to first
    # order, with dX the error of R^-1 and dM that of the product, and
    # ||Q^T Q - I||_F <= 2 ||E||_F + ||E||_F^2. Each of the d columns of
    # dV, R dX and dM is a rounding error of k-term inner products, k = n
    # for dV and dM and k = d for R dX, which is about sqrt(k) eps
    # (Higham & Mary, SIAM J. Sci. Comput. 41(5), 2019), scaled by
    # ||R^-1||_2 or ||R||_2 ||R^-1||_2 <= cond(V). Hence
    # ||E||_F <= (sqrt(n) + 2 sqrt(d)) sqrt(d) eps cond(V)^2 up to a
    # constant, taken as 2 by absorbing ||E||_F^2. The explicit Q of
    # np.linalg.qr meets the same bound.
    rng = np.random.default_rng(n + d)
    U = numerics.orthonormalize(rng.standard_normal((n, d)))
    N = rng.standard_normal((n, d))
    V = U + 1e-12 * drift / numerics.orthonormality_drift(U + 1e-12 * N) * N
    assert drift / 2 <= numerics.orthonormality_drift(V) <= numerics.ORTHONORMAL_TOL
    sv = np.linalg.svd(V, compute_uv=False)
    eps = np.finfo(float).eps
    bound = 2 * (np.sqrt(n) + 2 * np.sqrt(d)) * np.sqrt(d) * eps * (sv[0] / sv[-1]) ** 2
    state = grouse.GrouseState(U=V)
    grouse.reorthonormalize(state)
    Q, Q_householder = state.V, np.linalg.qr(V)[0]
    assert state.K is None and state.steps_since_reorth == 0
    assert numerics.orthonormality_drift(Q) <= bound
    assert numerics.orthonormality_drift(Q_householder) <= bound
    assert np.linalg.norm(Q - Q_householder) <= 2 * bound
    assert np.all(np.einsum("ij,ij->j", Q, Q_householder) > 0.5)
    assert np.linalg.norm(V - Q @ (Q.T @ V)) <= bound


def test_determinism():
    def run(seed):
        rng = np.random.default_rng(seed)
        state = grouse.init_random(25, 3, rng)
        truth = datagen.gen_dense_truth(25, 3, rng)
        for sample in datagen.gen_stream(truth, datagen.OpSpec("entrywise", 10), 50, rng):
            grouse.step(state, sample.op, sample.x)
        return state.U

    assert np.array_equal(run(9), run(9))


def test_init_random_validates():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        grouse.init_random(5, 5, rng)
    with pytest.raises(ValueError):
        grouse.init_random(5, 0, rng)


def test_initial_similarity_scale():
    # E[zeta0] ~ C (d/ne)^d: for d=1 the mean over random starts should
    # be near 1/(n e) within Monte Carlo error.
    rng = np.random.default_rng(11)
    n, trials = 20, 4000
    Ubar = datagen.gen_dense_truth(n, 1, rng).Ubar
    vals = []
    for _ in range(trials):
        state = grouse.init_random(n, 1, rng)
        vals.append(metrics.principal_angles(state.U, Ubar).zeta)
    mean = np.mean(vals)
    expected = 1.0 / n  # exact E[cos^2] for a random line vs fixed line
    assert abs(mean - expected) < 4 * np.std(vals) / np.sqrt(trials)


# --- the factored basis U = V K of entry-wise steps -------------------------


def _reference_step(U, op, x, theta=None):
    """The GROUSE step on a dense basis, written out: U + (a U w + b r) w^T/||w||."""
    B = sampling.restrict_basis(op, U)
    w, _ = numerics.least_squares(B, x)
    r = sampling.adjoint(op, x - B @ w)
    norm_w, norm_r = np.linalg.norm(w), np.linalg.norm(r)
    if theta is None:
        theta = np.arctan2(norm_r, norm_w)
    direction = (np.cos(theta) - 1.0) / norm_w * (U @ w) + np.sin(theta) / norm_r * r
    return U + np.outer(direction, w / norm_w)


def _beside_reference(step, U_ref, samples):
    """Yield (report, U_ref) after step(sample) for each sample, where U_ref
    follows the dense reference and is reorthonormalized where step was."""
    for sample in samples:
        report = step(sample)
        assert report.status is StepStatus.UPDATED
        U_ref = _reference_step(U_ref, sample.op, sample.x)
        if report.reorthonormalized:
            U_ref = numerics.orthonormalize(U_ref)
        yield report, U_ref


def test_factored_steps_match_dense_reference_and_tracked_overlap():
    # 300 entry-wise steps from a random start, through the harness's
    # trial so that its tracked M = Ubar^T U is checked too.
    config = harness.TrialConfig(n=300, d=8, op_kind="entrywise", m=40, seed=12)
    trial = harness._Trial(config)
    samples = trial.stream(config.op_spec(), 300)
    worst_U = worst_M = 0.0
    pending, folds, reorthonormalizations = False, 0, 0
    for report, U_ref in _beside_reference(trial.step, trial.state.U.copy(), samples):
        # A step that found K pending and left none folded it into V.
        folds += pending and trial.state.K is None and not report.reorthonormalized
        reorthonormalizations += report.reorthonormalized
        pending = trial.state.K is not None
        U = trial.state.U
        worst_U = max(worst_U, float(np.abs(U - U_ref).max()))
        worst_M = max(worst_M, float(np.abs(trial.M - trial.truth.Ubar.T @ U).max()))
    assert folds > 0 and reorthonormalizations > 0
    assert worst_U <= 1e-10
    assert worst_M <= 1e-12


def test_factored_step_leaves_unsampled_rows_unchanged():
    rng = np.random.default_rng(13)
    state = grouse.init_random(200, 6, rng)
    truth = datagen.gen_dense_truth(200, 6, rng)
    (sample,) = datagen.gen_stream(truth, datagen.OpSpec("entrywise", 30), 1, rng)
    V_before = state.V.copy()
    report = grouse.step(state, sample.op, sample.x)
    assert report.status is StepStatus.UPDATED and not report.reorthonormalized
    unsampled = np.setdiff1d(np.arange(200), sample.op.indices)
    assert np.array_equal(state.V[unsampled], V_before[unsampled])
    assert not np.array_equal(state.V, V_before)


def test_right_angle_entrywise_step_takes_the_dense_update():
    # cos(pi/2) ~ 6e-17 would make K singular; the step folds K and takes
    # the dense update instead.
    rng = np.random.default_rng(14)
    state = grouse.init_random(200, 6, rng)
    truth = datagen.gen_dense_truth(200, 6, rng)
    samples = list(datagen.gen_stream(truth, datagen.OpSpec("entrywise", 30), 6, rng))
    for sample in samples[:5]:
        grouse.step(state, sample.op, sample.x)
    assert state.K is not None
    U_ref = _reference_step(state.U, samples[5].op, samples[5].x, theta=np.pi / 2)
    report = grouse.step(state, samples[5].op, samples[5].x, theta=np.pi / 2)
    assert report.status is StepStatus.UPDATED
    assert np.all(np.isfinite(state.U))
    assert numerics.orthonormality_drift(state.U) < 1e-9
    assert np.abs(state.U - U_ref).max() <= 1e-12


def test_entrywise_full_entrywise_matches_dense_reference():
    # A dense operator arriving on a factored state folds K into V first.
    rng = np.random.default_rng(15)
    state = grouse.init_random(200, 6, rng)
    truth = datagen.gen_dense_truth(200, 6, rng)
    samples = []
    for spec, count in (("entrywise", 30), ("full", 5), ("entrywise", 30)):
        op_spec = datagen.OpSpec(spec, None if spec == "full" else 30)
        samples += list(datagen.gen_stream(truth, op_spec, count, rng))
    steps = _beside_reference(
        lambda sample: grouse.step(state, sample.op, sample.x), state.U.copy(), samples
    )
    assert max(float(np.abs(state.U - U_ref).max()) for _, U_ref in steps) <= 1e-10


@pytest.mark.parametrize("kind", ["full", "gaussian", "entrywise"])
def test_held_arrays_stay_intact(kind):
    # A caller may hold a state.U it read and a step's report.B and
    # report.qr: no later step may write into any of them. Every 50th
    # entry-wise step takes a right angle, so the run starts a factored K,
    # folds one into a dense update and reorthonormalizes.
    rng = np.random.default_rng(23)
    truth = datagen.gen_dense_truth(60, 4, rng)
    state = grouse.init_random(60, 4, rng)
    spec = datagen.OpSpec(kind, None if kind == "full" else 20)
    held, events = [], Counter()
    for t, sample in enumerate(datagen.gen_stream(truth, spec, 300, rng)):
        pending = state.K is not None
        U = state.U
        theta = np.pi / 2 if kind == "entrywise" and t % 50 == 25 else None
        report = grouse.step(state, sample.op, sample.x, theta=theta)
        held += [(U, U.copy()), (report.B, report.B.copy())]
        if report.qr is not None:
            held += [(array, array.copy()) for array in report.qr]
        events["factored start"] += not pending and state.K is not None
        updated = report.status is StepStatus.UPDATED
        events["dense fold"] += pending and updated and theta is not None
        events["dense update"] += updated and state.K is None
        events["reorthonormalization"] += report.reorthonormalized
    assert all(np.array_equal(array, copy) for array, copy in held)
    assert events["dense update"] > 0 and events["reorthonormalization"] > 0
    if kind == "entrywise":
        assert events["factored start"] > 0 and events["dense fold"] > 0


@pytest.mark.parametrize("name", ["COND_LIMIT", "REORTH_EVERY"])
def test_readme_states_the_step_constants(name):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    stated = re.findall(rf"`{name}` = ([0-9.e+-]+)", readme)
    assert stated and all(float(value) == getattr(grouse, name) for value in stated)
