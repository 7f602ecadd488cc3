import numpy as np
import pytest

from grassmann_stream import datagen, grouse, metrics, numerics, sampling
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


def test_step_with_angle_validates_range():
    rng = np.random.default_rng(5)
    state = grouse.init_random(10, 2, rng)
    with pytest.raises(ValueError):
        grouse.step_with_angle(state, sampling.make_full(10), np.ones(10), -0.1)
    with pytest.raises(ValueError):
        grouse.step_with_angle(state, sampling.make_full(10), np.ones(10), 2.0)


def test_step_with_angle_zero_is_identity_on_span():
    rng = np.random.default_rng(6)
    state = grouse.init_random(15, 3, rng)
    U_before = state.U.copy()
    x = rng.standard_normal(15)
    report = grouse.step_with_angle(state, sampling.make_full(15), x, 0.0)
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
        v_par, v_perp = numerics.project(state.U, v)
        t = rng.uniform(0.0, np.pi / 2)
        before = metrics.principal_angles(state.U, Ubar).log_zeta
        report = grouse.step_with_angle(state, sampling.make_full(n), v, t)
        assert report.status is StepStatus.UPDATED
        after = metrics.principal_angles(state.U, Ubar).log_zeta
        predicted = (
            np.cos(t) + np.linalg.norm(v_perp) / np.linalg.norm(v_par) * np.sin(t)
        ) ** 2
        assert np.exp(after - before) == pytest.approx(predicted, rel=1e-9)


def test_reorthonormalization_cadence_and_drift():
    rng = np.random.default_rng(8)
    state = grouse.init_random(30, 4, rng, reorth_every=10)
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
