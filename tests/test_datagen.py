import numpy as np
import pytest

from grassmann_stream import datagen, grouse, metrics, numerics


def test_dense_truth_orthonormal():
    rng = np.random.default_rng(0)
    truth = datagen.gen_dense_truth(50, 6, rng)
    assert truth.Ubar.shape == (50, 6)
    assert numerics.orthonormality_drift(truth.Ubar) < 1e-12
    assert truth.kind == "dense"
    assert truth.mu0 >= 1.0


def test_sparse_truth_orthonormal_and_sparse():
    rng = np.random.default_rng(1)
    truth = datagen.gen_sparse_truth(500, 8, rng)
    assert numerics.orthonormality_drift(truth.Ubar) < 1e-12
    assert truth.kind == "sparse"
    # A sparse subspace concentrates on few coordinates: incoherence well
    # above the dense-Gaussian typical range.
    dense = datagen.gen_dense_truth(500, 8, rng)
    assert truth.mu0 > dense.mu0


def test_truth_validation():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        datagen.gen_dense_truth(5, 5, rng)
    with pytest.raises(ValueError):
        datagen.gen_sparse_truth(5, 5, rng)


def test_stream_vectors_lie_in_truth():
    rng = np.random.default_rng(3)
    truth = datagen.gen_dense_truth(80, 5, rng)
    for sample in datagen.gen_stream(truth, datagen.OpSpec("full"), 50, rng):
        v = sample.v
        resid = v - truth.Ubar @ (truth.Ubar.T @ v)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(v)
        assert np.array_equal(sample.x, v)


def test_stream_applies_operator():
    rng = np.random.default_rng(4)
    truth = datagen.gen_dense_truth(60, 4, rng)
    for sample in datagen.gen_stream(truth, datagen.OpSpec("entrywise", 15), 20, rng):
        assert sample.x.shape == (15,)
        assert np.array_equal(sample.x, sample.v[sample.op.indices])


@pytest.mark.parametrize("n", [300, 2000, 32_000])
def test_entrywise_stream_measures_the_sampled_rows_bit_for_bit(n):
    # x = Ubar[idx] s costs O(md) and must be the bits of (Ubar s)[idx].
    for seed in range(3):
        rng = np.random.default_rng([n, seed])
        truth = datagen.gen_dense_truth(n, 20, rng)
        for sample in datagen.gen_stream(truth, datagen.OpSpec("entrywise", 100), 20, rng):
            idx = sample.op.indices
            assert np.array_equal(sample.x, (truth.Ubar @ sample.s)[idx])
            assert np.array_equal(sample.rows, truth.Ubar[idx])


def test_entrywise_v_read_after_the_step_is_ubar_s():
    rng = np.random.default_rng(12)
    truth = datagen.gen_dense_truth(200, 5, rng)
    state = grouse.init_random(200, 5, rng)
    for sample in datagen.gen_stream(truth, datagen.OpSpec("entrywise", 30), 5, rng):
        grouse.step(state, sample.op, sample.x)
        assert np.array_equal(sample.v, truth.Ubar @ sample.s)
        assert sample.v is sample.v


def test_stream_seed_determinism():
    def collect(seed):
        rng = datagen.trial_rng(seed, 0)
        truth = datagen.gen_dense_truth(40, 4, rng)
        return [
            (s.x.copy(), s.v.copy())
            for s in datagen.gen_stream(truth, datagen.OpSpec("gaussian", 10), 10, rng)
        ]

    a, b = collect(7), collect(7)
    for (xa, va), (xb, vb) in zip(a, b):
        assert np.array_equal(xa, xb)
        assert np.array_equal(va, vb)


def test_trial_rng_streams_differ():
    a = datagen.trial_rng(0, 0).standard_normal(5)
    b = datagen.trial_rng(0, 1).standard_normal(5)
    assert not np.allclose(a, b)


def test_perturb_target_zero_is_truth():
    rng = np.random.default_rng(6)
    Ubar = datagen.gen_dense_truth(40, 5, rng).Ubar
    U = datagen.perturb_within_region(Ubar, 0.0, rng)
    assert metrics.principal_angles(U, Ubar).zeta == pytest.approx(1.0, abs=1e-12)


def test_perturb_hits_target_exactly():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(10, 60))
        d = int(rng.integers(2, min(n - 1, 8)))
        Ubar = datagen.gen_dense_truth(n, d, rng).Ubar
        target = float(rng.uniform(1e-6, 0.5))
        U = datagen.perturb_within_region(Ubar, target, rng)
        assert numerics.orthonormality_drift(U) < 1e-10
        prof = metrics.principal_angles(U, Ubar)
        assert prof.frob_discrepancy == pytest.approx(target, abs=1e-9)


def test_perturb_boundary_of_local_region():
    rng = np.random.default_rng(8)
    truth = datagen.gen_dense_truth(200, 5, rng)
    boundary = truth.d * truth.mu0 / (16.0 * truth.n)
    U = datagen.perturb_within_region(truth.Ubar, boundary, rng)
    prof = metrics.principal_angles(U, truth.Ubar)
    assert prof.frob_discrepancy == pytest.approx(boundary, rel=1e-9)
    # Strictly inside the boundary stays strictly inside the region.
    U_in = datagen.perturb_within_region(truth.Ubar, 0.99 * boundary, rng)
    assert metrics.principal_angles(U_in, truth.Ubar).frob_discrepancy < boundary


def test_perturb_validates_target():
    rng = np.random.default_rng(9)
    Ubar = datagen.gen_dense_truth(10, 4, rng).Ubar
    with pytest.raises(ValueError):
        datagen.perturb_within_region(Ubar, -0.1, rng)
    with pytest.raises(ValueError):
        datagen.perturb_within_region(Ubar, 4.0, rng)


def test_key_quantity_monte_carlo():
    # Mean of ||v_perp||^2 / ||v||^2 over the stream is at least
    # (1 - zeta)/d up to Monte Carlo error, for a random fixed estimate.
    rng = np.random.default_rng(10)
    n, d, trials = 80, 6, 20_000
    truth = datagen.gen_dense_truth(n, d, rng)
    U = numerics.orthonormalize(rng.standard_normal((n, d)))
    zeta = metrics.principal_angles(U, truth.Ubar).zeta
    fracs = np.empty(trials)
    for i, sample in enumerate(
        datagen.gen_stream(truth, datagen.OpSpec("full"), trials, rng)
    ):
        _, v_perp = numerics.project(U, sample.v)
        fracs[i] = np.linalg.norm(v_perp) ** 2 / np.linalg.norm(sample.v) ** 2
    se = fracs.std(ddof=1) / np.sqrt(trials)
    assert fracs.mean() >= (1.0 - zeta) / d - 3.0 * se
