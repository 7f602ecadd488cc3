import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmann_stream import metrics, numerics


def _random_basis(n, d, seed):
    rng = np.random.default_rng(seed)
    return numerics.orthonormalize(rng.standard_normal((n, d)))


def test_identical_subspaces():
    U = _random_basis(20, 4, 0)
    prof = metrics.principal_angles(U, U)
    assert np.allclose(prof.cosines, 1.0, atol=1e-12)
    assert prof.zeta == pytest.approx(1.0, abs=1e-12)
    assert prof.frob_discrepancy == pytest.approx(0.0, abs=1e-12)


def test_basis_invariance():
    # zeta depends only on the spans, not the bases chosen for them.
    U = _random_basis(20, 4, 1)
    Ubar = _random_basis(20, 4, 2)
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    prof1 = metrics.principal_angles(U, Ubar)
    prof2 = metrics.principal_angles(U @ Q, Ubar)
    assert prof1.zeta == pytest.approx(prof2.zeta, rel=1e-12)


def test_single_known_angle():
    # Plane vs plane tilted by pi/4 in one direction: zeta = cos^2 = 1/2.
    Ubar = np.eye(4)[:, :2]
    c = np.cos(np.pi / 4)
    U = np.array([[1, 0], [0, c], [0, np.sin(np.pi / 4)], [0, 0]], dtype=float)
    prof = metrics.principal_angles(U, Ubar)
    assert prof.zeta == pytest.approx(0.5, rel=1e-12)
    assert np.arccos(prof.cosines[-1]) == pytest.approx(np.pi / 4, rel=1e-12)
    assert prof.frob_discrepancy == pytest.approx(0.5, rel=1e-12)


def test_orthogonal_subspaces_zeta_zero():
    Ubar = np.eye(6)[:, :2]
    U = np.eye(6)[:, 2:4]
    prof = metrics.principal_angles(U, Ubar)
    assert prof.zeta == 0.0
    assert prof.log_zeta == -np.inf


def test_log_domain_survives_tiny_zeta():
    # A random 500-dim start against a truth has zeta ~ (d/ne)^d, far
    # below double underflow territory once squared repeatedly; log_zeta
    # must stay finite while naive determinants may not.
    U = _random_basis(500, 12, 4)
    Ubar = _random_basis(500, 12, 5)
    prof = metrics.principal_angles(U, Ubar)
    assert np.isfinite(prof.log_zeta)
    assert prof.log_zeta < 0


def test_log_det_overlap_matches_angles():
    U = _random_basis(30, 5, 6)
    Ubar = _random_basis(30, 5, 7)
    _, logabs = np.linalg.slogdet(Ubar.T @ U)
    prof = metrics.principal_angles(U, Ubar)
    assert 2 * logabs == pytest.approx(prof.log_zeta, rel=1e-10)


def test_shape_mismatch_raises():
    with pytest.raises(metrics.DimensionMismatch):
        metrics.principal_angles(np.eye(4)[:, :2], np.eye(4)[:, :3])


def test_subspace_incoherence_extremes():
    # Coordinate-aligned subspace: mu = n/d. Maximally spread: mu = 1.
    n, d = 8, 2
    assert metrics.subspace_incoherence(np.eye(n)[:, :d]) == pytest.approx(n / d)
    # Normalized Hadamard-style columns are perfectly spread.
    H = np.array([[1, 1], [1, -1], [1, 1], [1, -1], [1, 1], [1, -1], [1, 1], [1, -1]]) / np.sqrt(8)
    H[:, 1] = np.array([1, -1, 1, -1, -1, 1, -1, 1]) / np.sqrt(8)
    assert metrics.subspace_incoherence(H) == pytest.approx(1.0)


def test_procrustes_distance_known_value():
    # One pi/2 angle in a 1-dim comparison: distance sqrt(2(1-0)) = sqrt 2;
    # one pi/4 angle: sqrt(2 - sqrt 2).
    U = np.eye(4)[:, :1]
    V = np.eye(4)[:, 1:2]
    assert metrics.procrustes_distance(U, V) == pytest.approx(np.sqrt(2.0))
    W = np.array([[np.cos(np.pi / 4)], [np.sin(np.pi / 4)], [0.0], [0.0]])
    assert metrics.procrustes_distance(W, U) == pytest.approx(
        np.sqrt(2.0 - np.sqrt(2.0)), rel=1e-12
    )


def test_procrustes_sandwich():
    # frob_discrepancy <= dist^2 <= 2 * frob_discrepancy.
    for seed in range(20):
        U = _random_basis(25, 4, 100 + seed)
        Ubar = _random_basis(25, 4, 200 + seed)
        prof = metrics.principal_angles(U, Ubar)
        dist_sq = metrics.procrustes_distance(U, Ubar) ** 2
        assert prof.frob_discrepancy <= dist_sq + 1e-10
        assert dist_sq <= 2 * prof.frob_discrepancy + 1e-10


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_zeta_bounds_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    d = int(rng.integers(1, min(n, 6)))
    U = numerics.orthonormalize(rng.standard_normal((n, d)))
    Ubar = numerics.orthonormalize(rng.standard_normal((n, d)))
    prof = metrics.principal_angles(U, Ubar)
    assert 0.0 <= prof.zeta <= 1.0
    # zeta >= 1 - frob_discrepancy (product vs sum of sin^2 terms).
    assert prof.zeta >= 1.0 - prof.frob_discrepancy - 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_symmetry_property(seed):
    rng = np.random.default_rng(seed)
    U = numerics.orthonormalize(rng.standard_normal((20, 3)))
    Ubar = numerics.orthonormalize(rng.standard_normal((20, 3)))
    assert metrics.principal_angles(U, Ubar).zeta == pytest.approx(
        metrics.principal_angles(Ubar, U).zeta, rel=1e-10
    )
