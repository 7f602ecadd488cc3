import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmann_stream import numerics
from grassmann_stream.numerics import RankDeficient


def test_orthonormalize_identity_like():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((20, 4))
    U = numerics.orthonormalize(M)
    assert np.allclose(U.T @ U, np.eye(4), atol=1e-12)
    # Same span: projecting M onto span(U) reproduces M.
    assert np.allclose(U @ (U.T @ M), M, atol=1e-10)


def test_orthonormalize_rejects_rank_deficient():
    M = np.ones((10, 3))
    with pytest.raises(RankDeficient):
        numerics.orthonormalize(M)


def test_orthonormality_drift_zero_for_orthonormal():
    rng = np.random.default_rng(1)
    U = numerics.orthonormalize(rng.standard_normal((30, 5)))
    assert numerics.orthonormality_drift(U) < 1e-14


def test_least_squares_exact_solution():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((12, 4))
    w_true = rng.standard_normal(4)
    w = numerics.least_squares(B, B @ w_true)
    assert np.allclose(w, w_true, atol=1e-10)


def test_least_squares_residual_orthogonal():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((15, 5))
    x = rng.standard_normal(15)
    w = numerics.least_squares(B, x)
    assert np.linalg.norm(B.T @ (x - B @ w)) < 1e-10 * np.linalg.norm(x)


def test_least_squares_underdetermined_raises():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((3, 5))
    with pytest.raises(RankDeficient):
        numerics.least_squares(B, rng.standard_normal(3))


def test_least_squares_rank_deficient_raises():
    B = np.ones((10, 2))
    with pytest.raises(RankDeficient):
        numerics.least_squares(B, np.ones(10))


def test_project_decomposition():
    rng = np.random.default_rng(5)
    U = numerics.orthonormalize(rng.standard_normal((20, 3)))
    v = rng.standard_normal(20)
    v_par, v_perp = numerics.project(U, v)
    assert np.allclose(v_par + v_perp, v)
    assert np.linalg.norm(U.T @ v_perp) < 1e-12
    # Pythagoras
    assert np.isclose(
        np.linalg.norm(v) ** 2,
        np.linalg.norm(v_par) ** 2 + np.linalg.norm(v_perp) ** 2,
    )


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_orthonormalize_property(seed, d):
    rng = np.random.default_rng(seed)
    n = d + rng.integers(1, 20)
    U = numerics.orthonormalize(rng.standard_normal((n, d)))
    assert numerics.orthonormality_drift(U) < 1e-12


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_project_in_span_property(seed):
    rng = np.random.default_rng(seed)
    U = numerics.orthonormalize(rng.standard_normal((15, 4)))
    v = U @ rng.standard_normal(4)
    v_par, v_perp = numerics.project(U, v)
    assert np.linalg.norm(v_perp) < 1e-10 * max(np.linalg.norm(v), 1.0)
