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


def _with_singular_values(m, s, seed):
    """m x len(s) matrix Q diag(s) V^T with random orthonormal Q and V."""
    rng = np.random.default_rng(seed)
    Q = numerics.orthonormalize(rng.standard_normal((m, len(s))))
    V = numerics.orthonormalize(rng.standard_normal((len(s), len(s))))
    return (Q * s) @ V.T


def _rank_cases(rank_rtol):
    # sigma_min / sigma_max on both sides of the threshold, plus far from it.
    ratios = [rank_rtol * f for f in (0.5, 0.999, 1.001, 2.0)]
    ratios += [r for r in (1.0, 1e-5, 1e-12) if not 0.1 < r / rank_rtol < 10.0]
    for m, d in ((100, 20), (20, 20), (30, 5)):
        for k, ratio in enumerate(ratios):
            s = np.geomspace(1.0, ratio, d)
            yield _with_singular_values(m, s, seed=100 * d + k), ratio <= rank_rtol


def _least_squares(B):
    return numerics.least_squares(B, np.ones(B.shape[0]))


@pytest.mark.parametrize(
    "solve, constant, rank_rtol",
    [
        (_least_squares, "RANK_RTOL", 1e-10),
        (_least_squares, "RANK_RTOL", 1e-4),
        (numerics.orthonormalize, "ORTHONORMALIZE_RTOL", 1e-12),
    ],
    ids=["least_squares", "least_squares_rtol_1e-4", "orthonormalize"],
)
def test_rank_decision_is_the_singular_value_test(monkeypatch, solve, constant, rank_rtol):
    # RankDeficient exactly when sigma_min <= rank_rtol * sigma_max, also
    # where the ||R||_F ||R^-1||_F certificate cannot decide. The tolerance
    # is a module constant, read at call time.
    monkeypatch.setattr(numerics, constant, rank_rtol)
    rng = np.random.default_rng(6)
    cases = list(_rank_cases(rank_rtol))
    B = rng.standard_normal((12, 4))
    cases.append((np.column_stack((B, B[:, 1])), True))  # exactly singular
    cases.append((np.column_stack((B, np.zeros(12))), True))  # zero column
    cases.append((np.zeros((12, 4)), True))
    cases.append((B[:, :1], False))
    cases.append((np.zeros((12, 1)), True))
    for B, deficient in cases:
        if deficient:
            with pytest.raises(RankDeficient):
                solve(B)
        else:
            solve(B)
