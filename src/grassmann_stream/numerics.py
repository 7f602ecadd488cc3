"""Dense linear-algebra kernels with explicit numerical contracts.

Everything here operates on plain float64 numpy arrays. An "orthonormal
basis" is an n x d array whose columns satisfy ||U^T U - I||_F <=
ORTHONORMAL_TOL. The package builds its bases through
:func:`orthonormalize` or ``datagen.perturb_within_region``, and
``grouse.GrouseState`` checks the contract for the basis it is given.
"""

from __future__ import annotations

import numpy as np

# Relative rank tolerances: smallest singular value must exceed the
# tolerance times the largest for a matrix to count as full column rank.
RANK_RTOL = 1e-10  # least_squares
ORTHONORMALIZE_RTOL = 1e-12  # orthonormalize
ORTHONORMAL_TOL = 1e-10  # absolute, on ||U^T U - I||_F (see above)


class RankDeficient(ValueError):
    """The matrix does not have full numerical column rank."""


def orthonormality_drift(U: np.ndarray) -> float:
    """||U^T U - I||_F, the floating-point drift from orthonormality."""
    d = U.shape[1]
    return float(np.linalg.norm(U.T @ U - np.eye(d)))


def orthonormalize(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of M, via reduced QR.

    Raises RankDeficient if the numerical rank of M is below its column
    count (smallest singular value <= ORTHONORMALIZE_RTOL * largest).
    """
    M = np.asarray(M, dtype=np.float64)
    Q, R = np.linalg.qr(M)
    _check_full_rank(
        R, ORTHONORMALIZE_RTOL,
        f"matrix of shape {M.shape} has numerical rank below {M.shape[1]}",
    )
    return Q


def least_squares(B: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unique minimizer w of ||B w - x||_2 via one QR factorization of [B x].

    Its triangular factor holds the R of B = Q R in its leading d x d
    block and Q^T x in its trailing columns. x may hold several right-hand
    sides as columns; w then has one column per right-hand side.

    The QR route keeps the error proportional to cond(B), which
    matters when B is a sampled basis with barely more rows than columns.
    Raises RankDeficient when the smallest singular value of B is at most
    RANK_RTOL times the largest (callers treat this as "skip this step").
    The triangular factor R is certified full rank from ||R||_F ||R^-1||_F
    when it is well conditioned; otherwise the singular values of R decide,
    as they would without the certificate. w is always the LU solve of
    R w = Q^T x, whichever test decided.
    """
    B = np.asarray(B, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] != x.shape[0]:
        raise ValueError(f"shape mismatch: B {B.shape}, x {x.shape}")
    if B.shape[0] < B.shape[1]:
        raise RankDeficient(
            f"{B.shape[0]} rows cannot determine {B.shape[1]} coefficients"
        )
    d = B.shape[1]
    R_Bx = np.linalg.qr(np.column_stack((B, x)), mode="r")
    R, Qt_x = R_Bx[:d, :d], R_Bx[:d, d:]
    _check_full_rank(R, RANK_RTOL, "least-squares matrix is numerically rank deficient")
    return np.linalg.solve(R, Qt_x if x.ndim == 2 else Qt_x[:, 0])


def _check_full_rank(R: np.ndarray, rank_rtol: float, message: str) -> None:
    """Raise RankDeficient(message) unless sigma_min(R) > rank_rtol * sigma_max(R).

    sigma_min >= 1/||R^-1||_F and sigma_max <= ||R||_F, so
    ||R||_F ||R^-1||_F rank_rtol <= 1/2 proves full rank without the
    singular values; the factor 2 leaves room for rounding in the computed
    R^-1. Any other R (including one inv rejects) goes to the singular
    values, so every decision is the one they make.
    """
    try:
        R_inv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        pass
    else:
        if np.linalg.norm(R) * np.linalg.norm(R_inv) * rank_rtol <= 0.5:
            return
    sv = np.linalg.svd(R, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= rank_rtol * sv[0]:
        raise RankDeficient(message)


def project(U: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split v into its component in span(U) and the orthogonal remainder.

    U must have orthonormal columns. Returns (v_par, v_perp) with
    v_par + v_perp == v exactly.
    """
    v = np.asarray(v, dtype=np.float64)
    v_par = U @ (U.T @ v)
    return v_par, v - v_par
