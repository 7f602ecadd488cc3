"""Dense linear-algebra kernels with explicit numerical contracts.

Everything here operates on plain float64 numpy arrays. An "orthonormal
basis" is an n x d array whose columns satisfy ||U^T U - I||_F <=
ORTHONORMAL_TOL. The package builds its bases through
:func:`orthonormalize` or ``datagen.perturb_within_region``, and
``grouse.GrouseState`` checks the contract for the basis it is given.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

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
    R_Bx = np.column_stack((B, x))
    qr_in_place(R_Bx)
    R, Qt_x = R_Bx[:d, :d], R_Bx[:d, d:]
    # In these d rows the reflectors lie below R's diagonal only; Q^T x is above it.
    R[_strictly_lower(d)] = 0.0
    _check_full_rank(R, RANK_RTOL, "least-squares matrix is numerically rank deficient")
    return solve(R, Qt_x if x.ndim == 2 else Qt_x[:, 0])


@functools.lru_cache(maxsize=64)
def _strictly_lower(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(d, -1)


def _check_full_rank(R: np.ndarray, rank_rtol: float, message: str) -> None:
    """Raise RankDeficient(message) unless sigma_min(R) > rank_rtol * sigma_max(R).

    sigma_min >= 1/||R^-1||_F and sigma_max <= ||R||_F, so
    ||R||_F ||R^-1||_F rank_rtol <= 1/2 proves full rank without the
    singular values; the factor 2 leaves room for rounding in the computed
    R^-1. Any other R (including one inv rejects) goes to the singular
    values, so every decision is the one they make.
    """
    try:
        R_inv = inv(R)
    except LinAlgError:
        pass
    else:
        if math.sqrt(np.vdot(R, R)) * math.sqrt(np.vdot(R_inv, R_inv)) * rank_rtol <= 0.5:
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


# The small dense calls of a step, each the LAPACK gufunc np.linalg calls,
# called with np.linalg's signature string and floating-point error state:
# the bits are np.linalg's and a failure raises np.linalg.LinAlgError. At
# the d x d sizes of a step np.linalg's Python wrapping costs more than
# the LAPACK work. tests/test_numerics.py pins each one to np.linalg.
def _lapack_errstate(message: str):
    """np.linalg's error state: LAPACK's failure flag raises LinAlgError(message)
    and the rounding flags of the factorization are ignored."""
    def raise_error(err, flag):
        raise LinAlgError(message)

    return np.errstate(
        call=raise_error, invalid="call", over="ignore", divide="ignore", under="ignore"
    )


@_lapack_errstate("Incorrect argument found while performing QR factorization")
def qr_in_place(a: np.ndarray) -> None:
    """Householder QR of a float64 matrix a, written over a as LAPACK's
    geqrf leaves it: R on and above the diagonal, the reflectors below.
    np.triu(a[:min(a.shape)]) is the R of np.linalg.qr with mode "r"."""
    _umath_linalg.qr_r_raw(a, signature="d->d")


@_lapack_errstate("Singular matrix")
def inv(a: np.ndarray) -> np.ndarray:
    """The inverse of a square float64 a, as np.linalg.inv gives it."""
    return _umath_linalg.inv(a, signature="d->d")


@_lapack_errstate("Singular matrix")
def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of a z = b for a square float64 a, as np.linalg.solve gives
    it; b holds one right-hand side (1-D) or one per column (2-D)."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    return gufunc(a, b, signature="dd->d")


@_lapack_errstate("Matrix is not positive definite")
def cholesky(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of a square float64 a, as np.linalg.cholesky
    gives it."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


def slogdet(a: np.ndarray) -> tuple[np.floating, np.floating]:
    """(sign, log |det a|) of a square float64 a, as np.linalg.slogdet gives
    them. np.linalg sets no error state for it either; a singular a gives
    (0, -inf)."""
    return _umath_linalg.slogdet(a, signature="d->dd")
