"""Dense linear-algebra kernels with explicit numerical contracts.

Everything here operates on plain float64 numpy arrays. An "orthonormal
basis" is an n x d array whose columns satisfy ||U^T U - I||_F <=
ORTHONORMAL_TOL. The package builds its truths and starts, whose input
may be ill conditioned, through :func:`orthonormalize` (the Q of a
Householder QR) or ``datagen.perturb_within_region``.
``grouse.GrouseState`` checks the contract for the basis it is given, and
``grouse.reorthonormalize`` turns a basis that meets it into V R^-1 with
the R of :func:`qr_in_place`.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

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


class HouseholderQR(NamedTuple):
    """The Householder QR of B = Q R that a least-squares solve made, kept
    for reuse. raw is [B x] as :func:`qr_in_place` left it and tau the
    scalar factors it returned: B's d reflectors lie below the diagonal of
    raw's first d columns. R is B's d x d triangular factor, a copy, so
    that the reflectors survive."""

    raw: np.ndarray
    tau: np.ndarray
    R: np.ndarray

    def Q(self) -> np.ndarray:
        """B's m x d orthonormal factor, formed from the reflectors as
        np.linalg.qr forms it."""
        d = self.R.shape[0]
        return qr_reduced(self.raw[:, :d], self.tau[:d])


def least_squares(B: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, HouseholderQR]:
    """Unique minimizer w of ||B w - x||_2 via one QR factorization of [B x],
    returned with that factorization, so that a caller can solve against B
    again (theory.coefficient_split) without a second QR or rank test.

    Its triangular factor holds the R of B = Q R in its leading d x d
    block and Q^T x in its trailing column.

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
    if B.ndim != 2 or x.shape != B.shape[:1]:
        raise ValueError(f"shape mismatch: B {B.shape}, x {x.shape}")
    if B.shape[0] < B.shape[1]:
        raise RankDeficient(
            f"{B.shape[0]} rows cannot determine {B.shape[1]} coefficients"
        )
    d = B.shape[1]
    raw = np.empty((B.shape[0], d + 1))
    raw[:, :d], raw[:, d] = B, x
    tau = qr_in_place(raw)
    # In these d rows the reflectors lie below R's diagonal only; Q^T x is above it.
    R = raw[:d, :d].copy()
    R[_strictly_lower(d)] = 0.0
    _check_full_rank(R, RANK_RTOL, "least-squares matrix is numerically rank deficient")
    return solve(R, raw[:d, d]), HouseholderQR(raw, tau, R)


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


def project(
    V: np.ndarray, v: np.ndarray, K: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split v into its component in span(U) and the orthogonal remainder,
    for U = V, or U = V K when K is given.

    U must have orthonormal columns. Returns (U^T v, v_par, v_perp) with
    v_par = U (U^T v) and v_par + v_perp == v exactly. U itself is never
    formed: U^T v = K^T (V^T v) and v_par = V (K U^T v), in O(nd + d^2).
    """
    v = np.asarray(v, dtype=np.float64)
    U_v = V.T @ v
    if K is None:
        v_par = V @ U_v
    else:
        U_v = K.T @ U_v
        v_par = V @ (K @ U_v)
    return U_v, v_par, v - v_par


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
def qr_in_place(a: np.ndarray) -> np.ndarray:
    """Householder QR of a float64 matrix a, written over a as LAPACK's
    geqrf leaves it: R on and above the diagonal, the reflectors below.
    Returns the reflectors' scalar factors tau. np.triu(a[:min(a.shape)])
    is the R of np.linalg.qr with mode "r"."""
    return _umath_linalg.qr_r_raw(a, signature="d->d")


@_lapack_errstate("Incorrect argument found while performing QR factorization")
def qr_reduced(a: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The reduced Q of a matrix that :func:`qr_in_place` factored into a,
    with the tau it returned, as np.linalg.qr forms it (LAPACK's orgqr)."""
    return _umath_linalg.qr_reduced(a, tau, signature="dd->d")


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
