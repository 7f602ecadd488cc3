"""Convergence and incoherence measurements against a known ground truth.

The central quantity is the determinant similarity zeta, the product of
squared principal-angle cosines between the estimated and true
subspaces. It is 1 exactly when the spans coincide and 0 when some
principal angle is a right angle. zeta is always computed in the log
domain: at realistic sizes a random starting basis has zeta far below
what a naive determinant survives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class PrincipalAngleProfile:
    """Principal-angle summary between two d-dimensional subspaces.

    cosines are descending in [0, 1]; zeta = prod cosines^2 (log-domain);
    frob_discrepancy = sum of sin^2 over all angles.
    log_zeta is -inf when the overlap matrix is exactly singular, so
    downstream ratios can report "undefined" instead of NaN.
    """

    cosines: np.ndarray
    sines: np.ndarray
    zeta: float
    log_zeta: float
    frob_discrepancy: float


def overlap_cosines(M: np.ndarray) -> np.ndarray:
    """Principal-angle cosines from the d x d overlap matrix Ubar^T U.

    They are the singular values of M, descending and clipped to [0, 1];
    excursions above 1 by rounding (<= ~1e-12) are legitimate and clipped.
    M is not checked for finiteness: callers pass an overlap matrix they
    maintain themselves.
    """
    return np.clip(np.linalg.svd(M, compute_uv=False), 0.0, 1.0)


def log_similarity(log_abs_det: float) -> float:
    """log zeta = 2 log |det M| for the d x d overlap matrix M = Ubar^T U.

    Takes log |det M| as np.linalg.slogdet(M) gives it. |det M| is the
    product of the principal-angle cosines, so this is 2 sum log cos
    without computing the angles. -inf when the determinant is exactly 0,
    i.e. some principal angle is a right angle. Capped at 0: rounding can
    put |det M| a hair above 1, but zeta never exceeds 1.
    """
    return min(2.0 * float(log_abs_det), 0.0)


def _checked_overlap(U: np.ndarray, Ubar: np.ndarray) -> np.ndarray:
    if U.shape != Ubar.shape:
        raise DimensionMismatch(f"shapes differ: {U.shape} vs {Ubar.shape}")
    M = Ubar.T @ U
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M


def principal_angles(U: np.ndarray, Ubar: np.ndarray) -> PrincipalAngleProfile:
    """Principal angles between span(U) and span(Ubar)."""
    M = _checked_overlap(U, Ubar)
    cosines = overlap_cosines(M)
    sines_sq = np.clip(1.0 - cosines**2, 0.0, 1.0)
    log_zeta = log_similarity(np.linalg.slogdet(M)[1])
    return PrincipalAngleProfile(
        cosines=cosines,
        sines=np.sqrt(sines_sq),
        zeta=float(np.exp(log_zeta)),
        log_zeta=log_zeta,
        frob_discrepancy=float(np.sum(sines_sq)),
    )


def subspace_incoherence(U: np.ndarray) -> float:
    """Spread of span(U) over coordinates: (n/d) * max_i ||P_U e_i||^2.

    1 for a maximally spread subspace, n/d for one aligned with
    coordinate axes. U must have orthonormal columns.
    """
    n, d = U.shape
    row_norms_sq = np.einsum("ij,ij->i", U, U)
    return float(n / d * np.max(row_norms_sq))


def procrustes_distance(U: np.ndarray, Ubar: np.ndarray) -> float:
    """min over orthogonal V of ||Ubar V - U||_F.

    Closed form sqrt(2 (d - sum of principal-angle cosines)); the optimal
    V aligns the bases through the SVD of Ubar^T U. Squared, it is
    sandwiched between the Frobenius discrepancy and twice it.
    """
    cosines = overlap_cosines(_checked_overlap(U, Ubar))
    d = U.shape[1]
    return float(np.sqrt(max(0.0, 2.0 * (d - np.sum(cosines)))))

