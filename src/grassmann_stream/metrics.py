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

# Cosines at or below this are treated as an exact right angle.
COSINE_FLOOR = 1e-300


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class PrincipalAngleProfile:
    """Principal-angle summary between two d-dimensional subspaces.

    cosines are descending in [0, 1]; zeta = prod cosines^2 (log-domain);
    kappa = 1 - zeta; frob_discrepancy = sum of sin^2 over all angles.
    log_zeta is -inf when the overlap matrix is exactly singular, so
    downstream ratios can report "undefined" instead of NaN.
    """

    cosines: np.ndarray
    sines: np.ndarray
    zeta: float
    log_zeta: float
    frob_discrepancy: float

    @property
    def kappa(self) -> float:
        return 1.0 - self.zeta

    @property
    def largest_angle(self) -> float:
        """phi_d, the largest principal angle, in radians."""
        return float(np.arccos(self.cosines[-1]))


def overlap_cosines(M: np.ndarray) -> np.ndarray:
    """Principal-angle cosines from the d x d overlap matrix Ubar^T U.

    They are the singular values of M, descending and clipped to [0, 1];
    excursions above 1 by rounding (<= ~1e-12) are legitimate and clipped.
    M is not checked for finiteness: callers pass an overlap matrix they
    maintain themselves.
    """
    return np.clip(np.linalg.svd(M, compute_uv=False), 0.0, 1.0)


def log_similarity(M: np.ndarray) -> float:
    """log zeta = 2 log |det M| for the d x d overlap matrix M = Ubar^T U.

    |det M| is the product of the principal-angle cosines, so this is
    2 sum log cos without computing the angles; the determinant comes from
    the LU factorization of slogdet. -inf when the determinant is exactly
    0, i.e. some principal angle is a right angle.
    """
    return log_similarity_from_logdet(float(np.linalg.slogdet(M)[1]))


def log_similarity_from_logdet(logabsdet: float) -> float:
    """log zeta from log |det M|, for callers that already ran slogdet on M.

    Capped at 0: rounding can put |det M| a hair above 1, but zeta never
    exceeds 1.
    """
    return min(2.0 * logabsdet, 0.0)


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
    log_zeta = log_similarity(M)
    return PrincipalAngleProfile(
        cosines=cosines,
        sines=np.sqrt(sines_sq),
        zeta=float(np.exp(log_zeta)),
        log_zeta=log_zeta,
        frob_discrepancy=float(np.sum(sines_sq)),
    )


def log_det_overlap(U: np.ndarray, Ubar: np.ndarray) -> tuple[float, float]:
    """(sign, log|det|) of Ubar^T U, stable for tiny determinants."""
    sign, logabs = np.linalg.slogdet(Ubar.T @ U)
    return float(sign), float(logabs)


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


def local_region_check(
    U: np.ndarray, Ubar: np.ndarray, mu0: float | None = None
) -> bool:
    """Whether U lies in the near-truth region sum sin^2 <= d*mu0/(16n).

    This is the regime in which the missing-data expected-improvement
    guarantee applies. mu0 defaults to the incoherence of Ubar.
    """
    n, d = Ubar.shape
    if mu0 is None:
        mu0 = subspace_incoherence(Ubar)
    profile = principal_angles(U, Ubar)
    return bool(profile.frob_discrepancy <= d * mu0 / (16.0 * n))
