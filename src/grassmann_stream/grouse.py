"""Rank-one geodesic subspace updates driven by sampled observations.

One :func:`step` consumes a single measurement vector x = A v of a hidden
vector v, solves the restricted least-squares problem, and tilts the
current basis toward the observation along a geodesic of the manifold of
d-dimensional subspaces. Degenerate inputs are skipped, never raised: a
rare bad draw must not abort a stream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics, sampling
from .numerics import RankDeficient

# Residual / projection magnitudes at or below this fraction of ||x||
# make the update direction numerically meaningless.
DEGENERACY_RTOL = 1e-12


class StepStatus(enum.Enum):
    UPDATED = "updated"
    SKIPPED_RANK_DEFICIENT = "skipped_rank_deficient"
    SKIPPED_ZERO_RESIDUAL = "skipped_zero_residual"
    SKIPPED_ZERO_PROJECTION = "skipped_zero_projection"
    SKIPPED_NONFINITE_INPUT = "skipped_nonfinite_input"


@dataclass
class StepReport:
    """Per-iteration diagnostics.

    When status is UPDATED, theta = arctan(norm_r / norm_p) and the basis
    changed by the rank-one matrix outer(update_dir, update_coeffs).
    Skipped steps leave the basis untouched.
    """

    status: StepStatus
    w: np.ndarray | None = None
    norm_p: float = 0.0
    norm_r_tilde: float = 0.0
    norm_r: float = 0.0
    theta: float = 0.0
    reorthonormalized: bool = False
    # Rank-one factors of the applied update (ambient direction, coefficient
    # row). Exposed so callers can maintain derived products incrementally.
    update_dir: np.ndarray | None = field(default=None, repr=False)
    update_coeffs: np.ndarray | None = field(default=None, repr=False)


@dataclass
class GrouseState:
    """Current basis estimate plus iteration bookkeeping.

    Single-writer: one logical stream mutates a state sequentially.
    """

    U: np.ndarray
    t: int = 0
    steps_since_reorth: int = 0
    reorth_every: int = 100
    drift_limit: float = 1e-9
    drift_check_every: int = 25
    rank_rtol: float = numerics.RANK_RTOL

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def d(self) -> int:
        return self.U.shape[1]


def init_random(n: int, d: int, rng: np.random.Generator, **opts) -> GrouseState:
    """State whose basis spans a uniformly random d-dimensional subspace.

    The basis is the orthonormalization of an n x d standard-normal draw.
    """
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    U = numerics.orthonormalize(rng.standard_normal((n, d)))
    return GrouseState(U=U, **opts)


def step(state: GrouseState, op: sampling.SamplingOperator, x: np.ndarray) -> StepReport:
    """One update with the adaptive angle theta = arctan(||r|| / ||p||)."""
    return _step_impl(state, op, x, theta_override=None)


def step_with_angle(
    state: GrouseState,
    op: sampling.SamplingOperator,
    x: np.ndarray,
    theta_override: float,
) -> StepReport:
    """One update with a caller-chosen rotation angle in [0, pi/2].

    With the angle equal to arctan(||r|| / ||p||) this is identical to
    :func:`step`; other angles are mainly useful for probing the
    per-step similarity-ratio identity.
    """
    if not 0.0 <= theta_override <= np.pi / 2:
        raise ValueError("theta_override must lie in [0, pi/2]")
    return _step_impl(state, op, x, theta_override=theta_override)


def _step_impl(
    state: GrouseState,
    op: sampling.SamplingOperator,
    x: np.ndarray,
    theta_override: float | None,
) -> StepReport:
    if op.n != state.n:
        raise ValueError("operator ambient dimension does not match the state")
    x = np.asarray(x, dtype=np.float64)
    norm_x = float(np.linalg.norm(x))
    # A NaN or infinite measurement would spread into every entry of U.
    if not math.isfinite(norm_x):
        return StepReport(status=StepStatus.SKIPPED_NONFINITE_INPUT)

    B = sampling.restrict_basis(op, state.U)
    try:
        w = numerics.least_squares(B, x, rank_rtol=state.rank_rtol)
    except RankDeficient:
        return StepReport(status=StepStatus.SKIPPED_RANK_DEFICIENT)

    norm_w = float(np.linalg.norm(w))
    if norm_w <= DEGENERACY_RTOL * norm_x:
        return StepReport(status=StepStatus.SKIPPED_ZERO_PROJECTION, w=w)

    r_tilde = x - B @ w
    r = sampling.adjoint(op, r_tilde)
    norm_r_tilde = float(np.linalg.norm(r_tilde))
    norm_r = float(np.linalg.norm(r))
    # ||p|| = ||U w|| = ||w|| since the columns of U are orthonormal.
    norm_p = norm_w

    if norm_r <= DEGENERACY_RTOL * norm_x:
        return StepReport(
            status=StepStatus.SKIPPED_ZERO_RESIDUAL,
            w=w,
            norm_p=norm_p,
            norm_r_tilde=norm_r_tilde,
            norm_r=norm_r,
            theta=0.0,
        )

    theta = float(np.arctan2(norm_r, norm_p)) if theta_override is None else theta_override

    p = state.U @ w
    direction = (np.cos(theta) - 1.0) / norm_p * p + np.sin(theta) / norm_r * r
    coeffs = w / norm_w
    # The same products as np.outer, whose broadcast multiply is slow for
    # a short second factor.
    state.U += np.einsum("i,j->ij", direction, coeffs)
    state.t += 1
    state.steps_since_reorth += 1

    reorthed = _maybe_reorthonormalize(state)
    return StepReport(
        status=StepStatus.UPDATED,
        w=w,
        norm_p=norm_p,
        norm_r_tilde=norm_r_tilde,
        norm_r=norm_r,
        theta=theta,
        reorthonormalized=reorthed,
        update_dir=direction,
        update_coeffs=coeffs,
    )


def _maybe_reorthonormalize(state: GrouseState) -> bool:
    due = state.steps_since_reorth >= state.reorth_every
    if not due and state.steps_since_reorth % state.drift_check_every == 0:
        due = numerics.orthonormality_drift(state.U) > state.drift_limit
    if due:
        reorthonormalize(state)
    return due


def reorthonormalize(state: GrouseState) -> None:
    """Replace the basis with a freshly orthonormalized copy of itself.

    The update rule preserves orthonormality analytically; this only
    removes accumulated floating-point drift. The span is unchanged.
    """
    state.U = numerics.orthonormalize(state.U)
    state.steps_since_reorth = 0
