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
# Every REORTH_EVERY steps the basis is reorthonormalized, which bounds
# the rounding drift of U.
REORTH_EVERY = 100
# An entry-wise step multiplies the pending factor K of U = V K by
# I - (1 - cos theta) c c^T, so cond_bound = prod 1/cos(theta) over the
# steps since K was last folded bounds cond(K). A step that would take it
# to COND_LIMIT or past folds K into V and takes the dense update instead,
# since the rounding error of a factored update grows like eps cond(K).
COND_LIMIT = 100.0


class StepStatus(enum.Enum):
    UPDATED = "updated"
    SKIPPED_RANK_DEFICIENT = "skipped_rank_deficient"
    SKIPPED_ZERO_RESIDUAL = "skipped_zero_residual"
    SKIPPED_ZERO_PROJECTION = "skipped_zero_projection"
    SKIPPED_NONFINITE_INPUT = "skipped_nonfinite_input"


@dataclass
class StepReport:
    """Per-iteration diagnostics, with the B = A U the step solved against
    and its lifted residual r = A^T (x - B w), None if it stopped before them.

    When status is UPDATED, theta = arctan(norm_r / norm_p) and the basis U
    before the step gained outer(U @ update_span + (sin theta / norm_r) r,
    update_coeffs); skipped steps leave it untouched. No step writes into B,
    r or an array state.U returned.
    """

    status: StepStatus
    w: np.ndarray | None = None
    norm_p: float = 0.0
    norm_r_tilde: float = 0.0
    norm_r: float = 0.0
    theta: float = 0.0
    reorthonormalized: bool = False
    B: np.ndarray | None = field(default=None, repr=False)
    r: np.ndarray | None = field(default=None, repr=False)
    update_coeffs: np.ndarray | None = field(default=None, repr=False)
    update_span: np.ndarray | None = field(default=None, repr=False)

    def overlap_change(self, M: np.ndarray, Ubar_r: np.ndarray) -> np.ndarray:
        """Ubar^T direction, from M = Ubar^T U before the step and Ubar_r = Ubar^T r."""
        return M @ self.update_span + np.sin(self.theta) / self.norm_r * Ubar_r


class GrouseState:
    """Current basis estimate plus iteration bookkeeping.

    The basis is held as U = V K: V is n x d and K is a pending d x d
    factor, None when there is none (then U is V itself). An entry-wise
    step updates K, its inverse and the sampled rows of V only (Brand,
    Linear Algebra Appl. 415, 2006), while cond_bound stays below
    COND_LIMIT. Any other update, and every reorthonormalization, first
    folds K into V.

    U must be an orthonormal basis (see numerics); ValueError otherwise.
    Single-writer: one logical stream mutates a state sequentially.
    """

    def __init__(self, U: np.ndarray):
        drift = numerics.orthonormality_drift(U)
        if not drift <= numerics.ORTHONORMAL_TOL:
            raise ValueError(f"U is not an orthonormal basis: ||U^T U - I||_F = {drift:.3g}")
        self.V = U
        self.K: np.ndarray | None = None
        self.K_inv: np.ndarray | None = None
        # prod 1/cos(theta) over the steps K has absorbed; >= cond_2(K)
        # and < COND_LIMIT.
        self.cond_bound = 1.0
        self.steps_since_reorth = 0

    @property
    def U(self) -> np.ndarray:
        """The basis: V itself without a pending K, else a fresh V @ K.

        Reading it never changes the state.
        """
        return self.V if self.K is None else self.V @ self.K

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def d(self) -> int:
        return self.V.shape[1]


def init_random(n: int, d: int, rng: np.random.Generator) -> GrouseState:
    """State whose basis spans a uniformly random d-dimensional subspace.

    The basis is the orthonormalization of an n x d standard-normal draw.
    """
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    U = numerics.orthonormalize(rng.standard_normal((n, d)))
    return GrouseState(U=U)


def step(
    state: GrouseState,
    op: sampling.SamplingOperator,
    x: np.ndarray,
    theta: float | None = None,
) -> StepReport:
    """One update, by default with the greedy angle theta = arctan(||r|| / ||p||).

    A caller-chosen theta in [0, pi/2] replaces the greedy angle; other
    angles are mainly useful for probing the per-step similarity-ratio
    identity.
    """
    if theta is not None and not 0.0 <= theta <= np.pi / 2:
        raise ValueError("theta must lie in [0, pi/2]")
    if op.n != state.n:
        raise ValueError("operator ambient dimension does not match the state")
    x = np.asarray(x, dtype=np.float64)
    norm_x = float(np.linalg.norm(x))
    # A NaN or infinite measurement would spread into every entry of U.
    if not math.isfinite(norm_x):
        return StepReport(status=StepStatus.SKIPPED_NONFINITE_INPUT)

    B = sampling.restrict_basis(op, state.V)
    if state.K is not None:
        B = B @ state.K
    try:
        w = numerics.least_squares(B, x)
    except RankDeficient:
        return StepReport(status=StepStatus.SKIPPED_RANK_DEFICIENT, B=B)

    norm_w = float(np.linalg.norm(w))
    if norm_w <= DEGENERACY_RTOL * norm_x:
        return StepReport(status=StepStatus.SKIPPED_ZERO_PROJECTION, w=w, B=B)

    r_tilde = x - B @ w
    r = sampling.adjoint(op, r_tilde)
    norm_r_tilde = float(np.linalg.norm(r_tilde))
    norm_r = float(np.linalg.norm(r))
    # ||p|| = ||U w|| = ||w|| since the columns of U are orthonormal.
    norm_p = norm_w
    if norm_r <= DEGENERACY_RTOL * norm_x:
        return StepReport(
            status=StepStatus.SKIPPED_ZERO_RESIDUAL, w=w, norm_p=norm_p,
            norm_r_tilde=norm_r_tilde, norm_r=norm_r, B=B, r=r,
        )

    if theta is None:
        theta = float(np.arctan2(norm_r, norm_p))
    coeffs = w / norm_w
    cos_theta = np.cos(theta)
    b = np.sin(theta) / norm_r
    report = StepReport(
        status=StepStatus.UPDATED, w=w, norm_p=norm_p, norm_r_tilde=norm_r_tilde,
        norm_r=norm_r, theta=theta, B=B, r=r, update_coeffs=coeffs,
        update_span=(cos_theta - 1.0) / norm_p * w,
    )
    # Only an entry-wise r is sparse; full and Gaussian steps stay dense.
    if isinstance(op, sampling.EntrywiseSampling) and cos_theta * COND_LIMIT > state.cond_bound:
        # U' = U + (a U w + b r) c^T with c = w/||w||. As a w c^T =
        # (cos theta - 1) c c^T, K' = K (I - (1 - cos theta) c c^T) and
        # V' = V + b r c^T K'^-1, where c^T K'^-1 = c^T K^-1 / cos theta.
        if state.K is None:
            # Rows are written into a copy: a V handed out stays intact.
            state.V = state.V.copy()
            state.K, state.K_inv = np.eye(state.d), np.eye(state.d)
        c_K_inv = coeffs @ state.K_inv
        row = c_K_inv / cos_theta
        rows = op.indices
        # A repeated row gathers the same summed r twice and is written
        # twice with the same value.
        state.V[rows] += np.einsum("i,j->ij", b * r[rows], row)
        state.K -= np.einsum("i,j->ij", (1.0 - cos_theta) * (state.K @ coeffs), coeffs)
        state.K_inv += np.einsum("i,j->ij", coeffs, row - c_K_inv)
        state.cond_bound /= cos_theta
    else:
        _fold(state)
        p = state.V @ w
        direction = (cos_theta - 1.0) / norm_p * p + b * r
        # np.outer's products without its slow broadcast for a short factor;
        # the old V is added into them, so a V handed out stays intact.
        update = np.einsum("i,j->ij", direction, coeffs)
        update += state.V
        state.V = update
    state.steps_since_reorth += 1

    report.reorthonormalized = state.steps_since_reorth >= REORTH_EVERY
    if report.reorthonormalized:
        reorthonormalize(state)
    return report


def _fold(state: GrouseState) -> None:
    """Multiply a pending K into V; state.U reads the same array before and after."""
    if state.K is not None:
        state.V = state.V @ state.K
        state.K = state.K_inv = None
        state.cond_bound = 1.0


def reorthonormalize(state: GrouseState) -> None:
    """Replace the basis with a freshly orthonormalized copy of itself.

    The update rule preserves orthonormality analytically; this only
    removes accumulated floating-point drift. The span is unchanged.
    """
    _fold(state)
    state.V = numerics.orthonormalize(state.V)
    state.steps_since_reorth = 0
