"""Seeded synthetic ground truths and observation streams.

Ground-truth subspaces are either dense Gaussian or sparse (per-entry
Bernoulli support with Gaussian values); each streamed vector is a fresh
isotropic combination of the truth's columns, observed through a fresh
sampling operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics, numerics, sampling
from .numerics import RankDeficient

_SPARSE_MAX_REDRAWS = 100


class GenerationFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class GroundTruth:
    Ubar: np.ndarray
    kind: str  # "dense" or "sparse"
    mu0: float  # cached subspace incoherence of Ubar

    @property
    def n(self) -> int:
        return self.Ubar.shape[0]

    @property
    def d(self) -> int:
        return self.Ubar.shape[1]


@dataclass(frozen=True)
class StreamSample:
    """One observation: hidden vector v, operator, and measurements x = op(v).

    v is retained so ground-truth diagnostics stay computable.
    """

    op: sampling.SamplingOperator
    x: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class OpSpec:
    """Which operator to draw per observation: 'full', 'gaussian', or 'entrywise'."""

    kind: str
    m: int | None = None  # measurements per vector; ignored for 'full'

    def __post_init__(self):
        if self.kind not in ("full", "gaussian", "entrywise"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind != "full" and (self.m is None or self.m < 1):
            raise ValueError("undersampled operators need m >= 1")

    def draw(self, n: int, rng: np.random.Generator) -> sampling.SamplingOperator:
        if self.kind == "full":
            return sampling.make_full(n)
        if self.kind == "gaussian":
            return sampling.make_gaussian(self.m, n, rng)
        return sampling.make_entrywise(self.m, n, rng)


def gen_dense_truth(n: int, d: int, rng: np.random.Generator) -> GroundTruth:
    """Orthonormalized n x d standard-normal matrix."""
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    Ubar = numerics.orthonormalize(rng.standard_normal((n, d)))
    return GroundTruth(Ubar=Ubar, kind="dense", mu0=metrics.subspace_incoherence(Ubar))


def gen_sparse_truth(n: int, d: int, rng: np.random.Generator) -> GroundTruth:
    """Orthonormalized sparse matrix: each entry nonzero w.p. density.

    density = min(1, max(4 log n, 2 d) / n); the constant 4 keeps the
    expected nonzeros per column comfortably above d at the sizes used in
    the experiments. Nonzero values are standard normal. Redraws on rank
    deficiency, up to a fixed limit.
    """
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    density = min(1.0, max(4.0 * math.log(n), 2.0 * d) / n)
    for _ in range(_SPARSE_MAX_REDRAWS):
        mask = rng.random((n, d)) < density
        M = np.where(mask, rng.standard_normal((n, d)), 0.0)
        try:
            Ubar = numerics.orthonormalize(M)
        except RankDeficient:
            continue
        return GroundTruth(
            Ubar=Ubar, kind="sparse", mu0=metrics.subspace_incoherence(Ubar)
        )
    raise GenerationFailed(
        f"sparse truth rank deficient after {_SPARSE_MAX_REDRAWS} redraws "
        f"(n={n}, d={d}, density={density})"
    )


def gen_coefficients(d: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. standard-normal combination coefficients."""
    return rng.standard_normal(d)


def gen_stream(
    truth: GroundTruth,
    op_spec: OpSpec,
    T: int,
    rng: np.random.Generator,
):
    """Yield T observations with a fresh operator and coefficients each."""
    if op_spec.m is not None and op_spec.m > truth.n:
        raise ValueError("m must not exceed the ambient dimension")
    for _ in range(T):
        v = truth.Ubar @ gen_coefficients(truth.d, rng)
        op = op_spec.draw(truth.n, rng)
        x = sampling.apply(op, v)
        yield StreamSample(op=op, x=x, v=v)


def trial_rng(base_seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible per-trial stream regardless of scheduling."""
    return np.random.default_rng([base_seed, trial_index])


def perturb_within_region(
    Ubar: np.ndarray, target_frob_discrepancy: float, rng: np.random.Generator
) -> np.ndarray:
    """Rotate the truth into a basis at a prescribed Frobenius discrepancy.

    Each of min(d, n-d) directions is tilted into the orthogonal
    complement by an angle; the squared sines sum to the target exactly,
    so the result sits on a prescribed level set of the discrepancy.
    """
    n, d = Ubar.shape
    k = min(d, n - d)
    if not 0.0 <= target_frob_discrepancy <= k - 1e-9:
        raise ValueError(
            f"target must lie in [0, {k} - 1e-9], got {target_frob_discrepancy}"
        )
    if target_frob_discrepancy == 0.0:
        return Ubar.copy()
    # Orthonormal directions in the complement of span(Ubar).
    G = rng.standard_normal((n, k))
    G -= Ubar @ (Ubar.T @ G)
    W = numerics.orthonormalize(G)
    weights = rng.dirichlet(np.ones(k)) * target_frob_discrepancy
    if np.max(weights) >= 1.0:
        weights = np.full(k, target_frob_discrepancy / k)
    U = Ubar.copy()
    sines = np.sqrt(weights)
    cosines = np.sqrt(1.0 - weights)
    U[:, :k] = Ubar[:, :k] * cosines + W * sines
    return U
