"""Sampling operators: full, Gaussian compressive, and entry-wise missing.

Each operator maps an ambient n-vector to an m-vector of measurements.
Operators are immutable after construction; the random generator used to
draw them is owned by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FullSampling:
    """Identity measurements: every coordinate observed."""

    n: int

    @property
    def m(self) -> int:
        return self.n


@dataclass(frozen=True)
class GaussianSampling:
    """Dense m x n measurement matrix with i.i.d. N(0, 1/n) entries."""

    matrix: np.ndarray

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class EntrywiseSampling:
    """m coordinates drawn from [0, n); duplicates permitted and kept.

    Sampling with replacement is the default: duplicated indices appear
    twice in the measurement vector, and the adjoint sums their
    contributions.
    """

    indices: np.ndarray = field(repr=False)
    n: int

    @property
    def m(self) -> int:
        return self.indices.shape[0]


SamplingOperator = FullSampling | GaussianSampling | EntrywiseSampling


def make_full(n: int) -> FullSampling:
    if n < 1:
        raise ValueError("n must be >= 1")
    return FullSampling(n=n)


def make_gaussian(m: int, n: int, rng: np.random.Generator) -> GaussianSampling:
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    A = rng.standard_normal((m, n)) / np.sqrt(n)
    return GaussianSampling(matrix=A)


def make_entrywise(
    m: int, n: int, rng: np.random.Generator, replace: bool = True
) -> EntrywiseSampling:
    if m < 1:
        raise ValueError("m must be >= 1")
    if not replace and m > n:
        raise ValueError("cannot draw more than n indices without replacement")
    if replace:
        idx = rng.integers(0, n, size=m)
    else:
        idx = rng.choice(n, size=m, replace=False)
    return EntrywiseSampling(indices=np.asarray(idx, dtype=np.intp), n=n)


def apply(op: SamplingOperator, v: np.ndarray) -> np.ndarray:
    """Forward action: measurements of the ambient vector v."""
    if isinstance(op, FullSampling):
        return np.asarray(v, dtype=np.float64)
    if isinstance(op, GaussianSampling):
        return op.matrix @ v
    return np.asarray(v, dtype=np.float64)[op.indices]


def adjoint(op: SamplingOperator, y: np.ndarray) -> np.ndarray:
    """Transpose action, lifting measurements back to the ambient space.

    For entry-wise sampling, duplicated indices accumulate.
    """
    if isinstance(op, FullSampling):
        return np.asarray(y, dtype=np.float64)
    if isinstance(op, GaussianSampling):
        return op.matrix.T @ y
    out = np.zeros(op.n)
    np.add.at(out, op.indices, y)
    return out


def restrict_basis(op: SamplingOperator, U: np.ndarray) -> np.ndarray:
    """The m x d matrix obtained by applying the operator to each column of U."""
    if isinstance(op, FullSampling):
        return U
    if isinstance(op, GaussianSampling):
        return op.matrix @ U
    return U[op.indices]
