"""Sampling operators: full, Gaussian compressive, and entry-wise missing.

Each operator maps an ambient n-vector to an m-vector of measurements and
stands for one fixed m x n matrix. Full and entry-wise operators are
immutable. A Gaussian operator is the same fixed matrix revealed only
where it is asked: it draws the products a caller requests and keeps them,
so every later answer agrees with every earlier one. The random generator
passed to a constructor is owned by the caller; a Gaussian operator keeps
a private child of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# A part of a query outside the revealed directions whose norm is at most
# this fraction of the query's norm is rounding error, not a new direction
# (v_par lies in span(U); a step's residual repeats the one delta_term
# revealed). Revealing it would draw fresh random numbers for noise, and
# the matrix would then depend on rounding.
DROP_RTOL = 1e-12

# A Cholesky factor further than this from the identity (entrywise) means
# its input was not close to orthonormal, so one CholeskyQR pass is not
# accurate to rounding.
_NEAR_IDENTITY = 0.1


@dataclass(frozen=True)
class FullSampling:
    """Identity measurements: every coordinate observed."""

    n: int

    @property
    def m(self) -> int:
        return self.n


@dataclass(eq=False)
class GaussianSampling:
    """m x n matrix A with i.i.d. N(0, 1/n) entries, revealed on demand.

    The distribution of A does not change under rotation (Halko,
    Martinsson & Tropp, arXiv:0909.4061), so A is never drawn. The operator
    keeps G = A Q for an orthonormal basis Q (n x k) of the ambient
    directions queried so far, and H = A^T Y for an orthonormal basis Y
    (m x j) of the queried measurement directions. Given all of that, the
    block of A between the complements of Q and Y is still i.i.d.
    N(0, 1/n), so a query in new directions is answered exactly in
    distribution from fresh draws and appended to the memo.

    A query of p columns costs O((n + m)(k + j) p + n p^2) plus m p (or
    n p) normal draws for its new directions, instead of the m n draws of
    the dense matrix.
    """

    m: int
    n: int
    rng: np.random.Generator = field(repr=False)
    Q: np.ndarray = field(init=False, repr=False)
    G: np.ndarray = field(init=False, repr=False)
    Y: np.ndarray = field(init=False, repr=False)
    H: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.Q = np.zeros((self.n, 0))
        self.G = np.zeros((self.m, 0))
        self.Y = np.zeros((self.m, 0))
        self.H = np.zeros((self.n, 0))

    def _times(self, W: np.ndarray) -> np.ndarray:
        """A W for an n x p block W."""
        self.Q, self.G = _reveal(self.Q, self.G, self.Y, self.H, W, self.rng, self.n)
        return self.G @ (self.Q.T @ W)

    def _transpose_times(self, Z: np.ndarray) -> np.ndarray:
        """A^T Z for an m x p block Z."""
        self.Y, self.H = _reveal(self.Y, self.H, self.Q, self.G, Z, self.rng, self.n)
        return self.H @ (self.Y.T @ Z)


def _reveal(basis, image, dual_basis, dual_image, W, rng, n):
    """Extend a memo (basis, image = A basis) by the new directions of W.

    Serves A (basis Q, image G, dual Y, H) and A^T (basis Y, image H,
    dual Q, G) alike. For new orthonormal directions N outside the basis,
    the dual memo fixes dual_basis^T A N = dual_image^T N; the rest of A N
    is unseen, so it is P Z / sqrt(n) with Z standard normal and P the
    projector onto the complement of dual_basis.
    """
    new = _new_directions(basis, W)
    if new.shape[1] == 0:
        return basis, image
    # Drawn one column at a time, so a column dropped or kept at the
    # rounding threshold changes no other column's draws.
    Z = rng.standard_normal((new.shape[1], dual_basis.shape[0])).T / math.sqrt(n)
    fresh = dual_basis @ (dual_image.T @ new) + _project_out(dual_basis, Z)
    return np.hstack((basis, new)), np.hstack((image, fresh))


def _project_out(basis: np.ndarray, W: np.ndarray) -> np.ndarray:
    out = basis @ (basis.T @ W)
    return np.subtract(W, out, out=out)


def _column_norms(X: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", X, X))


def _new_directions(basis: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Orthonormal N, orthogonal to basis, with span(W) in span(basis, N).

    N is the Gram-Schmidt basis of the part of W outside the basis (the Q
    of a QR factorization with positive diagonal), so it moves continuously
    with W; singular vectors would rotate freely between near-equal
    singular values. Parts at rounding level are dropped.
    """
    X = _project_out(basis, W)
    tol = DROP_RTOL * _column_norms(W)
    keep = _column_norms(X) > tol
    if not keep.all():
        X, tol = X[:, keep], tol[keep]
    if X.shape[1] == 0:
        return X
    # CholeskyQR2 is cheap. Its second pass also re-orthogonalizes against
    # the basis: X is orthogonal to it only to rounding times |W|, and
    # dividing by a small R inflates that.
    N = _cholesky_q(X, max_dev=np.inf)
    if N is not None:
        N = _cholesky_q(_project_out(basis, N), max_dev=_NEAR_IDENTITY)
    if N is not None:
        return N
    # X is ill conditioned or rank deficient: one column at a time, each
    # projected twice, dropping any column that is spanned to rounding.
    out = basis
    for x, col_tol in zip(X.T, tol):
        x = _project_out(out, _project_out(out, x))
        norm = np.linalg.norm(x)
        if norm > col_tol:
            out = np.column_stack((out, x / norm))
    return out[:, basis.shape[1]:]


def _cholesky_q(X: np.ndarray, max_dev: float) -> np.ndarray | None:
    """X R^-1 for the Cholesky factor R of X^T X, i.e. the Q of X = Q R.

    None when the Cholesky factorization fails or R is further than
    max_dev from the identity.
    """
    try:
        L = np.linalg.cholesky(X.T @ X)
    except np.linalg.LinAlgError:
        return None
    if np.abs(L - np.eye(L.shape[0])).max(initial=0.0) > max_dev:
        return None
    return X @ np.linalg.inv(L.T)


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
    """A Gaussian operator drawing from a child of rng (rng's stream is not advanced)."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return GaussianSampling(m=m, n=n, rng=rng.spawn(1)[0])


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
        return op._times(np.asarray(v, dtype=np.float64)[:, None])[:, 0]
    return np.asarray(v, dtype=np.float64)[op.indices]


def adjoint(op: SamplingOperator, y: np.ndarray) -> np.ndarray:
    """Transpose action, lifting measurements back to the ambient space.

    For entry-wise sampling, duplicated indices accumulate.
    """
    if isinstance(op, FullSampling):
        return np.asarray(y, dtype=np.float64)
    if isinstance(op, GaussianSampling):
        return op._transpose_times(np.asarray(y, dtype=np.float64)[:, None])[:, 0]
    return np.bincount(op.indices, weights=y, minlength=op.n)


def restrict_basis(op: SamplingOperator, U: np.ndarray) -> np.ndarray:
    """The m x d matrix obtained by applying the operator to each column of U."""
    if isinstance(op, FullSampling):
        return U
    if isinstance(op, GaussianSampling):
        return op._times(np.asarray(U, dtype=np.float64))
    return U[op.indices]
