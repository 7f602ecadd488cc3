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

from . import numerics

# A part of a query outside the revealed directions whose norm is at most
# this fraction of the query's norm is rounding error, not a new direction
# (v_par lies in the span(U) a step's A U revealed). Revealing it would
# draw fresh random numbers for noise, and the matrix would then depend on
# rounding.
DROP_RTOL = 1e-12

# A Cholesky factor with rows scaled to unit norm further than this from
# the identity (entrywise) means its input's columns were not close to
# orthogonal, so one CholeskyQR pass is not accurate to rounding.
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
    the dense matrix. It makes one pass over the n x p block against the
    memo (projection, Gram, solve) and a second only when one CholeskyQR
    pass is not exact to rounding (see _new_directions); the answer comes
    from the projection's coefficients and the triangular factor. A
    one-column query (A v, A^T r) takes no matrix factorization, and an
    empty memo is not projected against; both special cases give the
    general formula's bits.
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
        self.Q, self.G, AW = _reveal(self.Q, self.G, self.Y, self.H, W, self.rng, self.n)
        return AW

    def _transpose_times(self, Z: np.ndarray) -> np.ndarray:
        """A^T Z for an m x p block Z."""
        self.Y, self.H, ATZ = _reveal(self.Y, self.H, self.Q, self.G, Z, self.rng, self.n)
        return ATZ


def _reveal(basis, image, dual_basis, dual_image, W, rng, n):
    """A W, with the memo (basis, image = A basis) extended by W's new directions.

    Serves A (basis Q, image G, dual Y, H) and A^T (basis Y, image H,
    dual Q, G) alike. For new orthonormal directions N outside the basis,
    the dual memo fixes dual_basis^T A N = dual_image^T N; the rest of A N
    is unseen, so it is P Z / sqrt(n) with Z standard normal and P the
    projector onto the complement of dual_basis. W = basis C + N R to
    rounding, so A W = image C + (A N) R.
    """
    new, C, R = _new_directions(basis, W)
    answer = image @ C
    if new.shape[1] == 0:
        return basis, image, answer
    # Drawn one column at a time, so a column dropped or kept at the
    # rounding threshold changes no other column's draws.
    Z = rng.standard_normal((new.shape[1], dual_basis.shape[0])).T / math.sqrt(n)
    # P Z + dual_basis (dual_image^T new), in one pass over dual_basis.
    fresh = _project_out(dual_basis, Z, dual_basis.T @ Z - dual_image.T @ new)
    answer += fresh @ R
    return np.hstack((basis, new)), np.hstack((image, fresh)), answer


def _project_out(basis: np.ndarray, W: np.ndarray, coef: np.ndarray | None = None) -> np.ndarray:
    """W - basis coef, as a new C-ordered array; coef defaults to basis^T W.

    An empty basis gives a copy of W. A one-column basis forms its
    rank-one term as an outer product, one rounded product per entry as
    in the matmul. Both give the general formula's bits, up to the sign
    of an entry that is exactly zero.
    """
    if basis.shape[1] == 0:
        return W.copy()
    if coef is None:
        coef = basis.T @ W
    if basis.shape[1] == 1 and W.ndim == 2:
        out = np.einsum("i,j->ij", basis[:, 0], coef[0])
    else:
        out = basis @ coef
    return np.subtract(W, out, out=out)


def _new_directions(basis: np.ndarray, W: np.ndarray):
    """N, C and R with W = basis C + N R to rounding.

    N (n x q) is orthonormal and orthogonal to the basis: the Gram-Schmidt
    basis of the part X = W - basis C of W outside it, C = basis^T W (the
    Q of a QR factorization with positive diagonal), so it moves
    continuously with W; singular vectors would rotate freely between
    near-equal singular values. Columns of W whose X is at rounding level
    are dropped and get zero columns in R.

    N is CholeskyQR's X L^-T for the Cholesky factor L of X^T X, and
    R = L^T. One pass is exact to rounding when both hold: D^-1 L lies
    within _NEAR_IDENTITY of I, for D = diag(X^T X)^1/2, so X's columns
    were orthogonal to about a tenth and N is orthonormal to rounding (a
    column scaling changes neither the rounding of the factorization nor
    that of the division, and a single column always passes); and each
    column kept at least half its squared norm, |x|^2 >= |c|^2, the test
    of Daniel, Gragg, Kaufman & Stewart (Math. Comp. 30, 1976) for one
    projection being enough, so X's rounding error against the basis is
    not inflated. Otherwise a second pass projects N again and refactors,
    as CholeskyQR2 does (Fukaya, Nakatsukasa, Yanagisawa & Yamamoto,
    2014), and its coefficients fold into C and R.
    """
    C = basis.T @ W
    X = _project_out(basis, W, C)
    # X^T X serves the drop rule and the factorization. As x is orthogonal
    # to the basis, |w|^2 = |x|^2 + |c|^2 to rounding.
    gram = X.T @ X
    x_sq, c_sq = np.diagonal(gram), np.einsum("ij,ij->j", C, C)
    tol = DROP_RTOL * np.sqrt(x_sq + c_sq)
    keep = np.sqrt(x_sq) > tol
    # The DGKS test below: each column kept at least half its squared norm.
    kept_half = x_sq >= c_sq
    if not keep.all():
        X, tol, kept_half = X[:, keep], tol[keep], kept_half[keep]
        gram = gram[np.ix_(keep, keep)]
    if X.shape[1] == 0:
        return X, C, np.zeros((0, W.shape[1]))
    N = None
    L = _cholesky(gram)
    if L is not None:
        N, R = _right_divide(X, L), L.T
        one_pass = _near_identity(L, gram) and kept_half.all()
        if not one_pass:
            C2 = basis.T @ N
            X2 = _project_out(basis, N, C2)
            gram2 = X2.T @ X2
            L2 = _cholesky(gram2)
            if L2 is not None and _near_identity(L2, gram2):
                N = _right_divide(X2, L2)
                C[:, keep] += C2 @ R
                R = L2.T @ R
            else:
                N = None
    if N is None:
        # X is ill conditioned or rank deficient: one column at a time,
        # each projected twice, dropping any column that is spanned to
        # rounding.
        out = basis
        for x, col_tol in zip(X.T, tol):
            x = _project_out(out, _project_out(out, x))
            norm = np.linalg.norm(x)
            if norm > col_tol:
                out = np.column_stack((out, x / norm))
        N = out[:, basis.shape[1]:]
        R = N.T @ X
    if not keep.all():
        R_kept, R = R, np.zeros((N.shape[1], W.shape[1]))
        R[:, keep] = R_kept
    return N, C, R


def _cholesky(gram: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor L of gram, or None when it fails.

    A 1 x 1 gram takes no factorization: L is its square root, as
    LAPACK's 1 x 1 factor computes it. As LAPACK does, it fails on a
    Gram <= 0 and lets NaN and inf through.
    """
    if gram.shape[0] == 1:
        return None if gram[0, 0] <= 0.0 else np.sqrt(gram)
    try:
        return numerics.cholesky(gram)
    except np.linalg.LinAlgError:
        return None


def _near_identity(L: np.ndarray, gram: np.ndarray) -> bool:
    """Whether D^-1 L is within _NEAR_IDENTITY of I entrywise, for the
    Cholesky factor L of gram and D = diag(gram)^1/2: the rows of D^-1 L
    are unit vectors, whatever the scale of the columns."""
    scaled = L / np.sqrt(np.diagonal(gram))[:, None]
    return not np.abs(scaled - np.eye(L.shape[0])).max(initial=0.0) > _NEAR_IDENTITY


def _right_divide(X: np.ndarray, L: np.ndarray) -> np.ndarray:
    """X L^-T for a lower-triangular L, the Q of X = Q L^T.

    A single column is scaled by 1 / L, the reciprocal LAPACK's 1 x 1
    inverse computes, and each product is added to +0.0 as the matmul
    adds it, so the bits are the same.
    """
    if X.shape[1] == 1:
        return X * (1.0 / L) + 0.0
    return X @ numerics.inv(L.T)


@dataclass(frozen=True)
class EntrywiseSampling:
    """m coordinates drawn from [0, n); duplicates permitted and kept.

    Indices are drawn with replacement: duplicated indices appear
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


def make_entrywise(m: int, n: int, rng: np.random.Generator) -> EntrywiseSampling:
    if m < 1:
        raise ValueError("m must be >= 1")
    idx = rng.integers(0, n, size=m)
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
