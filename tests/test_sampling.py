from collections import Counter

import numpy as np
import pytest

from grassmann_stream import datagen, grouse, metrics, sampling


def test_full_apply_is_identity():
    op = sampling.make_full(6)
    v = np.arange(6.0)
    assert np.array_equal(sampling.apply(op, v), v)
    assert np.array_equal(sampling.adjoint(op, v), v)
    assert op.m == 6


def test_gaussian_shapes_and_scaling():
    rng = np.random.default_rng(0)
    n, m = 400, 50
    op = sampling.make_gaussian(m, n, rng)
    A = sampling.restrict_basis(op, np.eye(n))
    assert A.shape == (m, n)
    # Entries ~ N(0, 1/n): sample variance close to 1/n.
    var = A.var()
    assert abs(var - 1.0 / n) < 0.2 / n


def test_gaussian_energy_preservation_in_expectation():
    # E ||A v||^2 = (m/n) ||v||^2 for fixed unit v.
    rng = np.random.default_rng(1)
    n, m, trials = 200, 40, 2000
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    total = 0.0
    for _ in range(trials):
        op = sampling.make_gaussian(m, n, rng)
        total += np.linalg.norm(sampling.apply(op, v)) ** 2
    mean = total / trials
    assert abs(mean - m / n) < 0.02


def test_entrywise_with_replacement_has_duplicates():
    # Birthday effect: with m = n draws with replacement, the expected
    # fraction of distinct indices is about 1 - 1/e ~ 0.632.
    rng = np.random.default_rng(2)
    n = 1000
    fracs = [
        len(np.unique(sampling.make_entrywise(n, n, rng).indices)) / n
        for _ in range(50)
    ]
    assert abs(np.mean(fracs) - (1 - np.exp(-1))) < 0.02


def test_entrywise_apply_selects_entries():
    op = sampling.EntrywiseSampling(indices=np.array([2, 0, 2]), n=4)
    v = np.array([10.0, 20.0, 30.0, 40.0])
    assert np.array_equal(sampling.apply(op, v), [30.0, 10.0, 30.0])


def test_entrywise_adjoint_sums_duplicates():
    op = sampling.EntrywiseSampling(indices=np.array([1, 1]), n=3)
    y = np.array([2.0, 3.0])
    assert np.array_equal(sampling.adjoint(op, y), [0.0, 5.0, 0.0])


@pytest.mark.parametrize("kind", ["full", "gaussian", "entrywise"])
def test_adjoint_pairing(kind):
    # <A v, y> = <v, A^T y> for every operator.
    rng = np.random.default_rng(3)
    n, m = 60, 20
    if kind == "full":
        op, m_eff = sampling.make_full(n), n
    elif kind == "gaussian":
        op, m_eff = sampling.make_gaussian(m, n, rng), m
    else:
        op, m_eff = sampling.make_entrywise(m, n, rng), m
    for _ in range(20):
        v = rng.standard_normal(n)
        y = rng.standard_normal(m_eff)
        lhs = sampling.apply(op, v) @ y
        rhs = v @ sampling.adjoint(op, y)
        assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["full", "gaussian", "entrywise"])
def test_restrict_basis_matches_columnwise_apply(kind):
    rng = np.random.default_rng(4)
    n, d, m = 40, 5, 12
    U = np.linalg.qr(rng.standard_normal((n, d)))[0]
    if kind == "full":
        op = sampling.make_full(n)
    elif kind == "gaussian":
        op = sampling.make_gaussian(m, n, rng)
    else:
        op = sampling.make_entrywise(m, n, rng)
    B = sampling.restrict_basis(op, U)
    expected = np.column_stack([sampling.apply(op, U[:, j]) for j in range(d)])
    assert np.allclose(B, expected)


def test_seeded_determinism():
    n = 20
    op1 = sampling.make_gaussian(5, n, np.random.default_rng(42))
    op2 = sampling.make_gaussian(5, n, np.random.default_rng(42))
    assert np.array_equal(
        sampling.restrict_basis(op1, np.eye(n)), sampling.restrict_basis(op2, np.eye(n))
    )
    e1 = sampling.make_entrywise(5, 20, np.random.default_rng(42))
    e2 = sampling.make_entrywise(5, 20, np.random.default_rng(42))
    assert np.array_equal(e1.indices, e2.indices)


def test_make_gaussian_validates_before_touching_rng():
    with pytest.raises(ValueError):
        sampling.make_gaussian(0, 5, None)
    with pytest.raises(ValueError):
        sampling.make_gaussian(6, 5, None)


def _queries(op, rng, n, m, d):
    """A mixed sequence of forward and adjoint queries, some in earlier spans."""
    U = np.linalg.qr(rng.standard_normal((n, d)))[0]
    v = U @ rng.standard_normal(d) + 0.3 * rng.standard_normal(n)
    y = rng.standard_normal(m)
    forward = [(v, sampling.apply(op, v))]
    forward.append((U, sampling.restrict_basis(op, U)))
    adjoint = [(y, sampling.adjoint(op, y))]
    v_par, v_perp = U @ (U.T @ v), v - U @ (U.T @ v)
    forward += [(w, sampling.apply(op, w)) for w in (v_par, v_perp, U[:, 2], v)]
    r = forward[0][1] - forward[1][1] @ rng.standard_normal(d)
    adjoint += [(z, sampling.adjoint(op, z)) for z in (r, 2.0 * y - r, y)]
    forward.append((U, sampling.restrict_basis(op, U)))
    return forward, adjoint


def test_gaussian_answers_agree_across_repeated_and_mixed_queries():
    # Every answer, early or late, agrees with the matrix the operator
    # settles on once every column is revealed.
    rng = np.random.default_rng(5)
    n, m, d = 120, 30, 6
    op = sampling.make_gaussian(m, n, rng)
    forward, adjoint = _queries(op, rng, n, m, d)
    A = sampling.restrict_basis(op, np.eye(n))
    for w, answer in forward:
        assert np.allclose(answer, A @ w, rtol=0.0, atol=1e-12)
    for z, answer in adjoint:
        assert np.allclose(answer, A.T @ z, rtol=0.0, atol=1e-12)
    # Column by column agrees with the block query.
    U = forward[1][0]
    by_column = np.column_stack([sampling.apply(op, U[:, j]) for j in range(d)])
    assert np.allclose(by_column, forward[1][1], rtol=0.0, atol=1e-12)


def test_gaussian_adjoint_pairing_after_interleaved_queries():
    # <A w, z> = <w, A^T z> for every pair of answers given so far.
    rng = np.random.default_rng(6)
    n, m, d = 80, 25, 4
    op = sampling.make_gaussian(m, n, rng)
    forward, adjoint = _queries(op, rng, n, m, d)
    for _ in range(10):
        w, z = rng.standard_normal(n), rng.standard_normal(m)
        forward.append((w, sampling.apply(op, w)))
        adjoint.append((z, sampling.adjoint(op, z)))
    for w, Aw in forward:
        for z, ATz in adjoint:
            assert np.allclose(z @ Aw, w.T @ ATz, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("offset", [1.0, 1e-8, 0.0])
def test_gaussian_restriction_is_continuous(offset):
    # A step queries v, then U. Projected off v, U has d - 1 equal singular
    # values; a 1e-14 change in U must not rotate its new directions.
    rng = np.random.default_rng(7)
    n, m, d = 2000, 200, 8
    U = np.linalg.qr(rng.standard_normal((n, d)))[0]
    v = U @ rng.standard_normal(d) + offset * rng.standard_normal(n)
    answers = []
    for basis in (U, U + 1e-14 * rng.standard_normal((n, d))):
        op = sampling.make_gaussian(m, n, np.random.default_rng(8))
        sampling.apply(op, v)
        answers.append(sampling.restrict_basis(op, basis))
    assert np.abs(answers[0] - answers[1]).max() <= 1e-10


def test_gaussian_step_factors_only_the_basis_query(monkeypatch):
    # A step asks a fresh operator for A v, A U and A^T r. Only the
    # d-column query takes a factorization and an inverse; the one-column
    # queries are normalized. Far from span(U), U projected off v is
    # orthonormal to rounding after one CholeskyQR pass. Within
    # sin phi = 1e-3 of it, U loses most of one direction to v, and the
    # second pass runs.
    rng = np.random.default_rng(10)
    n, m, d = 300, 40, 5
    U = np.linalg.qr(rng.standard_normal((n, d)))[0]
    v, r = rng.standard_normal(n), rng.standard_normal(m)
    outside = rng.standard_normal(n)
    outside -= U @ (U.T @ outside)
    inside = U @ rng.standard_normal(d)
    near = inside / np.linalg.norm(inside) + 1e-3 * outside / np.linalg.norm(outside)
    calls = Counter()
    for name in ("cholesky", "inv"):
        def counting(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    for query, passes in ((v, 1), (near, 2)):
        calls.clear()
        op = sampling.make_gaussian(m, n, rng)
        sampling.apply(op, query)
        sampling.restrict_basis(op, U)
        sampling.adjoint(op, r)
        assert calls == {"cholesky": passes, "inv": passes}


@pytest.mark.parametrize("query", ["apply", "adjoint"])
def test_one_column_query_of_a_fresh_operator_takes_one_pass(query, monkeypatch):
    # Normalizing one vector against an empty memo is exact to rounding in
    # one CholeskyQR pass, whatever the vector's norm.
    rng = np.random.default_rng(11)
    n, m = 300, 40
    calls = []
    real = sampling._cholesky

    def counting(gram):
        calls.append(gram.shape)
        return real(gram)

    monkeypatch.setattr(sampling, "_cholesky", counting)
    op = sampling.make_gaussian(m, n, rng)
    size = n if query == "apply" else m
    x = rng.standard_normal(size)
    getattr(sampling, query)(op, 3.0 * x / np.linalg.norm(x))
    assert calls == [(1, 1)]


@pytest.mark.parametrize("case", ["random", "sin_1e-3", "sin_1e-6", "large_inside"])
def test_gaussian_reveal_is_orthonormal_and_consistent(case):
    # A step's two queries, A v then A U. Far from span(U) one CholeskyQR
    # pass is exact to rounding. Near it, U projected off v is far from
    # orthonormal; a query with a 1e6 component inside the memo keeps
    # under half its norm after one projection. Both need the second pass.
    rng = np.random.default_rng(14)
    n, m, d = 2000, 200, 8
    U = np.linalg.qr(rng.standard_normal((n, d)))[0]
    outside = rng.standard_normal(n)
    outside -= U @ (U.T @ outside)
    outside /= np.linalg.norm(outside)
    inside = U @ rng.standard_normal(d)
    inside /= np.linalg.norm(inside)
    v, W = rng.standard_normal(n), U
    if case.startswith("sin_"):
        sin = float(case[4:])
        v = np.sqrt(1.0 - sin**2) * inside + sin * outside
    elif case == "large_inside":
        W = U + 1e6 * (v / np.linalg.norm(v))[:, None]
    op = sampling.make_gaussian(m, n, rng)
    answers = [(v, sampling.apply(op, v)), (W, sampling.restrict_basis(op, W))]
    assert np.abs(op.Q.T @ op.Q - np.eye(op.Q.shape[1])).max() <= 1e-13
    # Row i of A is A^T e_i.
    A = np.array([sampling.adjoint(op, e) for e in np.eye(m)])
    for query, answer in answers:
        expected = A @ query
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(answer - expected).max() <= 1e-12 * scale


def _factored_cholesky_q(X, max_dev):
    """X L^-T through LAPACK's factorization and inverse at any width."""
    try:
        L = np.linalg.cholesky(X.T @ X)
    except np.linalg.LinAlgError:
        return None
    if np.abs(L - np.eye(L.shape[0])).max(initial=0.0) > max_dev:
        return None
    return X @ np.linalg.inv(L.T)


@pytest.mark.parametrize("max_dev", [np.inf, sampling._NEAR_IDENTITY])
@pytest.mark.parametrize("case", ["ordinary", "unit", "subnormal", "zero", "nan", "inf"])
def test_one_column_cholesky_q_matches_the_factorization(case, max_dev):
    x = np.random.default_rng(11).standard_normal(50)
    if case == "unit":
        x /= np.linalg.norm(x)
    elif case in ("subnormal", "zero"):
        x[:] = 0.0
        x[0] = 1e-160 if case == "subnormal" else 0.0
    elif case in ("nan", "inf"):
        x[3] = np.nan if case == "nan" else np.inf
    X = x[:, None]
    if case == "subnormal":
        assert 0.0 < (X.T @ X)[0, 0] < np.finfo(float).tiny
    with np.errstate(invalid="ignore"):
        expected = _factored_cholesky_q(X, max_dev)
        L = sampling._cholesky(X.T @ X)
        far = L is None or np.abs(L - 1.0).max() > max_dev
        got = None if far else sampling._right_divide(X, L)
    if expected is None:
        assert got is None
    else:
        assert got is not None and got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_gaussian_memo_does_not_alias_the_queries():
    # Overwriting a query after it is answered changes no later answer:
    # the operator answers bit for bit as a twin on the same seed that
    # was asked unaliased copies.
    rng = np.random.default_rng(12)
    n, m, d = 80, 20, 4
    U = np.linalg.qr(rng.standard_normal((n, d)))[0]
    v = rng.standard_normal(n)
    v0, U0 = v.copy(), U.copy()
    op, twin = (sampling.make_gaussian(m, n, np.random.default_rng(13)) for _ in range(2))
    first = sampling.apply(op, v), sampling.restrict_basis(op, U)
    v[:] = rng.standard_normal(n)
    U[:] = rng.standard_normal((n, d))
    twin_first = sampling.apply(twin, v0.copy()), sampling.restrict_basis(twin, U0.copy())
    for op_answer, twin_answer in zip(first, twin_first):
        assert np.array_equal(op_answer, twin_answer)
    for query, w in ((sampling.apply, v0), (sampling.restrict_basis, U0)):
        assert np.array_equal(query(op, w), query(twin, w))
    assert np.array_equal(
        sampling.restrict_basis(op, np.eye(n)), sampling.restrict_basis(twin, np.eye(n))
    )


def _revealed(A):
    """A Gaussian operator with every column of the dense matrix A revealed."""
    m, n = A.shape
    op = sampling.GaussianSampling(m=m, n=n, rng=np.random.default_rng(0))
    op.Q, op.G = np.eye(n), A
    return op


def _one_step_log_ratios(U, Ubar, draw_op, rng, draws):
    log_zeta = metrics.principal_angles(U, Ubar).log_zeta
    out = []
    for _ in range(draws):
        v = Ubar @ rng.standard_normal(Ubar.shape[1])
        op = draw_op()
        state = grouse.GrouseState(U=U.copy())
        grouse.step(state, op, sampling.apply(op, v))
        out.append(metrics.principal_angles(state.U, Ubar).log_zeta - log_zeta)
    return np.sort(out)


@pytest.mark.parametrize("start", ["random", "near_truth"])
def test_gaussian_step_distribution_matches_dense_sketch(start):
    # Two-sample Kolmogorov-Smirnov test of the one-step log-similarity
    # ratio from one state: lazy operators against dense m x n draws.
    rng = np.random.default_rng(9)
    n, d, m, draws = 300, 5, 40, 2000
    truth = datagen.gen_dense_truth(n, d, rng)
    if start == "random":
        U = grouse.init_random(n, d, rng).U
    else:
        U = datagen.perturb_within_region(truth.Ubar, 0.05, rng)
    lazy = _one_step_log_ratios(
        U, truth.Ubar, lambda: sampling.make_gaussian(m, n, rng), rng, draws)
    dense = _one_step_log_ratios(
        U, truth.Ubar, lambda: _revealed(rng.standard_normal((m, n)) / np.sqrt(n)),
        rng, draws)
    both = np.concatenate((lazy, dense))
    ks = np.abs(np.searchsorted(lazy, both, side="right")
                - np.searchsorted(dense, both, side="right")).max() / draws
    # Critical value at significance 1e-3: sqrt(-log(5e-4) / 2) * sqrt(2 / draws).
    assert ks < np.sqrt(-np.log(5e-4) / 2) * np.sqrt(2.0 / draws)


def test_consecutive_stream_sketches_are_uncorrelated():
    # A stream draws a fresh sketch per vector. For a fixed orthonormal U
    # the entries of sqrt(n) A_t U are then i.i.d. N(0, 1) and independent
    # across t, so at each lag the sum of the products of matching entries,
    # over the square root of their count, is a standard normal z. A sketch
    # reused along the stream makes every product a square, z ~ 50 here.
    rng = np.random.default_rng(31)
    n, d, m, steps = 60, 4, 20, 33
    truth = datagen.gen_dense_truth(n, d, rng)
    U = grouse.init_random(n, d, rng).U
    stream = datagen.gen_stream(truth, datagen.OpSpec("gaussian", m), steps, rng)
    blocks = np.array([np.sqrt(n) * sampling.restrict_basis(s.op, U) for s in stream])
    for lag in (1, 2, 3):
        products = blocks[lag:] * blocks[:-lag]
        z = products.sum() / np.sqrt(products.size)
        assert abs(z) < 5.0, (lag, z)
