import numpy as np
import pytest

from grassmann_stream import sampling


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
    assert op.matrix.shape == (m, n)
    # Entries ~ N(0, 1/n): sample variance close to 1/n.
    var = op.matrix.var()
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
    op1 = sampling.make_gaussian(5, 20, np.random.default_rng(42))
    op2 = sampling.make_gaussian(5, 20, np.random.default_rng(42))
    assert np.array_equal(op1.matrix, op2.matrix)
    e1 = sampling.make_entrywise(5, 20, np.random.default_rng(42))
    e2 = sampling.make_entrywise(5, 20, np.random.default_rng(42))
    assert np.array_equal(e1.indices, e2.indices)
