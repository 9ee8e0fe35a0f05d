"""Pseudoinverse identities, minimum-norm solves, weighted least-norm."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dfoq import linalg
from dfoq.errors import InfeasibleError, InvalidInputError

REL_TOL = 1e-10

matrix_shapes = st.sampled_from([(3, 5), (4, 4), (5, 2), (1, 3), (6, 6)])
finite_entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_subnormal=False)


def _sane_scale(M):
    # all-subnormal matrices overflow 1/sigma; not a domain we care about
    norm = np.linalg.norm(M)
    return norm == 0.0 or norm > 1e-300


@settings(max_examples=60, deadline=None)
@given(shape=matrix_shapes, data=st.data())
def test_moore_penrose_identities(shape, data):
    M = data.draw(arrays(np.float64, shape, elements=finite_entries))
    assume(_sane_scale(M))
    A = linalg.pinv(M)
    scale = 1.0 + np.linalg.norm(M, "fro")
    assert np.linalg.norm(M @ A @ M - M, "fro") <= REL_TOL * scale
    assert np.linalg.norm(A @ M @ A - A, "fro") <= REL_TOL * (1.0 + np.linalg.norm(A, "fro"))
    assert np.linalg.norm((M @ A).T - M @ A, "fro") <= REL_TOL * scale
    assert np.linalg.norm((A @ M).T - A @ M, "fro") <= REL_TOL * scale


@settings(max_examples=40, deadline=None)
@given(shape=matrix_shapes, data=st.data())
def test_pinv_involution(shape, data):
    M = data.draw(arrays(np.float64, shape, elements=finite_entries))
    assume(_sane_scale(M))
    back = linalg.pinv(linalg.pinv(M))
    assert np.linalg.norm(back - M, "fro") <= REL_TOL * (1.0 + np.linalg.norm(M, "fro"))


def test_pinv_rank_one_closed_form():
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    M = np.outer(u, v)
    expected = np.outer(v, u) / (u @ u) / (v @ v)
    assert np.allclose(linalg.pinv(M), expected, atol=1e-14)


def test_pinv_zero_matrix():
    assert np.array_equal(linalg.pinv(np.zeros((2, 3))), np.zeros((3, 2)))


def test_numerical_rank():
    assert linalg.numerical_rank(np.eye(3)) == 3
    assert linalg.numerical_rank(np.outer([1.0, 1.0], [1.0, 2.0, 3.0])) == 1
    assert linalg.numerical_rank(np.zeros((2, 2))) == 0


def test_matrix_norm_kinds():
    M = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert linalg.matrix_norm(M, "op1") == np.linalg.norm(M, 1)
    assert linalg.matrix_norm(M, "opInf") == np.linalg.norm(M, np.inf)
    assert linalg.matrix_norm(M, "spectral") == np.linalg.norm(M, 2)
    assert linalg.matrix_norm(M, "frobenius") == np.linalg.norm(M, "fro")
    with pytest.raises(InvalidInputError):
        linalg.matrix_norm(M, "nuclear")


def test_input_validation():
    with pytest.raises(InvalidInputError):
        linalg.pinv(np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        linalg.pinv(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        linalg.solve_min_norm(np.eye(2), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InvalidInputError):
        linalg.rank_tolerance(np.eye(2), tol=-1.0)


def test_solve_min_norm_even_split():
    x, residual = linalg.solve_min_norm(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)
    assert residual <= 1e-14


def test_solve_min_norm_identity():
    x, residual = linalg.solve_min_norm(np.eye(2), np.array([3.0, 4.0]))
    assert np.allclose(x, [3.0, 4.0])
    assert residual == 0.0


def test_solve_min_norm_inconsistent_residual():
    # rank-1 system: least-squares projection leaves sqrt(2)/2 behind
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    x, residual = linalg.solve_min_norm(A, np.array([1.0, 2.0]))
    assert residual == pytest.approx(np.sqrt(2.0) / 2.0)
    assert x[1] == 0.0


def test_solve_min_norm_is_smallest():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.standard_normal((3, 6))
        x_true = rng.standard_normal(6)
        x, residual = linalg.solve_min_norm(A, A @ x_true)
        assert residual <= 1e-10
        N = linalg.null_space_basis(A)
        for _ in range(100):
            perturbed = x + N @ rng.standard_normal(N.shape[1])
            assert np.linalg.norm(x) <= np.linalg.norm(perturbed) + 1e-12


def test_null_space_basis_orthonormal():
    A = np.array([[1.0, 1.0, 0.0]])
    N = linalg.null_space_basis(A)
    assert N.shape == (3, 2)
    assert np.allclose(N.T @ N, np.eye(2), atol=1e-14)
    assert np.allclose(A @ N, 0.0, atol=1e-14)


def test_range_residual_consistent_vs_not():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    # b in range(A): residual 0; the same off-range component as above otherwise
    assert linalg.range_residual(A, np.array([3.0, 3.0])) <= 1e-14
    assert linalg.range_residual(A, np.array([1.0, 2.0])) == pytest.approx(np.sqrt(2.0) / 2.0)
    assert linalg.range_residual(np.eye(2), np.array([5.0, -1.0])) == 0.0


def test_range_residual_ignores_conditioning():
    # badly conditioned but consistent: the recomputed solve residual would
    # inflate with cond(A), the range residual must not
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = Q @ np.diag(10.0 ** np.arange(0, -12, -2)) @ Q.T
    b = A @ rng.standard_normal(6)
    assert linalg.range_residual(A, b) <= 1e-9 * np.linalg.norm(b)


def test_constrained_least_norm_fixtures():
    z, unique = linalg.constrained_least_norm(np.eye(2), np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    assert unique and np.allclose(z, [1.0, 2.0])

    # weights (1,4): minimize z1^2 + 4 z2^2 on z1 + z2 = 2
    z, unique = linalg.constrained_least_norm(
        np.array([[1.0, 1.0]]), np.array([2.0]), np.array([1.0, 4.0])
    )
    assert unique
    assert np.allclose(z, [8.0 / 5.0, 2.0 / 5.0], atol=1e-12)

    z, unique = linalg.constrained_least_norm(
        np.array([[1.0, -1.0]]), np.array([0.0]), np.array([1.0, 1.0])
    )
    assert unique and np.allclose(z, [0.0, 0.0], atol=1e-14)


def test_constrained_least_norm_matches_min_norm_solve():
    rng = np.random.default_rng(17)
    for _ in range(20):
        A = rng.standard_normal((3, 7))
        b = A @ rng.standard_normal(7)
        z, _ = linalg.constrained_least_norm(A, b, np.ones(7))
        x, _ = linalg.solve_min_norm(A, b)
        assert np.linalg.norm(z - x) <= 1e-10 * (1.0 + np.linalg.norm(x))


def test_constrained_least_norm_infeasible():
    with pytest.raises(InfeasibleError):
        linalg.constrained_least_norm(
            np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0]), np.ones(2)
        )


def test_constrained_least_norm_free_subspace():
    # the zero-weight coordinates are unconstrained by the objective, so the
    # reduced problem is singular; expect the min-norm representative
    z, unique = linalg.constrained_least_norm(
        np.array([[1.0, 0.0, 0.0]]), np.array([1.0]), np.array([1.0, 0.0, 0.0])
    )
    assert not unique
    assert np.allclose(z, [1.0, 0.0, 0.0], atol=1e-12)


def test_constrained_least_norm_rejects_bad_weights():
    with pytest.raises(InvalidInputError):
        linalg.constrained_least_norm(np.eye(2), np.ones(2), np.array([1.0, -1.0]))
    with pytest.raises(InvalidInputError):
        linalg.constrained_least_norm(np.eye(2), np.ones(2), np.ones(3))


def _svd_pinv(A):
    # the standalone pseudoinverse before Factorization, kept as the oracle
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((A.shape[1], A.shape[0]))
    keep = s > linalg.rank_tolerance(A) * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (Vt.T * inv_s) @ U.T


def _full_svd_range_residual(A, b):
    # the standalone range residual before Factorization (full SVD)
    U, s, _ = np.linalg.svd(A, full_matrices=True)
    rank = int(np.count_nonzero(s > linalg.rank_tolerance(A) * s[0]))
    if rank >= U.shape[1]:
        return 0.0
    return float(np.linalg.norm(U[:, rank:].T @ b))


def _square_cases():
    rng = np.random.default_rng(2024)
    for n in (3, 8, 31, 64, 200):
        A = rng.standard_normal((n, n))
        yield A                                                  # full rank
        yield A + A.T                                            # symmetric
        k = max(1, n // 3)
        yield rng.standard_normal((n, k)) @ rng.standard_normal((k, n))  # rank k
        B = rng.standard_normal((n, k))
        yield B @ B.T                                            # symmetric, rank k
    yield np.zeros((4, 4))
    yield _straddling_cutoff()


def _straddling_cutoff():
    # singular values at 3, 1.5 and 0.5 times the cutoff eps * n * sigma_max
    n = 8
    tol = np.finfo(float).eps * n
    Q1, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))
    Q2, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((n, n)))
    return (Q1 * np.array([1.0, 0.5, 3 * tol, 1.5 * tol, 0.5 * tol, 0.0, 0.0, 0.0])) @ Q2.T


def test_factorization_matches_standalone_formulas():
    assert linalg.Factorization(_straddling_cutoff()).rank == 4
    rng = np.random.default_rng(7)
    for A in _square_cases():
        fac = linalg.Factorization(A)
        assert np.array_equal(fac.pinv(), _svd_pinv(A))
        assert np.array_equal(linalg.pinv(A), _svd_pinv(A))
        assert fac.rank == linalg.numerical_rank(A)
        inside = A @ rng.standard_normal(A.shape[1])
        for b in (rng.standard_normal(A.shape[0]), inside):
            want = _full_svd_range_residual(A, b)
            assert fac.range_residual(b) == want
            assert linalg.range_residual(A, b) == want
            x, _ = linalg.solve_min_norm(A, b)
            assert np.array_equal(x, _svd_pinv(A) @ b)


def test_factorization_non_square():
    rng = np.random.default_rng(8)
    for shape in ((7, 3), (3, 7)):
        A = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        assert np.array_equal(linalg.pinv(A), _svd_pinv(A))
        # the wrapper keeps the full SVD for a non-square matrix
        assert linalg.range_residual(A, b) == _full_svd_range_residual(A, b)
        full = linalg.Factorization(A, full_matrices=True)
        assert np.allclose(full.pinv(), _svd_pinv(A), atol=1e-12)
    tall = linalg.Factorization(rng.standard_normal((7, 3)))
    with pytest.raises(InvalidInputError):
        tall.range_residual(np.ones(7))
    with pytest.raises(InvalidInputError):
        linalg.Factorization(np.eye(3)).range_residual(np.ones(4))
