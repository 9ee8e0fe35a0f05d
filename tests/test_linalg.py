"""Pseudoinverse identities, minimum-norm solves, weighted least-norm."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dfoq import linalg
from dfoq.errors import InfeasibleError, InvalidInputError
from dfoq.sample_sets import SampleSet

from kkt_blocks import kkt_blocks, null_space_basis

REL_TOL = 1e-10
EPS = float(np.finfo(float).eps)

matrix_shapes = st.sampled_from([(3, 5), (4, 4), (5, 2), (1, 3), (6, 6)])
finite_entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_subnormal=False)


def _fro(M):
    # Frobenius norm scaled by the largest entry.  np.linalg.norm squares the
    # entries, so it reads 0 for a nonzero matrix below ~1e-162 and inf for
    # its pseudoinverse, which would make an identity pass as inf <= inf.
    peak = float(np.max(np.abs(M)))
    return 0.0 if peak == 0.0 else peak * float(np.linalg.norm(M / peak))


def _sane_scale(M):
    # near the underflow threshold 1/sigma overflows; not a domain we care about
    norm = _fro(M)
    return norm == 0.0 or norm > 1e-300


# Rounding allowance of the Moore-Penrose identities, in units of
# eps * kappa on the scale of each identity's matrix.  Over 3,000 draws of the
# strategy below on each of five seeds, the worst identity took 67 units.
MP_FACTOR = 200.0


def _moore_penrose_ratios(A, M):
    """Each Moore-Penrose residual of ``A = pinv(M)`` over its bound.

    A backward-stable pseudoinverse meets every identity to a multiple of
    ``eps * kappa``, ``kappa = ||M||_2 ||A||_2`` the condition number of the
    part of ``M`` that ``A`` inverts, on the scale of the identity's matrix
    (``||M||``, ``||A||``, and 1 for the two projectors).  ``M A M = M`` may
    also miss by the singular values at or below the cutoff, which ``pinv``
    drops by its contract.  A ratio above 1 fails.
    """
    s = np.linalg.svd(M, compute_uv=False)
    dropped = s[s <= linalg.rank_tolerance(M) * s[0]]
    missed = _fro(dropped[None, :]) if dropped.size else 0.0
    tol = MP_FACTOR * EPS * _spectral(M) * _spectral(A)
    floor = 1e-300  # a zero residual against a zero bound passes
    return (
        _fro(M @ A @ M - M) / max(missed + tol * _fro(M), floor),
        _fro(A @ M @ A - A) / max(tol * _fro(A), floor),
        _fro((M @ A).T - M @ A) / max(tol, floor),
        _fro((A @ M).T - A @ M) / max(tol, floor),
    )


def _spectral(M):
    peak = float(np.max(np.abs(M)))
    return 0.0 if peak == 0.0 else peak * float(np.linalg.norm(M / peak, 2))


def _cutoff_straddler():
    # singular values 1 and 1.5 times the cutoff 512 eps: pinv keeps the small
    # one and meets every identity exactly; a pinv that dropped it would miss
    # M A M = M by 768 eps, 3.8 times its rounding allowance
    M = np.zeros((2, 512))
    M[0, 0], M[1, 1] = 1.0, 1.5 * 512 * EPS
    return M


@settings(max_examples=60, deadline=None)
@given(M=matrix_shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=finite_entries)))
@example(M=_cutoff_straddler())
def test_moore_penrose_identities(M):
    assume(_sane_scale(M))
    assert max(_moore_penrose_ratios(linalg.pinv(M), M)) <= 1.0


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
        N = null_space_basis(A)
        for _ in range(100):
            perturbed = x + N @ rng.standard_normal(N.shape[1])
            assert np.linalg.norm(x) <= np.linalg.norm(perturbed) + 1e-12


def test_null_space_basis_orthonormal():
    A = np.array([[1.0, 1.0, 0.0]])
    N = null_space_basis(A)
    assert N.shape == (3, 2)
    assert np.allclose(N.T @ N, np.eye(2), atol=1e-14)
    assert np.allclose(A @ N, 0.0, atol=1e-14)


def test_range_residual_consistent_vs_not():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    # b in range(A): residual 0; the same off-range component as above otherwise
    fac = linalg.Factorization(A)
    assert fac.range_residual(np.array([3.0, 3.0])) <= 1e-14
    assert fac.range_residual(np.array([1.0, 2.0])) == pytest.approx(np.sqrt(2.0) / 2.0)
    assert linalg.Factorization(np.eye(2)).range_residual(np.array([5.0, -1.0])) == 0.0


def test_range_residual_ignores_conditioning():
    # badly conditioned but consistent: the recomputed solve residual would
    # inflate with cond(A), the range residual must not
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = Q @ np.diag(10.0 ** np.arange(0, -12, -2)) @ Q.T
    b = A @ rng.standard_normal(6)
    assert linalg.Factorization(A).range_residual(b) <= 1e-9 * np.linalg.norm(b)


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


def test_constrained_least_norm_takes_two_svds(monkeypatch):
    # one full SVD of A (minimum-norm point, residual and null basis) and
    # one of the reduced matrix (singular test and solve)
    rng = np.random.default_rng(8)
    A = rng.standard_normal((2, 5))
    b = rng.standard_normal(2)
    w = 0.5 + rng.random(5)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or svd(*a, **k))
    z, unique = linalg.constrained_least_norm(A, b, w)
    monkeypatch.undo()
    assert calls == [(2, 5), (3, 3)]
    # positive weights: z = W^-1 A^T (A W^-1 A^T)^-1 b
    Winv_At = A.T / w[:, None]
    assert unique
    assert np.allclose(z, Winv_At @ np.linalg.solve(A @ Winv_At, b), rtol=1e-12, atol=1e-14)


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


def _svd_apply(A, b):
    # the same pseudoinverse applied to b factor by factor, without forming it
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > linalg.rank_tolerance(A) * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return Vt.T @ (inv_s * (U.T @ b))


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
            x, _ = linalg.solve_min_norm(A, b)
            assert np.array_equal(x, _svd_apply(A, b))
            assert np.array_equal(fac.solve(b), x)
            assert _normal_residual(A, x, b) <= 1e-12


def test_factorization_non_square():
    rng = np.random.default_rng(8)
    for shape in ((7, 3), (3, 7)):
        A = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        assert np.array_equal(linalg.pinv(A), _svd_pinv(A))
        if shape[0] < shape[1]:
            # a wide matrix's thin U is square and spans its rows
            residual = linalg.Factorization(A).range_residual(b)
            assert abs(residual - _full_svd_range_residual(A, b)) <= 1e-12 * np.linalg.norm(b)
    tall = linalg.Factorization(rng.standard_normal((7, 3)))
    with pytest.raises(InvalidInputError):
        tall.range_residual(np.ones(7))
    with pytest.raises(InvalidInputError):
        linalg.Factorization(np.eye(3)).range_residual(np.ones(4))


def _symmetric_straddling_cutoff():
    # eigenvalues 1, -0.5, 3, -1.5 and 0.5 times the cutoff eps * n, then
    # three zeros, in 2x2 rotated blocks under a permutation: every entry is
    # exactly symmetric and the small blocks keep their own relative accuracy
    n = 8
    tol = np.finfo(float).eps * n

    def block(angle, a, b):
        c, s = np.cos(angle), np.sin(angle)
        R = np.array([[c, -s], [s, c]])
        B = (R * np.array([a, b])) @ R.T
        return 0.5 * (B + B.T)

    A = np.zeros((n, n))
    for k, (angle, a, b) in enumerate(((0.3, 1.0, -0.5), (0.7, 3 * tol, -1.5 * tol),
                                       (1.1, 0.5 * tol, 0.0))):
        A[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block(angle, a, b)
    perm = np.random.default_rng(1).permutation(n)
    return A[perm][:, perm]


def _symmetric_cases():
    """Exactly symmetric, mostly indefinite matrices: F_unit of general sets
    up to full-quadratic size, of plus-minus sets up to n = 64, and edge cases."""
    rng = np.random.default_rng(2026)
    for n, m in ((2, 4), (3, 9), (8, 16), (8, 44), (16, 152), (64, 128), (32, 560)):
        yield kkt_blocks(SampleSet(np.zeros(n), 1e-3 * rng.standard_normal((n, m)))).F_unit
    for n in (3, 64):
        yield kkt_blocks(SampleSet(np.zeros(n), 0.1 * np.eye(n)).expand()).F_unit
        yield kkt_blocks(SampleSet(np.zeros(n), rng.standard_normal((n, n))).expand()).F_unit
    yield _symmetric_straddling_cutoff()
    yield np.zeros((4, 4))


def _normal_residual(A, x, b):
    """Backward error of a least-squares solution: ``||A^T (A x - b)||`` over
    ``||A|| (||A|| ||x|| + ||b||)``.  It is O(eps) for a backward-stable
    solve however ill-conditioned ``A`` is."""
    nA = np.linalg.norm(A, 2)
    scale = nA * (nA * np.linalg.norm(x) + np.linalg.norm(b))
    return np.linalg.norm(A.T @ (A @ x - b)) / scale if scale else 0.0


def test_symmetric_factorization_matches_svd():
    assert linalg.Factorization.symmetric(_symmetric_straddling_cutoff()).rank == 4
    rng = np.random.default_rng(11)
    for A in _symmetric_cases():
        svd, sym = linalg.Factorization(A), linalg.Factorization.symmetric(A)
        assert sym.rank == svd.rank
        assert np.allclose((sym.U * sym.s) @ sym.Vt, A, rtol=0.0, atol=1e-12 * max(svd.s[0], 1.0))
        # pinv and solve within 1e-12 relative of the SVD path.  Two
        # backward-stable factorizations differ by about eps * kappa, so on
        # the ill-conditioned cases (kappa > 100: the F_unit of general sets
        # up to kappa ~ 1e8, of one random plus-minus frame, and the
        # straddling matrix) this bound grows as 1e-14 * kappa; the backward
        # error of solve holds at a flat 1e-12 on every case.
        kappa = svd.s[0] / svd.s[svd.rank - 1] if svd.rank else 1.0
        tol = 1e-12 if kappa <= 100.0 else 1e-14 * kappa
        want = svd.pinv()
        scale = max(np.linalg.norm(want), 1.0)
        assert np.linalg.norm(sym.pinv() - want) <= tol * scale
        inside = A @ rng.standard_normal(A.shape[1])
        for b in (rng.standard_normal(A.shape[0]), inside):
            x = want @ b
            for fac in (svd, sym):
                assert np.linalg.norm(fac.solve(b) - x) <= tol * max(np.linalg.norm(x), 1.0)
                assert _normal_residual(A, fac.solve(b), b) <= 1e-12
            assert abs(sym.range_residual(b) - svd.range_residual(b)) <= 1e-12 * np.linalg.norm(b)


def test_symmetric_factorization_and_solve_reject_bad_input():
    A = _symmetric_straddling_cutoff()
    A[0, 1] = np.nextafter(A[0, 1], np.inf)
    with pytest.raises(InvalidInputError):
        linalg.Factorization.symmetric(A)
    with pytest.raises(InvalidInputError):
        linalg.Factorization.symmetric(np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        linalg.Factorization(np.eye(3)).solve(np.ones(4))


def _vector_cases():
    """One-row and one-column matrices: zero, and one draw at entry scales
    from near the underflow of a square to near the overflow of one."""
    rng = np.random.default_rng(2027)
    for shape in ((1, 1), (1, 5), (5, 1), (1, 64), (64, 1)):
        yield np.zeros(shape)
        v = rng.standard_normal(shape)
        for scale in (1e-200, 1e-160, 1.0, 1e200):
            yield scale * v


def _close(got, want, rtol):
    return _fro(np.atleast_2d(got - want)) <= rtol * _fro(np.atleast_2d(want))


def test_vector_closed_form_matches_svd():
    # the closed form against LAPACK's SVD, read through the old formulas
    rng = np.random.default_rng(12)
    rtol = 8 * EPS
    for A in _vector_cases():
        fac = linalg.Factorization(A)
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        assert fac.U.shape == U.shape and fac.s.shape == s.shape and fac.Vt.shape == Vt.shape
        assert abs(fac.s[0] - s[0]) <= rtol * s[0]
        assert abs(linalg.matrix_norm(A, "spectral") - s[0]) <= rtol * s[0]
        assert abs(fac.cutoff - linalg.rank_tolerance(A) * s[0]) <= rtol * fac.cutoff
        want_rank = int(np.count_nonzero(s > linalg.rank_tolerance(A) * s[0]))
        assert fac.rank == linalg.numerical_rank(A) == want_rank == (0 if s[0] == 0.0 else 1)
        assert _close(fac.pinv(), _svd_pinv(A), rtol)
        assert _close(linalg.pinv(A), _svd_pinv(A), rtol)
        b = rng.standard_normal(A.shape[0])
        assert _close(fac.solve(b), _svd_apply(A, b), rtol)
        assert _close(linalg.solve_min_norm(A, b)[0], _svd_apply(A, b), rtol)
        # right-hand sides of order 1, off and in the range; the thin SVD of
        # a column gives no range residual
        inside = (A / (np.max(np.abs(A)) or 1.0)) @ rng.standard_normal(A.shape[1])
        for rhs in (b, inside):
            if A.shape[0] == 1:
                want = _full_svd_range_residual(A, rhs)
                assert abs(fac.range_residual(rhs) - want) <= 8 * EPS * np.linalg.norm(rhs)


def test_vector_closed_form_takes_no_svd(monkeypatch):
    count = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: count.append(1) or svd(*a, **k))
    for A in (np.ones((1, 7)), np.ones((7, 1))):
        linalg.Factorization(A).solve(np.ones(A.shape[0]))
        linalg.numerical_rank(A)
        linalg.matrix_norm(A, "spectral")
    assert not count
