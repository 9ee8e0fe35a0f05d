"""Closed-form model constructions, bilinear solves, and invariance checks."""

import numpy as np
import pytest

from dfoq import linalg
from dfoq.errors import InfeasibleError, InvalidInputError
from dfoq.models import solve_mfn, solve_mn
from dfoq.relationships import (
    BilinearProblem,
    gsh_sample_set,
    mfn_from_gsh,
    mn_coordinate_centred,
    mn_from_gsh,
    mn_shifted_frame,
    solve_bilinear_min_frobenius,
    transform_instance,
)
from dfoq.sample_sets import SampleSet
from dfoq.simplex import DirectionPack, delta_delta_f, gsh, shifted_frame

from kkt_blocks import null_space_basis

COINCIDE_TOL = 1e-9

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def sphere(x):
    return float(np.dot(np.asarray(x), np.asarray(x)))


def smooth(x):
    x = np.asarray(x)
    return float(np.sin(x[0]) + np.exp(0.3 * x[1]) + 0.5 * np.sum(x ** 2))


def test_bilinear_unconstrained_fixture():
    prob = BilinearProblem(np.eye(2), E1[:, None], np.array([[2.0], [2.0]]))
    sol = solve_bilinear_min_frobenius(prob)
    assert np.allclose(sol.H, [[2.0, 0.0], [2.0, 0.0]], atol=1e-12)
    assert sol.residual <= 1e-12


def test_bilinear_symmetric_fixture():
    prob = BilinearProblem(
        np.eye(2), E1[:, None], np.array([[2.0], [2.0]]), symmetric=True
    )
    sol = solve_bilinear_min_frobenius(prob)
    assert np.allclose(sol.H, [[2.0, 2.0], [2.0, 0.0]], atol=1e-12)
    assert np.array_equal(sol.H, sol.H.T)
    assert sol.residual <= 1e-9


def test_bilinear_symmetric_fully_determined():
    prob = BilinearProblem(np.eye(2), np.eye(2), 2.0 * np.eye(2), symmetric=True)
    sol = solve_bilinear_min_frobenius(prob)
    assert np.allclose(sol.H, 2.0 * np.eye(2), atol=1e-12)


def test_bilinear_infeasible():
    S = np.column_stack([E1, E1])
    prob = BilinearProblem(S, E1[:, None], np.array([[1.0], [2.0]]))
    with pytest.raises(InfeasibleError):
        solve_bilinear_min_frobenius(prob)
    with pytest.raises(InfeasibleError):
        solve_bilinear_min_frobenius(
            BilinearProblem(S, E1[:, None], np.array([[1.0], [2.0]]), symmetric=True)
        )


def test_bilinear_shape_validation():
    with pytest.raises(InvalidInputError):
        BilinearProblem(np.eye(2), np.eye(3), np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        BilinearProblem(np.eye(2), np.eye(2), np.zeros((3, 2)))


def _family_membership_gap(H_sym, S, T, rhs):
    # any symmetric solution differs from the pseudoinverse product by a
    # correction of the form (S^T)^+ Z (I - T T^+)
    W = H_sym - linalg.pinv(S.T) @ rhs @ linalg.pinv(T)
    P_S = S @ linalg.pinv(S)
    right = np.eye(T.shape[0]) - T @ linalg.pinv(T)
    return float(np.linalg.norm(W - P_S @ W @ right, "fro"))


def test_symmetric_solution_stays_in_correction_family():
    prob = BilinearProblem(
        np.eye(2), E1[:, None], np.array([[2.0], [2.0]]), symmetric=True
    )
    sol = solve_bilinear_min_frobenius(prob)
    assert _family_membership_gap(sol.H, prob.S, prob.T, prob.rhs) <= 1e-12

    # the characterization needs col(T) inside col(S)
    rng = np.random.default_rng(31)
    for _ in range(10):
        S = rng.standard_normal((3, 2))
        T = S @ rng.standard_normal((2, 1))
        H_true = rng.standard_normal((3, 3))
        H_true = H_true + H_true.T
        rhs = S.T @ H_true @ T
        sol = solve_bilinear_min_frobenius(BilinearProblem(S, T, rhs, symmetric=True))
        assert sol.residual <= 1e-9 * (1 + np.linalg.norm(rhs))
        assert _family_membership_gap(sol.H, S, T, rhs) <= 1e-9


def _quadratic(rng, n):
    A = rng.standard_normal((n, n))
    A = A + A.T
    b = rng.standard_normal(n)

    def f(x):
        x = np.asarray(x)
        return float(0.5 * x @ A @ x + b @ x)

    return f


def _symmetric_basis(n):
    """Frobenius-orthonormal basis of the symmetric n x n matrices."""
    basis = []
    for a in range(n):
        for b in range(a, n):
            B = np.zeros((n, n))
            B[a, b] = B[b, a] = 1.0 if a == b else np.sqrt(0.5)
            basis.append(B)
    return basis


def test_symmetric_fit_is_the_least_frobenius_symmetric_solution():
    # quadratic data on square and tall frames: the fit is symmetric, solves
    # S^T H T = R, and is Frobenius-orthogonal to every symmetric K with
    # S^T K T = 0, which makes it the solution of least Frobenius norm
    rng = np.random.default_rng(2026)
    for n in (1, 2, 3, 4):
        basis = _symmetric_basis(n)
        for p, q in dict.fromkeys([(n, n), (max(n - 1, 1), n), (max(n - 2, 1), max(n - 1, 1))]):
            for _ in range(4):
                S = rng.standard_normal((n, p))
                T = rng.standard_normal((n, q))
                f = _quadratic(rng, n)
                x0 = 0.2 * rng.standard_normal(n)
                rhs = delta_delta_f(f, x0, S, T)
                H, residual = solve_bilinear_min_frobenius(BilinearProblem(S, T, rhs, symmetric=True))
                assert np.array_equal(H, H.T)
                assert residual <= linalg.feasibility_tol(rhs.ravel())
                N = null_space_basis(np.column_stack([(S.T @ B @ T).ravel() for B in basis]))
                for c in N.T:
                    K = sum(ck * B for ck, B in zip(c, basis))
                    assert abs(np.sum(H * K)) <= 1e-10 * np.linalg.norm(H)


def test_mn_from_gsh_quadratic_exact():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([0.5, -1.0])

    def f(x):
        x = np.asarray(x)
        return float(0.5 * x @ A @ x + b @ x)

    model = mn_from_gsh(f, np.zeros(2), np.eye(2), np.eye(2))
    assert np.allclose(model.g, b, atol=1e-12)
    assert np.allclose(model.H, A, atol=1e-12)


def test_mn_from_gsh_sphere_fixture():
    model = mn_from_gsh(sphere, np.zeros(2), np.eye(2), np.eye(2))
    assert np.allclose(model.g, np.zeros(2), atol=1e-12)
    assert np.allclose(model.H, 2.0 * np.eye(2), atol=1e-12)


def _random_quadratic(rng, n):
    A = rng.standard_normal((n, n))
    A = A + A.T
    b = rng.standard_normal(n)
    c = rng.standard_normal()

    def f(x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ A @ x + b @ x + c)

    return f


def test_mn_from_gsh_matches_solver_under_recombination():
    # the stencil has more points than a quadratic has coefficients, so the
    # interpolation problem is only guaranteed feasible for quadratic f
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        f = _random_quadratic(rng, n)
        S = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        M = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        T = S @ M
        x0 = rng.standard_normal(n)
        model = mn_from_gsh(f, x0, S, T)
        Y = gsh_sample_set(x0, DirectionPack.shared(S, T))
        ref, _ = solve_mn(f, Y)
        scale = 1.0 + np.linalg.norm(ref.g) + np.linalg.norm(ref.H)
        assert np.linalg.norm(model.g - ref.g) <= COINCIDE_TOL * scale
        assert np.linalg.norm(model.H - ref.H) <= COINCIDE_TOL * scale


def test_gsh_constructions_reject_colspace_mismatch():
    S = np.eye(2)
    T = E1[:, None]
    for build in (mn_from_gsh, mfn_from_gsh):
        with pytest.raises(InvalidInputError):
            build(sphere, np.zeros(2), S, T)


def test_mfn_from_gsh_poised_and_unpoised():
    # T = S merges the pairwise sum points, leaving exactly as many points
    # as a plane quadratic has coefficients; that stencil is poised
    rng = np.random.default_rng(41)
    S = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    x0 = np.array([0.3, -0.1])
    model, trusted = mfn_from_gsh(smooth, x0, S, S)
    Y = gsh_sample_set(x0, DirectionPack.shared(S, S))
    ref, _ = solve_mfn(smooth, Y)
    assert trusted
    assert np.allclose(model.g, ref.g, atol=COINCIDE_TOL)
    assert np.allclose(model.H, ref.H, atol=COINCIDE_TOL)

    # planar stencil in R^3: Hessian still right, gradient representative not
    S3 = np.eye(3)[:, :2]
    model, trusted = mfn_from_gsh(sphere, np.zeros(3), S3, -S3)
    assert np.allclose(model.H, np.diag([2.0, 2.0, 0.0]), atol=1e-12)
    assert not trusted


def test_mfn_from_gsh_quadratic_identity_frames():
    A = np.array([[1.0, -0.5, 0.0], [-0.5, 2.0, 0.2], [0.0, 0.2, 0.7]])
    b = np.array([1.0, 0.0, -2.0])

    def f(x):
        x = np.asarray(x)
        return float(0.5 * x @ A @ x + b @ x)

    model, trusted = mfn_from_gsh(f, np.zeros(3), np.eye(3), np.eye(3))
    assert trusted
    assert np.allclose(model.g, b, atol=1e-11)
    assert np.allclose(model.H, A, atol=1e-11)


def test_mn_shifted_frame_fixtures():
    model = mn_shifted_frame(sphere, np.zeros(2), np.eye(2), 0)
    assert np.allclose(model.g, np.zeros(2), atol=1e-12)
    assert np.allclose(model.H, 2.0 * np.eye(2), atol=1e-12)

    a = np.array([3.0, -2.0])
    lin = mn_shifted_frame(lambda x: float(a @ np.asarray(x)), np.zeros(2), np.eye(2), 1)
    assert np.allclose(lin.g, a, atol=1e-11)
    assert np.allclose(lin.H, np.zeros((2, 2)), atol=1e-11)


def test_mn_shifted_frame_matches_solver():
    rng = np.random.default_rng(57)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        p = int(rng.integers(1, n + 1))
        S = rng.standard_normal((n, p))
        while linalg.numerical_rank(S) < p:
            S = rng.standard_normal((n, p))
        ell = int(rng.integers(0, p + 1))
        x0 = 0.1 * rng.standard_normal(n)
        model = mn_shifted_frame(smooth, x0, S, ell)
        pack = DirectionPack.shared(S, shifted_frame(S, ell))
        ref, _ = solve_mn(smooth, gsh_sample_set(x0, pack))
        scale = 1.0 + np.linalg.norm(ref.g) + np.linalg.norm(ref.H)
        assert np.linalg.norm(model.g - ref.g) <= COINCIDE_TOL * scale
        assert np.linalg.norm(model.H - ref.H) <= COINCIDE_TOL * scale


def test_shifted_frame_gsh_solves_symmetric_bilinear():
    # the product-form Hessian of the shifted-frame stencil is already the
    # minimum-Frobenius symmetric solution, for any smooth f
    rng = np.random.default_rng(71)
    for ell in (0, 1, 2):
        S = rng.standard_normal((3, 2)) + np.eye(3)[:, :2]
        U = shifted_frame(S, min(ell, S.shape[1]))
        x0 = 0.2 * rng.standard_normal(3)
        pack = DirectionPack.shared(S, U)
        H_stencil = gsh(smooth, x0, pack)
        rhs = delta_delta_f(smooth, x0, S, U)
        sol = solve_bilinear_min_frobenius(BilinearProblem(S, U, rhs, symmetric=True))
        assert np.allclose(sol.H, H_stencil, atol=1e-9)


def test_mn_coordinate_centred():
    model = mn_coordinate_centred(sphere, np.zeros(2), 1)
    assert np.allclose(model.g, np.zeros(2), atol=1e-12)
    assert np.allclose(model.H, np.diag([2.0, 0.0]), atol=1e-12)

    x0 = np.array([0.4, -0.2, 0.1])
    model = mn_coordinate_centred(smooth, x0, 2)
    base = smooth(x0)
    for i in range(3):
        e = np.eye(3)[:, i]
        expected = smooth(x0 + e) + smooth(x0 - e) - 2 * base if i < 2 else 0.0
        assert model.H[i, i] == pytest.approx(expected, abs=1e-12)
    off = model.H - np.diag(np.diag(model.H))
    assert np.all(off == 0.0)

    with pytest.raises(InvalidInputError):
        mn_coordinate_centred(sphere, np.zeros(2), 0)
    with pytest.raises(InvalidInputError):
        mn_coordinate_centred(sphere, np.zeros(2), 3)


def test_mn_coordinate_centred_matches_solver():
    rng = np.random.default_rng(63)
    x0 = 0.3 * rng.standard_normal(3)
    model = mn_coordinate_centred(smooth, x0, 3)
    E = np.eye(3)
    Y = SampleSet(x0, np.hstack([E, -E]))
    ref, _ = solve_mn(smooth, Y)
    assert np.allclose(model.g, ref.g, atol=COINCIDE_TOL)
    assert np.allclose(model.H, ref.H, atol=COINCIDE_TOL)


def test_transform_identity():
    S = np.eye(2)
    T = 2.0 * np.eye(2)
    S2, T2, f2 = transform_instance(S, T, np.eye(2), np.eye(2), np.eye(2), sphere, np.zeros(2))
    assert np.array_equal(S2, S)
    assert np.array_equal(T2, T)
    x = np.array([0.3, 0.7])
    assert f2(x) == sphere(x)


def test_transform_conjugates_rotation_invariant_gsh():
    rng = np.random.default_rng(83)
    theta = 0.7
    N = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    S = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    T = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    x0 = np.array([0.5, -1.0])

    def f(x):
        return float(np.sum((np.asarray(x) - x0) ** 2))

    H = gsh(f, x0, DirectionPack.shared(S, T))
    S2, T2, f2 = transform_instance(S, T, N, np.eye(2), np.eye(2), f, x0)
    H2 = gsh(f2, x0, DirectionPack.shared(S2, T2))
    assert np.allclose(H2, N @ H @ N.T, atol=1e-9)


def test_transform_permutations_leave_gsh_alone():
    rng = np.random.default_rng(97)
    S = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    T = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    x0 = np.zeros(3)
    P1 = np.eye(3)[:, [2, 0, 1]]
    P2 = np.eye(3)[:, [1, 2, 0]]
    H = gsh(smooth, x0, DirectionPack.shared(S, T))
    S2, T2, f2 = transform_instance(S, T, np.eye(3), P1, P2, smooth, x0)
    H2 = gsh(f2, x0, DirectionPack.shared(S2, T2))
    assert np.allclose(H2, H, atol=1e-10)


def test_transform_preserves_symmetry_defect():
    rng = np.random.default_rng(59)
    S = np.eye(2)
    T = np.column_stack([E1, E1 + E2])
    x0 = np.zeros(2)
    q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    H = gsh(smooth, x0, DirectionPack.shared(S, T))
    S2, T2, f2 = transform_instance(S, T, q, np.eye(2), np.eye(2), smooth, x0)
    H2 = gsh(f2, x0, DirectionPack.shared(S2, T2))
    before = np.linalg.norm(H - H.T)
    after = np.linalg.norm(H2 - H2.T)
    assert after <= before * (1 + np.linalg.norm(q, 2) ** 2) + 1e-9


def test_transform_validation():
    S = np.eye(2)
    with pytest.raises(InvalidInputError):
        transform_instance(S, S, 2.0 * np.eye(2), np.eye(2), np.eye(2), sphere, np.zeros(2))
    with pytest.raises(InvalidInputError):
        transform_instance(
            S, S, np.eye(2), np.array([[1.0, 1.0], [0.0, 0.0]]), np.eye(2), sphere, np.zeros(2)
        )
    with pytest.raises(InvalidInputError):
        transform_instance(S, S, np.eye(2), np.eye(3), np.eye(2), sphere, np.zeros(2))
