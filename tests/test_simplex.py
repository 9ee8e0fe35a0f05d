"""Difference tables, simplex gradients and Hessians, frame constructions."""

import numpy as np
import pytest

from dfoq import linalg, testbed
from dfoq.errors import EvaluationError, InvalidInputError
from dfoq.models import build_qs, qs_preset
from dfoq.sample_sets import SampleSet
from dfoq.simplex import (
    DirectionPack,
    Oracle,
    centred_gsg,
    delta_delta_f,
    delta_f,
    gsg,
    gsh,
    shifted_frame,
)

TOL = 1e-12


def sphere(x):
    return float(np.dot(x, x))


def ones_sq(x):
    return float(np.sum(x)) ** 2


def test_oracle_caches_and_counts():
    calls = Oracle(sphere)
    x = np.array([1.0, 2.0])
    assert calls(x) == calls(x) == 5.0
    assert calls.calls == 1
    assert calls.cache_size == 1
    calls(np.array([0.0, 0.0]))
    assert calls.calls == 2


def test_oracle_rejects_non_finite():
    bad = Oracle(lambda x: np.inf)
    with pytest.raises(EvaluationError):
        bad(np.zeros(2))


def test_delta_f():
    assert np.array_equal(delta_f(lambda x: 7.0, np.zeros(2), np.eye(2)), np.zeros(2))
    assert np.array_equal(delta_f(sphere, np.zeros(2), np.eye(2)), np.ones(2))
    a = np.array([2.0, -3.0, 0.5])
    S = np.random.default_rng(1).standard_normal((3, 4))
    assert np.allclose(delta_f(lambda x: float(a @ x), np.zeros(3), S), S.T @ a, atol=TOL)


def test_gsg_fixtures():
    a = np.array([1.5, -2.0])
    assert np.allclose(gsg(lambda x: float(a @ x), np.zeros(2), np.eye(2)), a, atol=TOL)
    assert np.allclose(gsg(sphere, np.zeros(2), np.eye(2)), [1.0, 1.0], atol=TOL)
    assert np.allclose(gsg(sphere, np.zeros(2), -np.eye(2)), [-1.0, -1.0], atol=TOL)


def test_delta_delta_bilinear_on_quadratics():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 3))
    A = A + A.T
    S = rng.standard_normal((3, 2))
    T = rng.standard_normal((3, 4))

    def quad(x):
        return float(0.5 * x @ A @ x)

    table = delta_delta_f(quad, rng.standard_normal(3), S, T)
    assert np.allclose(table, S.T @ A @ T, atol=1e-11)


def test_delta_delta_asymmetric_fixture():
    S = np.eye(2)
    T = np.eye(2)[:, :1]
    assert np.array_equal(delta_delta_f(ones_sq, np.zeros(2), S, T), [[2.0], [2.0]])


def test_delta_delta_matches_four_point_loop():
    # every entry must equal the direct stencil evaluation bit for bit
    rng = np.random.default_rng(12)
    x0 = rng.standard_normal(3)
    S = rng.standard_normal((3, 3))
    T = rng.standard_normal((3, 2))

    def f(x):
        return float(np.sin(x[0]) * x[1] + np.exp(0.3 * x[2]))

    table = delta_delta_f(f, x0, S, T)
    for i in range(3):
        for j in range(2):
            direct = (
                f(x0 + S[:, i] + T[:, j]) - f(x0 + S[:, i]) - f(x0 + T[:, j]) + f(x0)
            )
            assert table[i, j] == direct


def test_gsh_asymmetric_fixture():
    pack = DirectionPack.shared(np.eye(2), np.eye(2)[:, :1])
    H = gsh(ones_sq, np.zeros(2), pack)
    assert np.allclose(H, [[2.0, 0.0], [2.0, 0.0]], atol=TOL)


def test_gsh_exact_on_quadratics():
    rng = np.random.default_rng(21)
    for n in (2, 4):
        A = rng.standard_normal((n, n))
        A = A + A.T
        b = rng.standard_normal(n)

        def quad(x):
            return float(0.5 * x @ A @ x + b @ x)

        pack = DirectionPack.shared(np.eye(n), np.eye(n))
        assert np.allclose(gsh(quad, rng.standard_normal(n), pack), A, atol=1e-10)


def test_gsh_per_direction_frames():
    # structured pack T_i = [-d^i] on the sphere in R^3 sees only the sampled plane
    S = np.eye(3)[:, :2]
    pack = DirectionPack(S, tuple(-S[:, i:i + 1] for i in range(2)))
    H = gsh(sphere, np.zeros(3), pack)
    assert np.allclose(H, np.diag([2.0, 2.0, 0.0]), atol=TOL)


def test_gsh_per_direction_frames_match_two_gsg_form():
    # each T_i is factored once; the rows equal the two-gsg differences bit for bit
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        S = rng.standard_normal((n, int(rng.integers(2, n + 1))))
        Ts = tuple(rng.standard_normal((n, int(rng.integers(1, n + 1)))) for _ in range(S.shape[1]))
        pack = DirectionPack(S, Ts)
        assert pack.shared_T is None
        x0 = rng.standard_normal(n)

        def f(x):
            return float(np.cos(x[0]) + x @ x * x[-1])

        rows = np.array([gsg(f, x0 + S[:, i], Ts[i]) - gsg(f, x0, Ts[i]) for i in range(S.shape[1])])
        assert np.array_equal(gsh(f, x0, pack), linalg.pinv(S.T) @ rows)


def _svd_solve(A, b):
    # Factorization.solve as it was before single-row frames took a closed
    # form: LAPACK's SVD applied factor by factor
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > linalg.rank_tolerance(A) * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return Vt.T @ (inv_s * (U.T @ b))


def _old_gsh_rows(f, x0, pack):
    """The per-direction rows of gsh through two delta_f calls and LAPACK
    solves, and the size ``max_i ||a_i|| + ||b_i||`` of the two solves."""
    rows, size = [], 0.0
    for i in range(pack.p):
        Ti = pack.Ts[i]
        a = _svd_solve(Ti.T, delta_f(f, x0 + pack.S[:, i], Ti))
        b = _svd_solve(Ti.T, delta_f(f, x0, Ti))
        rows.append(a - b)
        size = max(size, np.linalg.norm(a) + np.linalg.norm(b))
    return np.array(rows), size


def centred_packs():
    """qs:centred packs ``(S, T_i = [-d^i])`` at n = 2, 16, 64 on coordinate
    and random unit frames, radii 1 to 1e-8, with the function and centre."""
    rng = np.random.default_rng(5)
    for n in (2, 16, 64):
        for name, frame in (("trigonometric", np.eye(n)), ("quartic", rng.standard_normal((n, n)))):
            frame = frame / np.linalg.norm(frame, axis=0)
            tf = testbed.get(name, x0=[0.4] * n)
            for k in range(9):
                spec = qs_preset("centred", SampleSet(tf.x0, 10.0 ** -k * frame))
                yield tf, spec


def test_gsh_on_centred_packs_matches_the_lapack_form():
    # the closed-form row solves against LAPACK's: each row moves by a few
    # eps of its two solves, and pinv(S^T) maps the stack with norm
    # ||pinv(S^T)||; measured at most 0.35 of this bound
    eps = np.finfo(float).eps
    for tf, spec in centred_packs():
        pack = spec.pack
        f = Oracle(tf.f)
        rows, size = _old_gsh_rows(f, tf.x0, pack)
        P = linalg.pinv(pack.S.T)
        scale = np.sqrt(pack.p) * np.linalg.norm(P, 2) * size
        assert np.linalg.norm(gsh(f, tf.x0, pack) - P @ rows) <= 4 * eps * scale


def _column_loop_pack_points(pack, x0):
    # DirectionPack.points as a loop over the columns, kept as the reference:
    # x0, each x0 + s^i, the points x0 + t^j (once for a shared frame), then
    # each (x0 + s^i) + t^j, unsorted and with repeats
    pts = [x0] + [x0 + pack.S[:, i] for i in range(pack.p)]
    heads = [pack.shared_T] if pack.shared_T is not None else pack.Ts
    for T in heads:
        pts += [x0 + T[:, j] for j in range(T.shape[1])]
    for i in range(pack.p):
        s = pack.S[:, i]
        pts += [(x0 + s) + pack.Ts[i][:, j] for j in range(pack.Ts[i].shape[1])]
    return np.asarray(pts)


def test_pack_points_match_the_column_loop_bitwise():
    # signed zeros in x0, S and T: the rows keep the loop's bytes and order
    rng = np.random.default_rng(77)
    for _ in range(200):
        n, p = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        S = rng.standard_normal((n, p))
        S[rng.random((n, p)) < 0.3] = 0.0
        Ts = []
        for _ in range(p):
            T = rng.standard_normal((n, int(rng.integers(1, 4))))
            T[rng.random(T.shape) < 0.3] = -0.0
            Ts.append(T)
        x0 = rng.standard_normal(n)
        x0[rng.random(n) < 0.5] = -0.0
        pack = DirectionPack(S, tuple(Ts))
        assert pack.points(x0).tobytes() == _column_loop_pack_points(pack, x0).tobytes()
        shared = DirectionPack.shared(S, Ts[0])
        assert shared.points(x0).tobytes() == _column_loop_pack_points(shared, x0).tobytes()


def test_gsh_transpose_identity():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        S = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        T = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        x0 = rng.standard_normal(n)

        def f(x):
            return float(np.cos(x[0]) + x @ x * x[0])

        A = gsh(f, x0, DirectionPack.shared(S, T))
        B = gsh(f, x0, DirectionPack.shared(T, S))
        assert np.linalg.norm(A.T - B, "fro") <= 1e-10 * (1.0 + np.linalg.norm(A))


def test_gsh_call_count():
    # shared-T stencil touches exactly (p+1)(q+1) distinct points
    f = Oracle(sphere)
    S = np.eye(3)
    T = 0.5 * np.eye(3)[:, :2]
    gsh(f, np.full(3, 0.1), DirectionPack.shared(S, T))
    assert f.calls == (3 + 1) * (2 + 1)


def test_pack_validation():
    with pytest.raises(InvalidInputError):
        DirectionPack(np.eye(2), (np.eye(2)[:, :1],))
    with pytest.raises(InvalidInputError):
        DirectionPack(np.eye(2), (np.eye(3)[:, :1], np.eye(2)[:, :1]))
    pack = DirectionPack.shared(np.eye(2), np.eye(2))
    assert pack.shared_T is not None
    mixed = DirectionPack(np.eye(2), (np.eye(2)[:, :1], np.eye(2)[:, 1:]))
    assert mixed.shared_T is None


def test_centred_gsg():
    assert np.allclose(centred_gsg(sphere, np.zeros(2), np.eye(2)[:, :1]), np.zeros(2), atol=TOL)
    a = np.array([3.0, -1.0])
    assert np.allclose(centred_gsg(lambda x: float(a @ x), np.zeros(2), np.eye(2)), a, atol=TOL)
    # unit-step centred difference of x^3 at 0: (1 - (-1))/2 = 1, while f'(0) = 0
    est = centred_gsg(lambda x: float(x[0] ** 3), np.zeros(1), np.array([[1.0]]))
    assert est[0] == pytest.approx(1.0, abs=TOL)


def test_adapted_centred_gsg():
    # the adapted-<ell> preset's gradient
    def adapted_g(f, x0, S, ell):
        return build_qs(f, x0, qs_preset(f"adapted-{ell}", SampleSet(x0, S))).g

    assert np.allclose(adapted_g(sphere, np.zeros(2), np.eye(2), 0), np.zeros(2), atol=TOL)
    a = np.array([1.0, 2.0, 3.0])
    for ell in range(4):
        assert np.allclose(adapted_g(lambda x: float(a @ x), np.ones(3), np.eye(3), ell), a, atol=TOL)

    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    A = A + A.T
    b = rng.standard_normal(3)
    x0 = rng.standard_normal(3)

    def quad(x):
        return float(0.5 * x @ A @ x + b @ x)

    # exact gradient on quadratics for the unshifted variant
    assert np.allclose(adapted_g(quad, x0, np.eye(3), 0), A @ x0 + b, atol=1e-10)

    with pytest.raises(InvalidInputError):
        adapted_g(sphere, np.zeros(2), np.eye(2), 3)


def test_shifted_frame():
    S = np.eye(2)
    assert np.array_equal(shifted_frame(S, 0), S)
    U = shifted_frame(S, 1)
    assert np.allclose(U, np.column_stack([-S[:, 0], S[:, 1] - S[:, 0]]))

    rng = np.random.default_rng(6)
    for _ in range(5):
        M = rng.standard_normal((4, 3))
        for ell in range(4):
            U = shifted_frame(M, ell)
            # column spaces agree: compare orthogonal projectors
            Pm, _ = np.linalg.qr(M)
            Pu, _ = np.linalg.qr(U)
            assert np.allclose(Pm @ Pm.T, Pu @ Pu.T, atol=1e-10)

    with pytest.raises(InvalidInputError):
        shifted_frame(np.column_stack([np.ones(2), np.ones(2)]), 1)
    with pytest.raises(InvalidInputError):
        shifted_frame(np.eye(2), 5)
