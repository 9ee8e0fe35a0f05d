"""Error-bound constants, directional bounds, and the measurement helpers."""

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from dfoq import bounds, linalg, testbed
from dfoq.errors import DirectionDomainError, InvalidInputError, NotPoisedError
from dfoq.models import GradTerm, QSSpec, build, qs_preset, solve_mfn, solve_mn
from dfoq.sample_sets import SampleSet
from dfoq.simplex import DirectionPack, Oracle

from kkt_blocks import kkt_blocks

EPS = float(np.finfo(float).eps)


def plus_minus_axes(n, count=None):
    E = np.eye(n)[:, : (count or n)]
    return SampleSet(np.zeros(n), np.hstack([E, -E]))


def test_kappa_generic_identity_frame():
    Y = SampleSet(np.zeros(2), np.eye(2))
    consts = bounds.kappa_generic(2.0, 2.0, Y)
    assert consts.kappa_ef == pytest.approx(2.0 * (np.sqrt(2.0) + 1.0), rel=1e-14)
    assert consts.kappa_eg == pytest.approx(2.0 * consts.kappa_ef + 4.0, rel=1e-14)
    assert consts.kappa_mH == 2.0

    zero = bounds.kappa_generic(0.0, 0.0, Y)
    assert zero.kappa_ef == 0.0 and zero.kappa_eg == 0.0

    with pytest.raises(InvalidInputError):
        bounds.kappa_generic(-1.0, 0.0, Y)


def test_kappa_generic_rejects_non_spanning_set():
    Y = plus_minus_axes(3, count=2)
    with pytest.raises(NotPoisedError):
        bounds.kappa_generic(1.0, 1.0, Y)
    # tiny but spanning directions still give constants
    assert bounds.kappa_generic(1.0, 1.0, plus_minus_axes(3).scale(1e-8)).kappa_ef > 0


def test_kappa_mfn_single_direction():
    Y = SampleSet(np.zeros(1), np.array([[1.0]]))
    # F = [[1/4, 1], [1, 0]], inverse [[0, 1], [1, -1/4]], inf-norm 5/4
    assert bounds.kappa_mH_mfn(16.0, Y) == pytest.approx(5.0, rel=1e-14)


def test_kappa_mfn_full_plus_minus_set():
    Y = plus_minus_axes(2)
    F = kkt_blocks(Y).F_unit
    expected = 0.5 * 4 * np.linalg.norm(np.linalg.inv(F), np.inf)
    assert bounds.kappa_mH_mfn(2.0, Y) == pytest.approx(expected, rel=1e-12)


def test_kappa_mfn_scale_invariant(monkeypatch):
    rng = np.random.default_rng(5)
    Y = SampleSet(rng.standard_normal(2), rng.standard_normal((2, 5)))
    base = bounds.kappa_mH_mfn(3.0, Y)
    pinvs = []
    real = linalg.Factorization.pinv
    monkeypatch.setattr(linalg.Factorization, "pinv", lambda fac: pinvs.append(1) or real(fac))
    # the rows of Y.scaled(t) are bounded with Y's constant: one call over
    # the rows reads Y's factor of F_unit and the norm of its pseudoinverse
    assert bounds.kappa_mH_mfn(np.full(3, 3.0), Y.scaled([0.25, 1e-3, 40.0]).unit).tolist() == [base] * 3
    assert pinvs == []
    monkeypatch.undo()
    for t in (0.25, 1e-3, 40.0):
        # a set made by scale() factors its own F_unit, from normalized
        # directions within an ulp of Y's
        assert bounds.kappa_mH_mfn(3.0, Y.scale(t)) == pytest.approx(base, rel=1e-9)


def test_kappa_mfn_rejects_degenerate_set():
    with pytest.raises(NotPoisedError):
        bounds.kappa_mH_mfn(1.0, plus_minus_axes(3, count=2))


def test_kappa_mn_combinations():
    assert bounds.kappa_mH_mn(0.0, 0.0, 1.0, 7.5) == 7.5
    assert bounds.kappa_mH_mn(1.0, 1.0, 2.0, 4.0) == pytest.approx(5.0, rel=1e-14)
    kg, keg, db, kmh = 0.7, 1.3, 2.2, 0.9
    assert bounds.kappa_mH_mn(kg, keg, db, kmh) == pytest.approx(
        np.hypot(kg + keg * db, kmh), rel=1e-14
    )
    Y = SampleSet(np.zeros(2), 2.0 * np.eye(2))
    with pytest.raises(InvalidInputError):
        bounds.kappa_mH_mn(1.0, 1.0, 1.0, 1.0, Y=Y)
    bounds.kappa_mH_mn(1.0, 1.0, 2.0, 1.0, Y=Y)


def test_kappa_qs_fixtures():
    n = 3
    eye_cols = tuple(np.eye(n)[:, i : i + 1] for i in range(n))
    spec = QSSpec((GradTerm(1.0),), DirectionPack(np.eye(n), eye_cols))
    assert bounds.kappa_mH_qs(5.0, spec) == pytest.approx(5.0 * np.sqrt(n), rel=1e-14)

    st = SampleSet(np.zeros(2), np.eye(2))
    assert bounds.kappa_mH_qs(2.0, qs_preset("centred", st)) == pytest.approx(
        2.0 * np.sqrt(2.0), rel=1e-14
    )


def _lapack_pinv_spectral_norm(M):
    # ||pinv(M)||_2 as kappa_mH_qs took it before: the pseudoinverse from
    # LAPACK's SVD, then the spectral norm of that
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = s > linalg.rank_tolerance(M) * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return np.linalg.norm((Vt.T * inv_s) @ U.T, 2)


def _old_kappa_mH_qs(L, spec):
    pack = spec.pack
    Sbar = pack.S / np.max(np.linalg.norm(pack.S, axis=0))
    inner = 0.0
    for T in pack.Ts:
        Tbar = T / np.max(np.linalg.norm(T, axis=0))
        inner += T.shape[1] * _lapack_pinv_spectral_norm(Tbar) ** 2
    return L * (_lapack_pinv_spectral_norm(Sbar) * np.sqrt(inner))


def test_one_column_frames_take_the_per_frame_norms_bitwise(monkeypatch):
    # qs:centred's one-column frames read ||pinv(Tbar_i)|| from one stacked
    # closed form, bit for bit the per-frame loop, and kappa_mH_qs with it;
    # no frame takes a factorization of its own
    for n, structured in ((1, True), (3, True), (16, False), (64, True), (64, False)):
        rng = np.random.default_rng(n)
        frame = np.eye(n) if structured else rng.standard_normal((n, n))
        spec = qs_preset("centred", SampleSet(np.zeros(n), 1e-3 * frame))
        Ts = spec.pack.Ts
        want = [bounds._pinv_spectral_norm(T / np.max(np.linalg.norm(T, axis=0))) for T in Ts]
        inner = 0.0
        for T, norm in zip(Ts, want):
            inner += T.shape[1] * norm ** 2
        Sbar = spec.pack.S / np.max(np.linalg.norm(spec.pack.S, axis=0))
        kappa = 2.0 * (bounds._pinv_spectral_norm(Sbar) * np.sqrt(inner))
        shapes = []
        real = linalg.Factorization.__init__
        monkeypatch.setattr(linalg.Factorization, "__init__",
                            lambda fac, M: shapes.append(np.shape(M)) or real(fac, M))
        assert bounds._frame_pinv_norms(Ts) == want
        assert bounds.kappa_mH_qs(2.0, spec) == kappa
        monkeypatch.undo()
        assert shapes == [(n, n)]  # Sbar's, in kappa_mH_qs
    # a frame of two columns takes the loop
    ragged = (np.eye(3)[:, :1], np.eye(3)[:, 1:])
    assert bounds._frame_pinv_norms(ragged) == [
        bounds._pinv_spectral_norm(T / np.max(np.linalg.norm(T, axis=0))) for T in ragged]


def test_kappa_qs_on_centred_packs_matches_the_pinv_norm_form():
    # 1 / s_min of one factor against the spectral norm of the pseudoinverse,
    # on coordinate and random frames at n = 2, 16, 64 and radii 1 to 1e-8;
    # measured at most 4.5 eps apart
    rng = np.random.default_rng(5)
    for n in (2, 16, 64):
        for frame in (np.eye(n), rng.standard_normal((n, n))):
            frame = frame / np.linalg.norm(frame, axis=0)
            for k in range(9):
                spec = qs_preset("centred", SampleSet(np.full(n, 0.4), 10.0 ** -k * frame))
                want = _old_kappa_mH_qs(3.0, spec)
                assert bounds.kappa_mH_qs(3.0, spec) == pytest.approx(want, rel=32 * EPS, abs=0.0)
    singular = QSSpec((GradTerm(1.0),), DirectionPack.shared(np.eye(2), np.ones((2, 2))))
    assert bounds.kappa_mH_qs(1.0, singular) == pytest.approx(_old_kappa_mH_qs(1.0, singular),
                                                              rel=32 * EPS)


def test_aligned_bound():
    assert bounds.directional_bound_aligned(3.0, 1.0) == 1.0
    assert bounds.directional_bound_aligned(0.0, 0.5) == 0.0
    with pytest.raises(InvalidInputError):
        bounds.directional_bound_aligned(1.0, 0.0)


def test_aligned_bound_covers_quartic_models():
    # even function on a plus-minus pair: the fitted curvature is
    # (f(d) + f(-d)) / ||d||^2 = 2 delta^2 while the true Hessian vanishes
    tf = testbed.get("quartic", dim=1, x0=np.zeros(1))
    for delta in (1.0, 0.5, 0.125):
        Y = SampleSet(np.zeros(1), np.array([[delta, -delta]]))
        L = tf.lipschitz_on(Y.x0, delta).L_hess
        assert L == pytest.approx(24.0 * delta)
        bound = bounds.directional_bound_aligned(L, delta)
        assert bound == pytest.approx(8.0 * delta ** 2)
        for solver in (solve_mn, solve_mfn):
            model, _ = solver(tf.f, Y)
            err = abs(model.H[0, 0] - tf.hess(Y.x0)[0, 0])
            assert err == pytest.approx(2.0 * delta ** 2, rel=1e-9)
            assert err <= bound


def test_cross_bound():
    assert bounds.directional_bound_cross(1.5, 3.0, 1.0, 1.0, 1.0) == pytest.approx(
        4.0 * 1.5 + 2.0
    )
    assert bounds.directional_bound_cross(0.0, 0.0, 1.0, 1.0, 1.0) == 0.0
    kef, L, d, ni, nj = 2.0, 5.0, 0.5, 0.5, 0.25
    assert bounds.directional_bound_cross(kef, L, d, ni, nj) == pytest.approx(
        4 * kef * d ** 2 / (ni * nj) + (2 * L / 3) * d ** 3 / (ni * nj)
    )
    with pytest.raises(InvalidInputError):
        bounds.directional_bound_cross(1.0, 1.0, 1.0, 0.0, 1.0)


def test_cross_bound_table_matches_scalar_calls():
    norms = np.append(np.random.default_rng(3).uniform(0.1, 3.0, 11), 1e-7)
    kef, L, d = 2.7, 5.3, 0.37
    table = bounds.directional_bound_cross(kef, L, d, norms[:, None], norms[None, :])
    assert table.shape == (12, 12)
    for i in range(12):
        for j in range(12):
            scalar = bounds.directional_bound_cross(kef, L, d, norms[i], norms[j])
            assert isinstance(scalar, float)
            assert table[i, j] == scalar
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InvalidInputError):
            bounds.directional_bound_cross(kef, L, d, np.array([1.0, bad])[:, None], norms)


def test_general_bound_at_sample_direction():
    # square frame: the expansion of d^i is exactly e^i, so the opening
    # term of the bound drops out
    rng = np.random.default_rng(8)
    D = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    radius = np.max(np.linalg.norm(D, axis=0))
    pinv_sq = linalg.matrix_norm(linalg.pinv(D / radius), "spectral") ** 2
    kef, L = 1.7, 2.4
    for i in range(D.shape[1]):
        got = bounds.directional_bound_general(kef, L, D, D[:, i])
        assert got == pytest.approx((L / 3.0) * pinv_sq * radius, rel=1e-12)


def test_general_bound_single_direction_matches_global():
    # p = 1 forces the coefficient ratio to zero, so both forms coincide
    D = np.array([[0.7]])
    kef, L = 2.0, 3.0
    at_d = bounds.directional_bound_general(kef, L, D, D[:, 0])
    assert at_d == pytest.approx(bounds.hess_error_bound_global(kef, L, D), rel=1e-12)
    assert at_d == pytest.approx(L / 3.0 * 0.7, rel=1e-12)


def test_general_bound_diagonal_direction():
    # v = (1,1)/sqrt(2): ratio (||v||_1^2 - ||v||_inf^2)/||v||^2 = 3/2
    kef, L = 1.0, 3.0
    d = np.array([1.0, 1.0]) / np.sqrt(2.0)
    got = bounds.directional_bound_general(kef, L, np.eye(2), d)
    assert got == pytest.approx(6.0 * kef + (4.0 / 3.0) * L, rel=1e-12)


def test_global_bound_dominates_directional():
    rng = np.random.default_rng(21)
    D = rng.standard_normal((3, 5))
    kef, L = 1.3, 0.8
    glob = bounds.hess_error_bound_global(kef, L, D)
    for _ in range(50):
        d = rng.standard_normal(3)
        assert bounds.directional_bound_general(kef, L, D, d) <= glob * (1 + 1e-12)


def test_general_bound_domain_errors():
    D_flat = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(DirectionDomainError):
        bounds.directional_bound_general(1.0, 1.0, D_flat, np.array([1.0, 0.0]))
    with pytest.raises(DirectionDomainError):
        bounds.hess_error_bound_global(1.0, 1.0, D_flat)
    with pytest.raises(InvalidInputError):
        bounds.directional_bound_general(1.0, 1.0, np.eye(2), np.zeros(2))


def test_gsh_bounds():
    assert bounds.directional_bound_gsh_cross(4.0, 3.0, 1.0) == pytest.approx(5.0)

    S = np.eye(3)[:, :2]
    hn, L = 2.0, 3.0
    # sample direction: ratio 0, bound (L/3) ||Sbar^+||^2 Delta_S
    got = bounds.directional_bound_gsh_general(hn, L, S, S[:, 0])
    assert got == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DirectionDomainError):
        bounds.directional_bound_gsh_general(hn, L, S, np.array([0.0, 0.0, 1.0]))

    p = S.shape[1]
    expected = (p - 1.0 / p) * hn + (L / 3.0) * (p - 1.0 / p + 1.0)
    assert bounds.gsh_error_bound_global(hn, L, S) == pytest.approx(expected, rel=1e-12)

    rng = np.random.default_rng(33)
    glob = bounds.gsh_error_bound_global(hn, L, S)
    for _ in range(50):
        d = S @ rng.standard_normal(2)
        assert bounds.directional_bound_gsh_general(hn, L, S, d) <= glob * (1 + 1e-12)


def _old_pinv_sq_and_radius(frame):
    radius = float(np.max(np.linalg.norm(frame, axis=0)))
    return linalg.matrix_norm(linalg.pinv(frame / radius), "spectral") ** 2, radius


def _old_directional_bounds(kef, L, D, d, hn):
    """The four directional bounds as each spelled its formula out before
    they shared one helper: the bitwise reference for that helper."""
    pinv_sq, radius = _old_pinv_sq_and_radius(D)
    p = D.shape[1]
    v = linalg.pinv(D) @ d
    ratio = bounds._coefficient_ratio(v)
    worst = p - 1.0 / p
    return (
        4.0 * ratio * kef * pinv_sq + (L / 3.0) * pinv_sq * (2.0 * ratio + 1.0) * radius,
        4.0 * worst * kef * pinv_sq + (L / 3.0) * pinv_sq * (2.0 * worst + 1.0) * radius,
        ratio * hn * pinv_sq + (L / 3.0) * pinv_sq * (ratio + 1.0) * radius,
        worst * hn * pinv_sq + (L / 3.0) * pinv_sq * (worst + 1.0) * radius,
    )


def test_directional_bounds_match_their_old_formulas_bitwise():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(n, 8))
        D = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-6, 1)
        d = rng.standard_normal(n)
        kef, L, hn = (0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3, 3)
                      for _ in range(3))
        want = _old_directional_bounds(kef, L, D, d, hn)
        got = (
            bounds.directional_bound_general(kef, L, D, d),
            bounds.hess_error_bound_global(kef, L, D),
            bounds.directional_bound_gsh_general(hn, L, D, d),
            bounds.gsh_error_bound_global(hn, L, D),
        )
        assert got == want, (n, p)


def test_directional_bounds_refuse_rank_deficient_frames_as_before():
    # rank n - 1 half frames: the old rank check, a values-only SVD of D,
    # refused every one, and the rank of the shared factor must too
    rng = np.random.default_rng(4321)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(n, 8))
        D = rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, p))
        D *= 10.0 ** rng.uniform(-6, 1)
        d = rng.standard_normal(n)
        assert linalg.numerical_rank(D) < n
        with pytest.raises(DirectionDomainError):
            bounds.directional_bound_general(1.0, 1.0, D, d)
        with pytest.raises(DirectionDomainError):
            bounds.hess_error_bound_global(1.0, 1.0, D)


def test_general_bound_factors_the_half_frame_once(monkeypatch):
    # one SVD of D serves the rank check and the expansion, one of D / radius
    # the pseudoinverse norm
    count = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: count.append(1) or svd(*a, **k))
    bounds.directional_bound_general(1.0, 1.0, np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 2.0]]),
                                     np.array([1.0, 1.0]))
    assert len(count) == 2


def test_kappa_mfn_matches_the_inverse_formula():
    # the formula before the bordered factor was shared: its own values-only
    # SVD for the singular test and an explicit inverse for the norm
    def old_kappa(L, Y):
        F = kkt_blocks(Y).F_unit
        s = np.linalg.svd(F, compute_uv=False)
        if s[-1] <= linalg.rank_tolerance(F) * s[0]:
            raise NotPoisedError("bordered system singular: set not poised")
        return 0.25 * L * Y.m * float(np.linalg.norm(np.linalg.inv(F), np.inf))

    rng = np.random.default_rng(77)
    sets = [plus_minus_axes(n) for n in (1, 2, 5)]
    sets += [SampleSet(np.zeros(n), rng.standard_normal((n, n))).expand() for n in (2, 8, 16)]
    sets += [SampleSet(np.zeros(n), 1e-2 * rng.standard_normal((n, m)))
             for n, m in ((2, 3), (2, 5), (4, 9), (6, 20))]
    for Y in sets:
        assert bounds.kappa_mH_mfn(2.5, Y) == pytest.approx(old_kappa(2.5, Y), rel=1e-10)
    singular = plus_minus_axes(3, count=2)
    with pytest.raises(NotPoisedError):
        old_kappa(1.0, singular)
    with pytest.raises(NotPoisedError):
        bounds.kappa_mH_mfn(1.0, singular)


def _unit_draw_reference(n, k):
    """Unit directions and radial factors of a fresh scipy scrambled-Halton
    draw with the ball sample's frozen seed."""
    u = np.clip(qmc.Halton(d=n + 1, scramble=True, seed=54709).random(k), 1e-12, 1.0 - 1e-12)
    z = ndtri(u[:, :n])
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    return z / norms[:, None], u[:, n] ** (1.0 / n)


def _ball_draw_reference(x0, delta, k):
    """Fresh scrambled-Halton draw of the ball, center first."""
    unit, rad = _unit_draw_reference(x0.size, k)
    return np.vstack([x0[None, :], x0[None, :] + unit * (delta * rad)[:, None]])


def test_ball_points_contract():
    x0 = np.array([1.0, -2.0, 0.5])
    pts = bounds.ball_points(x0, 0.75, n_samples=100)
    assert pts.shape == (101, 3)
    assert np.array_equal(pts[0], x0)
    assert np.all(np.linalg.norm(pts - x0, axis=1) <= 0.75 * (1 + 1e-12))
    again = bounds.ball_points(x0, 0.75, n_samples=100)
    assert np.array_equal(pts, again)
    with pytest.raises(InvalidInputError):
        bounds.ball_points(x0, 0.75, n_samples=0)

    # the shared draw is scaled per call exactly as a fresh draw would be
    for center in (x0, np.array([0.3, 0.0, -7.0])):
        for delta in (0.75, 3e-8):
            got = bounds.ball_points(center, delta, n_samples=100)
            assert np.array_equal(got, _ball_draw_reference(center, delta, 100))

    # the in-house Halton stream and inverse CDF are scipy's bit for bit, and
    # the draw keeps scipy's F order, on which the row norms' rounding depends
    for n in (1, 2, 3, 16, 64, 65, 100):
        for k in (1, 33, 511, 512, 513, 1024):
            for got, want in zip(bounds._unit_ball_draw(n, k), _unit_draw_reference(n, k)):
                assert np.array_equal(got, want), (n, k)
                assert got.strides == want.strides, (n, k)

    # a caller writing into its result does not reach the next call, and the
    # shared draw itself cannot be written
    pts[:] = 0.0
    assert np.array_equal(bounds.ball_points(x0, 0.75, n_samples=100), again)
    assert not any(a.flags.writeable for a in bounds._unit_ball_draw(3, 100))


def test_ndtri_is_scipys_bit_for_bit():
    # the clipped Halton inputs of every ball draw with n <= 64 (the stream
    # of a lower dimension is a prefix of the columns of a higher one)
    u = np.clip(bounds._scrambled_halton(65, 1024, 54709), 1e-12, 1.0 - 1e-12)[:, :64]
    # branch edges: the clip, exp(-2) either side, the centre, and the tail
    # switch at sqrt(-2 log y) = 8, that is y = exp(-32)
    edges = [1e-12, 0.5]
    for y in (np.exp(-2.0), np.exp(-32.0)):
        edges += [np.nextafter(y, 0.0), y, np.nextafter(y, 1.0)]
    edges += [1.0 - e for e in edges]
    tails = 10.0 ** np.random.default_rng(5).uniform(-12.0, 0.0, 20000)
    for x in (u, np.array(edges), tails, 1.0 - tails):
        got, want = bounds._ndtri(x), ndtri(x)
        assert np.array_equal(got, want)
        assert got.strides == want.strides


def test_measure_errors_exact_quadratic():
    tf = testbed.get("sphere", dim=2)
    Y = SampleSet(tf.x0, np.hstack([np.eye(2), -np.eye(2)]))
    model, _ = solve_mn(tf.f, Y)
    meas = bounds.measure_errors(tf, model, Y, n_samples=64)
    assert meas.err_f <= 1e-12
    assert meas.err_g <= 1e-12
    assert meas.aligned_max <= 1e-12
    assert meas.cross_max <= 1e-12


def test_measure_errors_reads_x0_and_the_set_from_the_model_oracle():
    # given the oracle the model was built with, only the ball's other points
    # reach tf.f, in one call on the one-row batch, and the errors are those
    # of the direct path
    tf = testbed.get("trigonometric", dim=3)
    Y = SampleSet(tf.x0, 0.1 * np.hstack([np.eye(3), -np.eye(3)]))
    f = Oracle(tf.f, vectorized=True)
    model, _ = solve_mfn(f, Y)
    direct = bounds.measure_errors(tf, model, Y, n_samples=64)
    calls, seen, real = f.calls, [], tf.f
    tf.f = lambda X: seen.append(np.shape(X)) or real(X)
    meas = bounds.measure_errors(tf, model, Y, n_samples=64, f=f)
    assert seen == [(1, 64, 3)] and f.calls == calls == Y.m + 1
    assert (meas.err_f, meas.err_g) == (direct.err_f, direct.err_g)
    assert np.array_equal(meas.aligned, direct.aligned)


def test_measure_errors_without_an_oracle_reads_f_as_the_model_did():
    # without an oracle, f at x0 and at the set's points is read as the
    # model read it, not from the F-ordered batch of every point, whose row
    # sums at n = 64 are sequential and an ulp away from the pointwise ones
    n = 64
    tf = testbed.get("trigonometric", dim=n, x0=[0.4] * n)
    for delta in (1e-6, 1e-8):
        f = Oracle(tf.f, vectorized=True)
        built = build("mfn", f, SampleSet(tf.x0, delta * np.eye(n)))
        direct = bounds.measure_errors(tf, built.model, built.Y)
        meas = bounds.measure_errors(tf, built.model, built.Y, f=f)
        assert (direct.err_f, direct.err_g) == (meas.err_f, meas.err_g)


def test_measure_errors_crafted_gap():
    from dfoq.models import QuadraticModel

    tf = testbed.get("sphere", dim=2)
    model = QuadraticModel(tf.x0, 0.0, np.zeros(2), np.diag([2.0, 0.0]))
    Y = SampleSet(tf.x0, np.eye(2))
    meas = bounds.measure_errors(tf, model, Y, n_samples=16)
    assert np.allclose(meas.aligned, [0.0, 2.0])
    assert meas.cross_max == 0.0
    assert np.isnan(meas.cross[0, 0]) and np.isnan(meas.cross[1, 1])
    assert meas.err_g > 0


@pytest.mark.parametrize("rows", [1, 9])
@pytest.mark.parametrize("m", [1, 2, 5, 128])
def test_cross_max_is_the_largest_off_diagonal_entry_bitwise(rows, m):
    rng = np.random.default_rng(m)
    scales = 10.0 ** rng.uniform(-20.0, 5.0, (rows, m, m))
    cross = np.abs(rng.standard_normal((rows, m, m))) * scales
    diagonal = np.arange(m)
    cross[:, diagonal, diagonal] = np.nan
    if m > 1:
        cross[-1, 0, m - 1] = np.nan  # an off-diagonal nan carries to its row's maximum
    meas = bounds.ErrorMeasurement(np.zeros(rows), np.zeros(rows), np.zeros((rows, m)), cross)
    off = ~np.eye(m, dtype=bool)
    want = np.max(cross[:, off], axis=-1) if m > 1 else np.full(rows, np.nan)
    assert np.array_equal(meas.cross_max, want, equal_nan=True)
    assert np.isnan(meas.cross_max[-1])
    for i in range(rows):
        assert np.array_equal(meas.row(i).cross_max, want[i], equal_nan=True)
        assert isinstance(meas.row(i).cross_max, float)


def test_fit_slope():
    deltas = np.array([1.0, 0.5, 0.25, 0.125])
    assert bounds.fit_slope(deltas, 3.0 * deltas ** 2) == pytest.approx(2.0, abs=1e-12)
    assert bounds.fit_slope(deltas, 0.5 * deltas) == pytest.approx(1.0, abs=1e-12)
    # everything at the roundoff floor: no informative points left
    assert np.isnan(bounds.fit_slope(deltas, np.full(4, 1e-16)))
    assert np.isnan(bounds.fit_slope(deltas[:1], np.array([1.0])))
    # curvature-level roundoff: above the f-level floor, below eps/delta^2
    noise = 0.5 * bounds.ROUNDOFF_FLOOR / deltas ** 2
    assert bounds.fit_slope(deltas[1:], noise[1:]) == pytest.approx(-2.0, abs=1e-12)
    assert np.isnan(bounds.fit_slope(deltas, noise, order=2))
    with pytest.raises(InvalidInputError):
        bounds.fit_slope(deltas, np.ones(3))
