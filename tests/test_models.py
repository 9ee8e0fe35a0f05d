"""Interpolation model solvers and the simplex-derivative model builder."""

import numpy as np
import pytest

from dfoq import testbed
from dfoq.bounds import ROUNDOFF_FLOOR
from dfoq.errors import InfeasibleError, InvalidInputError
from dfoq.models import (
    GradTerm,
    QSSpec,
    QSStencil,
    QuadraticModel,
    build,
    build_qs,
    interpolation_check,
    parse_family,
    qs_preset,
    solve_mfn,
    solve_mn,
)
from dfoq.sample_sets import SampleSet
from dfoq.simplex import DirectionPack, Oracle, delta_f, gsg, gsh
from dfoq.sweep import SweepConfig, parse_deltas, resolve_frame, run_sweep

from kkt_blocks import kkt_blocks, null_space_basis

GOLD_TOL = 1e-10
EPS = float(np.finfo(float).eps)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def sphere(x):
    return float(np.dot(x, x))


def five_point_set():
    D = np.column_stack([E1, E2, 2 * E1, E1 + E2])
    return SampleSet(np.zeros(2), D)


def degenerate_axes_set():
    e = np.eye(3)
    D = np.column_stack([e[:, 0], -e[:, 0], e[:, 1], -e[:, 1]])
    return SampleSet(np.zeros(3), D)


def test_solve_mn_golden_pairs():
    model, diag = solve_mn(sphere, five_point_set())
    assert np.allclose(model.g, [0.0, 0.8], atol=GOLD_TOL)
    assert np.allclose(model.H, np.diag([2.0, 0.4]), atol=GOLD_TOL)
    assert model.c == 0.0
    assert model.symmetric
    assert diag.kkt_residual <= 1e-9
    assert diag.feasibility_residual <= 1e-9

    model, _ = solve_mn(sphere, degenerate_axes_set())
    assert np.allclose(model.g, np.zeros(3), atol=GOLD_TOL)
    assert np.allclose(model.H, np.diag([2.0, 2.0, 0.0]), atol=GOLD_TOL)

    Y1 = SampleSet(np.zeros(1), np.array([[1.0, -1.0]]))
    model, _ = solve_mn(lambda x: float(x[0] ** 2), Y1)
    assert abs(model.g[0]) <= GOLD_TOL
    assert model.H[0, 0] == pytest.approx(2.0, abs=GOLD_TOL)


def test_solve_mfn_golden_pairs():
    model, diag = solve_mfn(sphere, five_point_set())
    assert np.allclose(model.g, [0.0, 1.0], atol=GOLD_TOL)
    assert np.allclose(model.H, np.diag([2.0, 0.0]), atol=GOLD_TOL)
    assert diag.alpha_unique

    model, diag = solve_mfn(sphere, degenerate_axes_set())
    assert np.allclose(model.H, np.diag([2.0, 2.0, 0.0]), atol=GOLD_TOL)
    assert not diag.alpha_unique
    # minimum-norm representative of the gradient family
    assert np.allclose(model.g, np.zeros(3), atol=GOLD_TOL)


def test_solver_stationarity():
    # the returned multipliers must reproduce the model: alpha = D lam,
    # H = (1/2) sum lam_i d^i d^iT, and satisfy G lam = delta_f
    Y = five_point_set()
    for solver in (solve_mn, solve_mfn):
        model, diag = solver(sphere, Y)
        lam = np.asarray(diag.multipliers)
        H = 0.5 * (Y.D * lam) @ Y.D.T
        assert np.allclose(H, model.H, atol=1e-10)
        if solver is solve_mn:
            assert np.allclose(Y.D @ lam, model.g, atol=1e-10)
            gram = Y.D.T @ Y.D
            G = gram + 0.25 * gram ** 2
            delta = delta_f(sphere, Y.x0, Y.D)
            assert np.linalg.norm(G @ lam - delta) <= 1e-9 * (1.0 + np.linalg.norm(delta))


def test_solvers_interpolate_own_set():
    rng = np.random.default_rng(14)
    for _ in range(5):
        Y = SampleSet(rng.standard_normal(3), rng.standard_normal((3, 4)))

        def f(x):
            return float(np.sin(x[0]) + x[1] ** 2 - 0.5 * x[2])

        for solver in (solve_mn, solve_mfn):
            model, _ = solver(f, Y)
            report = interpolation_check(model, f, Y)
            assert report.passed
            assert report.max_violation <= 1e-9


def test_infeasible_raises():
    # more plus-minus pairs than gradient unknowns, with cubic content that
    # no quadratic can match
    rng = np.random.default_rng(7)
    U = rng.standard_normal((3, 4))
    U /= np.linalg.norm(U, axis=0)
    Y = SampleSet(np.zeros(3), 0.25 * np.hstack([U, -U]))

    def f(x):
        return float(np.sin(x[0]) + np.cos(2 * x[1]) + x[2] ** 3 + x[0] * x[1])

    with pytest.raises(InfeasibleError):
        solve_mn(f, Y)
    with pytest.raises(InfeasibleError):
        solve_mfn(f, Y)


def test_mfn_hessian_ignores_multiplier_family():
    # feasible but not poised: every multiplier in the solution family must
    # give the same Hessian
    Y = degenerate_axes_set()
    model, diag = solve_mfn(sphere, Y)
    F = kkt_blocks(Y).F_unit
    N = null_space_basis(F)
    assert N.shape[1] > 0
    rng = np.random.default_rng(3)
    r = Y.radius
    for _ in range(10):
        z = np.concatenate([np.asarray(diag.multipliers) * r ** 4, model.g * r])
        z = z + N @ rng.standard_normal(N.shape[1])
        lam = z[: Y.m] / r ** 4
        H = 0.5 * (Y.D * lam) @ Y.D.T
        assert np.linalg.norm(H - model.H, "fro") <= 1e-9


def _objective_mn(model):
    return 0.5 * float(model.g @ model.g) + 0.5 * np.linalg.norm(model.H, "fro") ** 2


def test_objective_ordering():
    rng = np.random.default_rng(19)
    kept = 0
    while kept < 10:
        Y = SampleSet(rng.standard_normal(2), rng.standard_normal((2, 4)))

        def f(x):
            return float(np.exp(0.3 * x[0]) + x[1] ** 2)

        try:
            mn, _ = solve_mn(f, Y)
            mfn, _ = solve_mfn(f, Y)
        except InfeasibleError:
            continue
        kept += 1
        assert np.linalg.norm(mfn.H, "fro") <= np.linalg.norm(mn.H, "fro") + 1e-9
        assert _objective_mn(mn) <= _objective_mn(mfn) + 1e-9


def _constraint_matrix(Y):
    """Rows of the interpolation system over z = (alpha, diag H, upper H)."""
    n, m = Y.n, Y.m
    slots = [(a, a) for a in range(n)] + [(a, b) for a in range(n) for b in range(a + 1, n)]
    A = np.zeros((m, n + len(slots)))
    for i in range(m):
        d = Y.D[:, i]
        A[i, :n] = d
        for col, (a, b) in enumerate(slots):
            A[i, n + col] = 0.5 * d[a] ** 2 if a == b else d[a] * d[b]
    return A, slots


def test_mn_objective_is_optimal_over_feasible_set():
    Y = five_point_set()
    model, _ = solve_mn(sphere, Y)
    A, slots = _constraint_matrix(Y)
    n = Y.n
    z_star = np.concatenate(
        [model.g, [model.H[a, b] for (a, b) in slots]]
    )
    weights = np.concatenate([np.ones(n), [1.0 if a == b else 2.0 for (a, b) in slots]])
    N = null_space_basis(A)
    rng = np.random.default_rng(23)
    best = float(z_star @ (weights * z_star))
    for _ in range(20):
        z = z_star + N @ rng.standard_normal(N.shape[1])
        assert float(z @ (weights * z)) >= best - 1e-9


def test_model_evaluation_fixtures():
    flat = QuadraticModel(np.zeros(2), 3.5, np.zeros(2), np.zeros((2, 2)))
    assert flat.value(np.array([4.0, -1.0])) == 3.5

    mn, _ = solve_mn(sphere, five_point_set())
    assert mn.value(2 * E1) == pytest.approx(4.0, abs=1e-10)

    skew = QuadraticModel(np.zeros(2), 0.0, np.zeros(2), np.array([[2.0, 0.0], [2.0, 0.0]]))
    assert not skew.symmetric
    d = np.array([1.0, 1.0])
    assert skew.value(d) == pytest.approx(2.0)
    assert np.allclose(skew.gradient(d), [3.0, 1.0])
    assert np.array_equal(skew.hessian(), np.array([[2.0, 1.0], [1.0, 0.0]]))


def test_model_many_point_forms_agree():
    rng = np.random.default_rng(2)
    model = QuadraticModel(
        rng.standard_normal(3), 1.2, rng.standard_normal(3), rng.standard_normal((3, 3))
    )
    X = rng.standard_normal((6, 3))
    assert np.allclose(model.value_many(X), [model.value(x) for x in X])


def test_value_many_does_not_depend_on_the_point_layout():
    # interpolation_check stacks x0 over a +- symmetric set's points, which
    # is F-ordered; the values must be those of the C-ordered copy
    rng = np.random.default_rng(20)
    for n in (3, 16, 64):
        model = QuadraticModel(rng.standard_normal(n), 0.3, rng.standard_normal(n),
                               rng.standard_normal((n, n)))
        X = model.x0 + rng.standard_normal((2 * n + 1, n))
        assert np.array_equal(model.value_many(np.asfortranarray(X)),
                              model.value_many(np.ascontiguousarray(X)))


def test_value_many_matches_the_einsum_form():
    # (Dm @ H) * Dm summed over rows against einsum: both are sums of n^2
    # products, each within 2n eps of sum |Dm_i| |H_ij| |Dm_j|
    eps = np.finfo(float).eps
    rng = np.random.default_rng(21)
    for n, k in ((1, 3), (3, 7), (16, 100), (64, 641)):
        for scale in (1e-8, 1.0, 1e3):
            H = rng.standard_normal((n, n))
            model = QuadraticModel(rng.standard_normal(n), 0.7, rng.standard_normal(n), H)
            X = model.x0 + scale * rng.standard_normal((k, n))
            Dm = X - model.x0
            want = model.c + Dm @ model.g + 0.5 * np.einsum("ki,ij,kj->k", Dm, H, Dm)
            size = ((np.abs(Dm) @ np.abs(H)) * np.abs(Dm)).sum(1)
            bound = 2 * n * eps * size + 2 * eps * np.abs(want)
            assert np.all(np.abs(model.value_many(X) - want) <= bound)


PRESETS = ("centred", "forward", "adapted-0", "adapted-1", "adapted-last")


def qs_recipes(preset):
    """``(x0, spec)`` of the preset at n = 2, 3, 16 and 64 on coordinate and
    random frames with signed zeros in x0 and in the frame, at radii 1 to
    1e-8 (every radius for n <= 16; at n = 64 the coordinate frame at 1 and
    the random one at 1e-8)."""
    rng = np.random.default_rng(8)
    for n in (2, 3, 16, 64):
        x0 = rng.standard_normal(n)
        x0[::2] = -0.0
        name = f"adapted-{n}" if preset == "adapted-last" else preset
        coordinate = np.eye(n)
        coordinate[(rng.random((n, n)) < 0.5) & (coordinate == 0.0)] = -0.0
        random = np.zeros((n, n))
        while np.linalg.matrix_rank(random) < n:
            random = rng.standard_normal((n, n))
            random[rng.random((n, n)) < 0.2] = -0.0
        for frame, last in ((coordinate, 0), (random / np.linalg.norm(random, axis=0), 8)):
            for k in (range(9) if n <= 16 else (last,)):
                yield x0, qs_preset(name, SampleSet(x0, 10.0 ** -k * frame))


def recipe_points(spec, x0):
    """Every evaluation point :func:`build_qs` touches (rows), unsorted and
    with repeats: x0, then per gradient term its base and the base plus each
    column of its frame, then the pack's points."""
    chunks = [x0[None, :]]
    for term in spec.grad_terms:
        base = term.base(x0)
        chunks += [base[None, :], base[None, :] + (term.scale * spec.pack.S).T]
    chunks.append(spec.pack.points(x0))
    return np.vstack(chunks)


def _sorted_points(x0, grads, pack):
    # the points of a recipe's gradient terms ``(base, frame)`` and pack as
    # recipe_points lists them: a loop over the columns, sorted and with
    # exact repeats removed by np.unique; kept as the reference
    pts = [x0]
    for base, frame in grads:
        pts += [base] + [base + frame[:, i] for i in range(frame.shape[1])]
    for i in range(pack.p):
        s = pack.S[:, i]
        pts.append(x0 + s)
        for j in range(pack.Ts[i].shape[1]):
            t = pack.Ts[i][:, j]
            pts += [x0 + t, x0 + s + t]
    return np.unique(np.asarray(pts), axis=0)


def _assert_same_merged_set(x0, rows, sorted_rows):
    """from_points gives the same m from both lists, and each column of either
    set has a column of the other within the merge tolerance, widened by the
    rounding that tells two members of a near-duplicate pair apart."""
    A = SampleSet.from_points(x0, rows).D
    B = SampleSet.from_points(x0, sorted_rows).D
    assert A.shape == B.shape
    tol = 1e-10 * np.max(np.linalg.norm(rows - x0, axis=1)) + 16 * EPS * np.max(np.abs(rows))
    for P, Q in ((A, B), (B, A)):
        gram = (Q * Q).sum(0)[None, :] - 2.0 * P.T @ Q
        nearest = Q[:, np.argmin(gram, axis=1)]
        assert np.all(np.linalg.norm(P - nearest, axis=0) <= tol)


def test_recipe_points_merge_to_the_sorted_set():
    for preset in PRESETS:
        for x0, spec in qs_recipes(preset):
            grads = [(term.base(x0), term.scale * spec.pack.S) for term in spec.grad_terms]
            _assert_same_merged_set(x0, recipe_points(spec, x0),
                                    _sorted_points(x0, grads, spec.pack))
    # packs with a frame per direction, several columns each, and signed zeros
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
        for pack in (DirectionPack(S, tuple(Ts)), DirectionPack.shared(S, Ts[0])):
            rows = pack.points(x0)
            if (rows - x0).any():
                _assert_same_merged_set(x0, rows, _sorted_points(x0, [], pack))


def _column_loop_offsets(spec):
    # the offsets QSStencil lists, as a loop over the columns, unsorted and
    # with repeats; kept as the reference: per gradient term its shift (if
    # any) and shift + scale s^i, then s^i, t^j (once for a shared frame)
    # and s^i + t^j
    pack, rows = spec.pack, []
    for term in spec.grad_terms:
        frame = term.scale * pack.S
        if term.shift is not None:
            rows.append(term.shift)
        for i in range(pack.p):
            rows.append(frame[:, i] if term.shift is None else term.shift + frame[:, i])
    rows += [pack.S[:, i] for i in range(pack.p)]
    Ts = pack.Ts if pack.shared_T is None else pack.Ts[:1]
    rows += [T[:, j] for T in Ts for j in range(T.shape[1])]
    rows += [pack.S[:, i] + pack.Ts[i][:, j] for i in range(pack.p)
             for j in range(pack.Ts[i].shape[1])]
    return np.array(rows)


@pytest.mark.parametrize("preset", ["centred", "forward", "adapted-0", "adapted-2"])
def test_spec_points_match_the_column_loop_bitwise(preset):
    # the stencil lists the recipe's points as offsets from x0, vectorized;
    # its merged set is that of the column loop's offsets, bit for bit
    rng = np.random.default_rng(8)
    for n in (2, 3, 16):
        x0 = rng.standard_normal(n)
        x0[:1] = -0.0
        for D in (np.eye(n), 0.1 * rng.standard_normal((n, n))):
            spec = qs_preset(preset, SampleSet(x0, D))
            Y, index = SampleSet.from_offsets(x0, _column_loop_offsets(spec))
            stencil = QSStencil.of(spec, x0)
            assert stencil.Y.D.tobytes() == Y.D.tobytes()
            assert stencil.Y.x0.tobytes() == x0.tobytes()
            # the gradient terms' rows lead and the table's sums close the list
            ix, grads = stencil.index, []
            for (_, _, heads, base), term in zip(stencil.index.grads, spec.grad_terms):
                grads += ([base] if term.shift is not None else []) + list(heads)
            assert np.array_equal(index[:len(grads)], grads)
            assert np.array_equal(index[len(index) - len(ix.at_st):], ix.at_st)


def _offset_at(Y, index):
    """Offsets of the stencil's entries: column ``index - 1`` of ``Y.D``, or
    zero where ``index`` is 0 (the center)."""
    D0 = np.hstack([np.zeros((Y.n, 1)), Y.D])
    return D0[:, index].T


@pytest.mark.parametrize("preset", PRESETS)
def test_stencil_index_reads_each_recipe_offset(preset):
    # every gradient-term and Hessian-table entry reads a merged offset
    # within the merge tolerance of the one the recipe names
    for x0, spec in qs_recipes(preset):
        stencil = QSStencil.of(spec, x0)
        ix, pack = stencil.index, spec.pack
        tol = 1e-10 * stencil.Y.radius
        S_at = pack.S.T[np.repeat(np.arange(pack.p), [T.shape[1] for T in pack.Ts])]
        T_at = np.hstack(pack.Ts).T
        want = [(ix.at_s, S_at), (ix.at_t, T_at), (ix.at_st, S_at + T_at)]
        for (coeff, scale, heads, base), term in zip(ix.grads, spec.grad_terms):
            assert (coeff, scale) == (term.coeff, term.scale)
            shift = np.zeros(x0.size) if term.shift is None else term.shift
            want += [(np.array([base]), shift[None, :]),
                     (heads, shift[None, :] + (term.scale * pack.S).T)]
        for index, offsets in want:
            gap = np.linalg.norm(_offset_at(stencil.Y, index) - offsets, axis=1)
            assert np.all(gap <= tol)


def test_stencil_hessian_rows_sum_each_frame_segment():
    # per-direction frames of one to three columns: row i of R is table
    # segment i times pinv(T_i), all rows summed by one reduceat; on
    # one-column frames (every centred pack) that is bit for bit the
    # row-by-row product
    rng = np.random.default_rng(12)
    n = 5
    x0 = rng.standard_normal(n)
    S = 0.1 * rng.standard_normal((n, n))
    Ts = tuple(0.1 * rng.standard_normal((n, q)) for q in (1, 2, 3, 1, 2))
    spec = QSSpec((GradTerm(1.0),), DirectionPack(S, Ts))
    stencil = QSStencil.of(spec, x0)
    want = build_qs(trig, x0, spec)
    fv = Oracle(trig).many(stencil.Y.evaluation_points())
    _assert_close_to_the_recipe(stencil.model(fv), want, want.c, stencil.Y.radius)
    for D in (np.eye(n), S):
        stencil = QSStencil.of(qs_preset("centred", SampleSet(x0, D)), x0)
        ix, Y = stencil.index, stencil.Y
        fv = Oracle(trig).many(np.vstack([x0[None, :], Y.points()]))
        table = fv[ix.at_st] - fv[ix.at_s] - fv[ix.at_t] + fv[0]
        rows = np.array([table[i:i + 1] @ ix.pinv_T[i:i + 1] for i in range(n)])
        assert np.array_equal(stencil.model(fv).H, ix.pinv_S @ rows)


def _per_term_qs(f, x0, spec):
    # build_qs as a sum of gsg on each scaled frame, then gsh; kept as the
    # reference for the one-factor form
    g = np.zeros(x0.size)
    for term in spec.grad_terms:
        g = g + term.coeff * gsg(f, term.base(x0), term.scale * spec.pack.S)
    H = np.zeros((x0.size, x0.size)) + gsh(f, x0, spec.pack)
    return QuadraticModel(x0, f(x0), g, H)


@pytest.mark.parametrize("preset", PRESETS)
def test_build_qs_matches_the_per_term_form_bitwise(preset):
    # the minimum-norm solve is equivariant: Factorization(t S^T).solve(b)
    # is bit for bit Factorization(S^T).solve(b) / t for t = -1 and 2
    for x0, spec in qs_recipes(preset):
        f, f_ref = Oracle(trig), Oracle(trig)
        model, want = build_qs(f, x0, spec), _per_term_qs(f_ref, x0, spec)
        assert model.c == want.c
        assert model.g.tobytes() == want.g.tobytes()
        assert model.H.tobytes() == want.H.tobytes()
        assert f.calls == f_ref.calls


def test_model_validation():
    with pytest.raises(InvalidInputError):
        QuadraticModel(np.zeros(2), 0.0, np.zeros(3), np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        QuadraticModel(np.zeros(2), 0.0, np.zeros(2), np.zeros((3, 3)))


def test_interpolation_check_center_mismatch():
    model = QuadraticModel(np.ones(2), 0.0, np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        interpolation_check(model, sphere, five_point_set())


def test_forward_preset_misses_centred_set():
    # forward differences never see x0 - d, so an odd function breaks the fit
    st = SampleSet(np.zeros(1), np.array([[1.0]]))
    spec = qs_preset("forward", st)
    model = build_qs(lambda x: float(x[0] ** 3), st.x0, spec)
    report = interpolation_check(model, lambda x: float(x[0] ** 3), st.expand())
    assert not report.passed
    assert report.max_violation == pytest.approx(3.0, abs=1e-12)


def test_qs_centred_matches_mn_fixture():
    st = SampleSet(np.zeros(3), np.eye(3)[:, :2])
    model = build_qs(sphere, st.x0, qs_preset("centred", st))
    assert np.allclose(model.g, np.zeros(3), atol=1e-12)
    assert np.allclose(model.H, np.diag([2.0, 2.0, 0.0]), atol=1e-12)
    mn, _ = solve_mn(sphere, st.expand())
    assert np.allclose(model.g, mn.g, atol=1e-10)
    assert np.allclose(model.H, mn.H, atol=1e-10)


def test_qs_forward_gradient_alone_differs():
    spec = QSSpec((GradTerm(1.0),),
                  qs_preset("centred", SampleSet(np.zeros(3), np.eye(3)[:, :1])).pack)
    model = build_qs(sphere, np.zeros(3), spec)
    assert np.allclose(model.g, np.eye(3)[:, 0], atol=1e-12)
    assert np.linalg.norm(model.g) > 0


def test_qs_linear_function():
    a = np.array([2.0, -1.0])
    st = SampleSet(np.zeros(2), np.eye(2))
    for preset in ("centred", "forward", "adapted-0", "adapted-1"):
        model = build_qs(lambda x: float(a @ x), st.x0, qs_preset(preset, st))
        assert np.allclose(model.g, a, atol=1e-11)
        assert np.allclose(model.H, np.zeros((2, 2)), atol=1e-11)


def test_qs_preset_validation():
    st = SampleSet(np.zeros(2), np.eye(2))
    with pytest.raises(InvalidInputError):
        qs_preset("midpoint", st)
    with pytest.raises(InvalidInputError):
        qs_preset("adapted-7", st)
    with pytest.raises(InvalidInputError):
        qs_preset("adapted-x", st)
    with pytest.raises(InvalidInputError):
        QSSpec((), qs_preset("centred", st).pack)
    for scale in (0.0, np.inf, np.nan):
        with pytest.raises(InvalidInputError):
            GradTerm(1.0, None, scale)


def _points_within(spec, x0, Y, rtol=1e-10):
    """Whether every point the recipe uses lies in ``Y`` or at its center."""
    allowed = np.vstack([Y.x0[None, :], Y.points()])
    scale = max(1.0, float(np.max(np.abs(allowed))))
    return all(np.min(np.linalg.norm(allowed - u[None, :], axis=1)) <= rtol * scale
               for u in recipe_points(spec, x0))


def test_qs_point_audit():
    st = SampleSet(np.zeros(2), 0.5 * np.eye(2))
    Y = st.expand()
    assert _points_within(qs_preset("centred", st), st.x0, Y)
    # forward stencils use x0 + d^i + d^j, which the plus-minus set lacks
    assert not _points_within(qs_preset("forward", st), st.x0, Y)


def test_solver_oracle_call_budget():
    # both solvers need exactly the m+1 sample values
    Y = five_point_set()
    for solver in (solve_mn, solve_mfn):
        f = Oracle(sphere)
        solver(f, Y)
        assert f.calls == Y.m + 1


FAMILIES = ("mn", "mfn", "qs:centred", "qs:forward", "qs:adapted-0", "qs:adapted-1")


def trig(x):
    return float(np.sum(np.sin(x)) + np.prod(np.cos(x)))


def _direct(family, st, Y=None):
    """The family's model by the direct solver calls, as the CLI and the
    sweep each made them before sharing :func:`build`; for qs, the recipe
    evaluated where it names its points, with its merged points as the set."""
    f = Oracle(trig)
    if family in ("mn", "mfn"):
        Y = st.expand() if Y is None else Y
        model, _ = (solve_mn if family == "mn" else solve_mfn)(f, Y)
        return model, Y, Y.mfn_poised, f.calls
    spec = qs_preset(family.split(":", 1)[1], st)
    model = build_qs(f, st.x0, spec)
    Y = SampleSet.from_points(st.x0, recipe_points(spec, st.x0))
    return model, Y, interpolation_check(model, f, Y).passed, f.calls


def _assert_close_to_the_recipe(got, want, fx0, radius):
    """g and H within ``1e-9 ||.||`` plus the sweep's roundoff floor
    ``ROUNDOFF_FLOOR (1 + |f(x0)|) / radius^k``: the stencil reads f at the
    merged points, which differ from the recipe's in their last bits."""
    floor = ROUNDOFF_FLOOR * (1.0 + abs(fx0))
    for a, b, k in ((got.g, want.g, 1), (got.H, want.H, 2)):
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b) + floor / radius ** k


def _assert_same_build(family, st, Y=None):
    model, want_Y, verdict, calls = _direct(family, st, Y)
    f = Oracle(trig)
    built = build(family, f, st, Y=Y)
    assert built.model.c == model.c
    if family in ("mn", "mfn"):
        assert np.array_equal(built.model.g, model.g)
        assert np.array_equal(built.model.H, model.H)
        assert np.array_equal(built.Y.D, want_Y.D)
    else:
        _assert_close_to_the_recipe(built.model, model, model.c, st.radius)
        if family == "qs:centred":
            # the centred stencil merges to the symmetric set, bit for bit
            assert np.array_equal(built.Y.D, st.expand().D)
        # the stencil's set merges the offsets taken without x0: the recipe's
        # merged points, to the merge tolerance
        assert built.Y.D.shape == want_Y.D.shape
        assert np.max(np.abs(built.Y.D - want_Y.D)) <= 1e-10 * want_Y.radius
        calls = built.Y.m + 1
    assert np.array_equal(built.Y.x0, want_Y.x0)
    assert built.poised is verdict
    assert f.calls == calls
    assert built.kind == family.split(":")[0]


@pytest.mark.parametrize("family", FAMILIES)
def test_build_matches_direct_solver_calls(family):
    rng = np.random.default_rng(5)
    x0 = np.array([0.3, -0.2, 0.5])
    for st in (SampleSet(x0, 0.1 * np.eye(3)),
               SampleSet(x0, 0.01 * np.eye(3)[:, :2]),
               SampleSet(x0, 0.2 * rng.standard_normal((3, 3)))):
        _assert_same_build(family, st)


@pytest.mark.parametrize("family", FAMILIES)
def test_build_on_a_stored_set(family):
    # mn and mfn solve on the stored, asymmetric set as it is; qs reads its
    # directions as a half frame
    stored = SampleSet(np.array([0.1, 0.4, -0.3]), np.array([[0.3, 0.0, -0.2],
                                                             [0.0, 0.2, 0.1],
                                                             [0.1, -0.1, 0.3]]))
    st = SampleSet(stored.x0, stored.D)
    _assert_same_build(family, st, Y=stored)
    built = build(family, trig, st, Y=stored)
    assert (built.Y is stored) == (family in ("mn", "mfn"))


def test_build_mn_leaves_the_poised_verdict_unfactored():
    st = SampleSet(np.zeros(2), 0.5 * np.eye(2))
    built = build("mn", sphere, st)
    assert "mfn_poised" not in vars(built.Y)
    assert built.poised is True
    assert "mfn_poised" in vars(built.Y)


def test_build_diagnostics_json():
    st = SampleSet(np.zeros(2), 0.5 * np.eye(2))
    mfn = build("mfn", sphere, st).diagnostics_json()
    assert list(mfn) == ["multipliers", "kkt_residual", "feasibility_residual", "alpha_unique"]
    qs = build("qs:centred", sphere, st)
    assert qs.diagnostics_json() == {
        "interpolation_max_violation": qs.diagnostics.max_violation,
        "interpolation_passed": True,
        "points": 4,
    }


def test_parse_family():
    assert parse_family("mn") == ("mn", None)
    assert parse_family("mfn") == ("mfn", None)
    assert parse_family("qs:adapted-1") == ("qs", "adapted-1")
    assert parse_family("qs:") == ("qs", "")
    for bad in ("cubic", "MN", "qs", "", 3, None):
        with pytest.raises(InvalidInputError, match="unknown model"):
            parse_family(bad)
    st = SampleSet(np.zeros(2), np.eye(2))
    with pytest.raises(InvalidInputError, match="unknown model 'cubic'"):
        build("cubic", sphere, st)
    with pytest.raises(InvalidInputError, match="unknown QS preset"):
        build("qs:midpoint", sphere, st)


def test_feasibility_residual_is_the_interpolation_check():
    Y = five_point_set()
    for solver in (solve_mn, solve_mfn):
        model, diag = solver(trig, Y)
        assert diag.feasibility_residual == interpolation_check(model, trig, Y).max_violation


def _frames(n):
    """Unit half frames at dimension n: coordinate and random, p = n and
    p < n, and a random frame with p > n."""
    specs = {f"structured:{n}", f"structured:{max(1, n // 2)}", f"random:{n}:1",
             f"random:{max(1, n - 3)}:2", f"random:{n + 3}:4"}
    return [resolve_frame(spec, n) for spec in sorted(specs)]


@pytest.mark.parametrize("n", [2, 3, 16, 64])
def test_centred_qs_stencil_matches_the_recipe(n):
    # the stencil on its merged set [Dh, -Dh] against build_qs on the
    # centred recipe, which also reads f((x0 + d^i) - d^i) and solves p
    # one-column frames one by one
    for name in ("trigonometric", "quartic"):
        tf = testbed.get(name, dim=n, x0=[0.4] * n)
        for frame in _frames(n):
            for delta in (1.0, 1e-2, 1e-4, 1e-8):
                st = SampleSet(tf.x0, frame).scale(delta)
                f = Oracle(tf.f)
                built = build("qs:centred", f, st)
                assert f.calls == 2 * st.m + 1
                assert np.array_equal(built.Y.D, st.expand().D)
                want = build_qs(tf.f, st.x0, qs_preset("centred", st))
                assert built.model.c == want.c
                _assert_close_to_the_recipe(built.model, want, want.c, st.radius)


def test_centred_qs_on_a_half_frame_holding_d_and_minus_d(tmp_path):
    # such a half frame has no symmetric set; the stencil merges the
    # recipe's points to the six points x0 +- 0.1 e_i
    st = SampleSet(np.array([0.3, -0.2, 0.5]), 0.1 * np.column_stack([np.eye(3), -np.eye(3)[:, 0]]))
    with pytest.raises(InvalidInputError, match="duplicate directions"):
        st.expand()
    built = build("qs:centred", trig, st)
    assert built.Y.m == 6 and built.poised is True
    model = build_qs(trig, st.x0, qs_preset("centred", st))
    _assert_close_to_the_recipe(built.model, model, model.c, st.radius)
    path = tmp_path / "antipodes.json"
    st.save(path)
    rows, summary = run_sweep(SweepConfig("trigonometric", f"file:{path}", "qs:centred",
                                          parse_deltas("0.1:0.1:3"), x0=tuple(st.x0)))
    assert all(r.poised for r in rows) and summary["violations"] == []
    with pytest.raises(InvalidInputError, match="duplicate directions"):
        run_sweep(SweepConfig("trigonometric", f"file:{path}", "mfn",
                              parse_deltas("0.1:0.1:3"), x0=tuple(st.x0)))


@pytest.mark.parametrize("n", [2, 8, 32, 64])
def test_mn_and_mfn_coincide_on_plus_minus_sets(n):
    # on [Dh, -Dh] the minimum-norm and minimum-Frobenius models coincide,
    # and share their gradient with qs:centred.  Measured worst gaps: 4.4e-11
    # on g (quartic, random:64:1, delta = 0.01, where mn's dense multiplier
    # system drifts from the odd/even solution, which mfn matches to 1.3e-14)
    # and 4.7e-11 on H
    for name in ("trigonometric", "quartic"):
        tf = testbed.get(name, dim=n, x0=[0.4] * n)
        for frame in _frames(n):
            if frame.shape[1] > n:
                continue
            for delta in (1.0, 0.1, 0.01):
                st = SampleSet(tf.x0, frame).scale(delta)
                f = Oracle(tf.f)
                mn, _ = solve_mn(f, st.expand())
                mfn, _ = solve_mfn(f, st.expand())
                qs = build("qs:centred", f, st).model
                assert np.linalg.norm(mn.g - mfn.g) <= 1e-10 * np.linalg.norm(mfn.g)
                assert np.linalg.norm(mn.H - mfn.H) <= 1e-8 * np.linalg.norm(mfn.H)
                assert np.linalg.norm(qs.g - mfn.g) <= 1e-12 * np.linalg.norm(mfn.g)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_stencil_set_and_verdict_do_not_depend_on_the_radius(n):
    # the stencil merges the recipe's offsets taken without x0, so its set
    # has the same size at every radius; merging the points x0 + offset
    # instead gave random:16:3 qs:adapted-1 152 points at delta >= 1e-6 and
    # 303 at 1e-8, as copies of one point drifted apart by rounding.
    # qs:forward's verdict is its interpolation check, and its one-sided
    # gradient misses its own points by O(delta^2), so only its set is
    # compared across radii
    deltas = 10.0 ** -np.arange(9)
    for name in ("trigonometric", "quartic"):
        tf = testbed.get(name, dim=n, x0=[0.4] * n)
        for spec in (f"structured:{n}", f"random:{n}:3"):
            frame = resolve_frame(spec, n)
            for family in ("qs:forward", "qs:adapted-0", "qs:adapted-1"):
                built = [build(family, tf.f, SampleSet(tf.x0, d * frame)) for d in deltas]
                sizes = [b.Y.m for b in built]
                assert len(set(sizes)) == 1, (name, spec, family, sizes)
                if family != "qs:forward":
                    assert all(b.poised for b in built), (name, spec, family)
