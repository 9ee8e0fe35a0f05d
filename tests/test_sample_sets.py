"""Sample-set geometry, serialization, and poisedness diagnostics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dfoq import linalg
from dfoq.errors import InvalidInputError
from dfoq.sample_sets import (
    SampleSet,
    StructuredSet,
    _validate_directions,
    kkt_matrices,
    poisedness,
)
from dfoq.simplex import delta_f

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def sphere(x):
    return float(np.dot(x, x))


def test_radius_and_normalize():
    Y = SampleSet(np.zeros(2), np.eye(2))
    assert Y.radius == 1.0
    assert np.array_equal(Y.normalized(), np.eye(2))

    Y = SampleSet(np.zeros(2), np.column_stack([2 * E1, E2]))
    assert Y.radius == 2.0
    assert np.allclose(Y.normalized(), np.column_stack([E1, E2 / 2]))

    Y = SampleSet(np.zeros(2), np.array([[3.0], [4.0]]))
    assert Y.radius == 5.0


def test_normalized_max_column_is_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        Y = SampleSet(rng.standard_normal(3), rng.standard_normal((3, 5)))
        norms = np.linalg.norm(Y.normalized(), axis=0)
        assert np.max(norms) == pytest.approx(1.0, abs=1e-15)


def test_validation_rejects_bad_sets():
    with pytest.raises(InvalidInputError):
        SampleSet(np.zeros(2), np.zeros((2, 0)))
    with pytest.raises(InvalidInputError):
        SampleSet(np.zeros(2), np.column_stack([E1, np.zeros(2)]))
    with pytest.raises(InvalidInputError):
        SampleSet(np.zeros(2), np.column_stack([E1, E1]))
    with pytest.raises(InvalidInputError):
        SampleSet(np.zeros(3), np.eye(2))
    with pytest.raises(InvalidInputError):
        SampleSet(np.array([0.0, np.inf]), np.eye(2))


def test_scale():
    Y = SampleSet(np.zeros(2), np.eye(2))
    assert np.array_equal(Y.scale(1.0).D, Y.D)
    assert Y.scale(0.5).radius == 0.5
    with pytest.raises(InvalidInputError):
        Y.scale(0.0)
    with pytest.raises(InvalidInputError):
        Y.scale(-2.0)

    rng = np.random.default_rng(9)
    Z = SampleSet(rng.standard_normal(3), rng.standard_normal((3, 4)))
    assert np.allclose(Z.scale(1e-3).normalized(), Z.normalized(), atol=1e-15)


def test_points_and_from_points_roundtrip():
    Y = SampleSet(np.array([1.0, -1.0]), np.column_stack([E1, 2 * E2]))
    pts = Y.points()
    assert pts.shape == (2, 2)
    back = SampleSet.from_points(Y.x0, np.vstack([pts, Y.x0[None, :], pts[:1]]))
    # the center row and the duplicate row must both collapse away
    assert back.m == 2
    assert np.allclose(np.sort(back.D, axis=1), np.sort(Y.D, axis=1))


def test_from_points_needs_offsets():
    with pytest.raises(InvalidInputError):
        SampleSet.from_points(np.zeros(2), np.zeros((3, 2)))


# Pairwise loops that the vectorized passes replaced, kept as the reference.
def _validate_directions_loop(D):
    if D.shape[1] < 1:
        raise InvalidInputError("a sample set needs at least one direction")
    norms = np.linalg.norm(D, axis=0)
    if np.any(norms == 0.0):
        raise InvalidInputError("zero direction in sample set")
    for i in range(D.shape[1]):
        for j in range(i + 1, D.shape[1]):
            gap = np.linalg.norm(D[:, i] - D[:, j])
            if gap <= 1e-12 * max(norms[i], norms[j]):
                raise InvalidInputError(f"duplicate directions at columns {i} and {j}")


def _from_points_loop(x0, points):
    """Kept offsets, one per row, in the order ``from_points`` keeps them."""
    offsets = np.asarray(points, dtype=float) - x0[None, :]
    scale = float(np.max(np.linalg.norm(offsets, axis=1), initial=0.0))
    if scale == 0.0:
        raise InvalidInputError("no nonzero offsets among the points")
    kept = []
    for off in offsets:
        if np.linalg.norm(off) <= 1e-14 * scale:
            continue
        if any(np.linalg.norm(off - k) <= 1e-10 * scale for k in kept):
            continue
        kept.append(off)
    return np.asarray(kept)


def _verdict(fn, *args):
    try:
        fn(*args)
    except InvalidInputError as exc:
        return str(exc)
    return None


# Relative offsets on either side of the duplicate (1e-12), merge (1e-10) and
# center (1e-14) thresholds.
_NEAR = (0.5e-12, 2e-12, 0.5e-10, 2e-10)
_NEAR_CENTER = (0.0, 0.5e-14, 2e-14)


@st.composite
def _near_duplicate_sets(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    D = rng.standard_normal((n, m)) * draw(st.sampled_from((1.0, 1e-6, 1e3)))
    pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1), st.sampled_from(_NEAR))
    for src, dst, rel in draw(st.lists(pairs, max_size=4)):
        if src != dst:
            u = rng.standard_normal(n)
            D[:, dst] = D[:, src] + rel * np.linalg.norm(D[:, src]) * u / np.linalg.norm(u)
    centers = draw(st.lists(st.sampled_from(_NEAR_CENTER), max_size=3))
    return D, centers


@settings(max_examples=300, deadline=None)
@given(case=_near_duplicate_sets(), x0_seed=st.integers(0, 1000))
def test_vectorized_validation_matches_pairwise_loops(case, x0_seed):
    D, centers = case
    n = D.shape[0]
    assert _verdict(_validate_directions, D) == _verdict(_validate_directions_loop, D)

    rng = np.random.default_rng(x0_seed)
    x0 = rng.standard_normal(n)
    scale = float(np.max(np.linalg.norm(D, axis=0)))
    rows = [x0 + d for d in D.T]
    for rel in centers:
        u = rng.standard_normal(n)
        rows.insert(int(rng.integers(0, len(rows) + 1)),
                    x0 + rel * scale * u / np.linalg.norm(u))
    points = np.array(rows)
    expected = _from_points_loop(x0, points)
    Y = SampleSet.from_points(x0, points)
    assert np.array_equal(Y.D, expected.T)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       pairs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                                st.sampled_from((0.0, 0.5e-12, 2e-12))), max_size=3))
def test_expand_checks_antipodes_like_the_full_check(n, p, seed, pairs):
    # near-antipodal pairs d^k ~ -d^i on either side of the 1e-12 threshold
    rng = np.random.default_rng(seed)
    Dhalf = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-6, 3)
    for i, k, rel in pairs:
        i, k = i % p, k % p
        if i != k:
            u = rng.standard_normal(n)
            Dhalf[:, k] = -Dhalf[:, i] + rel * np.linalg.norm(Dhalf[:, i]) * u / np.linalg.norm(u)
    assume(_verdict(_validate_directions_loop, Dhalf) is None)
    half = StructuredSet(rng.standard_normal(n), Dhalf)
    full = np.hstack([Dhalf, -Dhalf])
    want = _verdict(_validate_directions_loop, full)
    assert _verdict(half.expand) == want
    if want is None:
        Y = half.expand()
        assert np.array_equal(Y.D, full) and Y.x0 is half.x0
        assert isinstance(Y, SampleSet)


def test_json_roundtrip(tmp_path):
    Y = SampleSet(np.array([0.5, -0.25]), np.column_stack([E1, E1 + E2]))
    path = tmp_path / "set.json"
    Y.save(path)
    back = SampleSet.load(path)
    assert np.array_equal(back.x0, Y.x0)
    assert np.array_equal(back.D, Y.D)


def test_from_json_dict_errors():
    with pytest.raises(InvalidInputError):
        SampleSet.from_json_dict({"x0": [0, 0]})
    with pytest.raises(InvalidInputError):
        SampleSet.from_json_dict({"x0": [0, 0], "directions": [1, 0]})


def test_structured_expand_and_pack():
    S = StructuredSet(np.zeros(1), np.array([[1.0]]))
    assert np.array_equal(S.expand().D, np.array([[1.0, -1.0]]))

    S = StructuredSet(np.zeros(2), np.eye(2))
    pack = S.as_gsh_pack()
    assert np.array_equal(pack.S, np.eye(2))
    assert len(pack.Ts) == 2
    assert np.array_equal(pack.Ts[0], -np.eye(2)[:, :1])
    assert np.array_equal(pack.Ts[1], -np.eye(2)[:, 1:])

    rng = np.random.default_rng(2)
    St = StructuredSet(np.zeros(3), rng.standard_normal((3, 2)))
    assert St.expand().radius == St.radius
    assert St.expand().m == 2 * St.p


def test_kkt_matrices_plus_minus_frame():
    Y = StructuredSet(np.zeros(2), np.eye(2)).expand()
    km = kkt_matrices(Y)
    expected = 0.25 * np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float
    )
    assert np.array_equal(km.P, expected)


def test_kkt_matrices_single_direction():
    Y = SampleSet(np.zeros(1), np.array([[1.0]]))
    km = kkt_matrices(Y)
    assert np.array_equal(km.P, np.array([[0.25]]))
    # bordered layout: [[P, D^T], [D, 0]]
    assert np.array_equal(km.F_unit, np.array([[0.25, 1.0], [1.0, 0.0]]))


def test_kkt_matrices_properties_random():
    rng = np.random.default_rng(31)
    for _ in range(10):
        Y = SampleSet(rng.standard_normal(3), rng.standard_normal((3, 5)))
        km = kkt_matrices(Y)
        assert np.allclose(km.P, km.P.T)
        assert np.all(km.P >= 0.0) and np.all(km.P <= 0.25 + 1e-15)
        assert np.allclose(np.diag(km.P), 0.25 * (np.linalg.norm(Y.normalized(), axis=0) ** 4))
        assert np.allclose(km.F_unit, km.F_unit.T)
        assert np.allclose(km.F_scaled, km.F_scaled.T)


def _old_kkt_matrices(Y):
    # both bordered matrices built eagerly, as before they were built on read
    Dbar = Y.normalized()
    P = 0.25 * (Dbar.T @ Dbar) ** 2
    n, m = Y.n, Y.m

    def bordered(Dmat, Pblock):
        F = np.zeros((m + n, m + n))
        F[:m, :m] = Pblock
        F[:m, m:] = Dmat.T
        F[m:, :m] = Dmat
        return F

    return P, bordered(Y.D, Y.radius ** 4 * P), bordered(Dbar, P)


def test_kkt_matrices_build_only_what_is_read():
    rng = np.random.default_rng(32)
    for m in (1, 4, 9):
        Y = SampleSet(rng.standard_normal(3), 1e-3 * rng.standard_normal((3, m)))
        P, F_scaled, F_unit = _old_kkt_matrices(Y)
        km = kkt_matrices(Y)
        assert np.array_equal(km.P, P)
        assert "F_scaled" not in vars(km) and "F_unit" not in vars(km)
        assert np.array_equal(km.F_unit, F_unit)
        assert "F_scaled" not in vars(km)
        assert np.array_equal(km.F_scaled, F_scaled)
        assert np.array_equal(kkt_matrices(Y).F_scaled, F_scaled)


def _report_for(Y, f):
    return poisedness(Y, delta_f(f, Y.x0, Y.D))


def test_poisedness_degenerate_axes_r3():
    D = np.column_stack([np.eye(3)[:, 0], -np.eye(3)[:, 0], np.eye(3)[:, 1], -np.eye(3)[:, 1]])
    rep = _report_for(SampleSet(np.zeros(3), D), sphere)
    assert rep.mn_feasible
    assert not rep.mfn_poised
    assert rep.F_cond == np.inf
    assert rep.rank_D == 2


def test_poisedness_full_plus_minus_r2():
    D = np.column_stack([E1, -E1, E2, -E2])
    rep = _report_for(SampleSet(np.zeros(2), D), sphere)
    assert rep.mfn_poised and rep.mn_feasible
    # invertibility cross-checked by a dense determinant
    F = kkt_matrices(SampleSet(np.zeros(2), D)).F_scaled
    assert abs(np.linalg.det(F)) > 1e-12


def test_poisedness_five_point_r2():
    D = np.column_stack([E1, E2, 2 * E1, E1 + E2])
    rep = _report_for(SampleSet(np.zeros(2), D), sphere)
    assert rep.mn_feasible and rep.mfn_poised
    assert np.isfinite(rep.F_cond)


def test_poised_implies_feasible():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = rng.integers(2, 5)
        m = rng.integers(1, 8)
        Y = SampleSet(rng.standard_normal(n), rng.standard_normal((n, m)))
        v = rng.standard_normal(n)

        def f(x, v=v):
            return float(np.dot(x, x) + v @ x + np.sin(x[0]))

        rep = _report_for(Y, f)
        if rep.mfn_poised:
            assert rep.mn_feasible


def test_mn_feasible_flag_scale_invariant():
    # quadratic data stays consistent at every radius, so the flag cannot move
    rng = np.random.default_rng(41)
    A = rng.standard_normal((3, 3))
    A = A + A.T
    b = rng.standard_normal(3)

    def quad(x):
        return float(0.5 * x @ A @ x + b @ x)

    D = np.column_stack([np.eye(3)[:, 0], -np.eye(3)[:, 0], np.eye(3)[:, 1], -np.eye(3)[:, 1]])
    base = SampleSet(rng.standard_normal(3), D)
    flags = set()
    for t in (1.0, 1e-1, 1e-3, 1e-5):
        Y = base.scale(t)
        flags.add(_report_for(Y, quad).mn_feasible)
    assert flags == {True}


def test_poisedness_rejects_wrong_fvals_length():
    Y = SampleSet(np.zeros(2), np.eye(2))
    with pytest.raises(InvalidInputError):
        poisedness(Y, np.zeros(3))


def _inline_mfn_verdict(Y):
    # the verdict as solve_mfn and poisedness each computed it before it was cached
    F = kkt_matrices(Y).F_scaled
    s = np.linalg.svd(F, compute_uv=False)
    return bool(s[-1] > linalg.rank_tolerance(F) * s[0])


def test_mfn_poised_matches_inline_verdict():
    rng = np.random.default_rng(90)
    axes = np.column_stack([np.eye(3), -np.eye(3)])
    sets = [SampleSet(np.zeros(3), t * axes) for t in (1.0, 1e-2, 1e-4, 1e-5, 1e-7)]
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, (n + 1) * (n + 2) // 2))
        sets.append(SampleSet(rng.standard_normal(n), 10.0 ** -rng.integers(0, 7)
                              * rng.standard_normal((n, m))))
    verdicts = set()
    for Y in sets:
        want = _inline_mfn_verdict(Y)
        assert Y.mfn_poised is want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_set_caches_are_read_without_an_svd(monkeypatch):
    Y = SampleSet(np.zeros(2), np.column_stack([E1, -E1, E2, -E2, E1 + E2]))
    first = (Y.mfn_poised, Y.normalized_rank_and_pinv_norm)
    calls = []
    real_svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    assert (Y.mfn_poised, Y.normalized_rank_and_pinv_norm) == first
    assert calls == []
    # a new set of the same geometry factors afresh
    Z = Y.scale(0.5)
    Z.mfn_poised
    assert len(calls) == 1


def test_normalized_rank_and_pinv_norm():
    Y = SampleSet(np.zeros(3), np.column_stack([np.eye(3)[:, :2], -np.eye(3)[:, :2]]))
    rank, norm = Y.normalized_rank_and_pinv_norm
    assert rank == 2
    assert norm == linalg.matrix_norm(linalg.pinv(Y.normalized()), "op1")
