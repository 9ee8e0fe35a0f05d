"""Sample-set geometry, serialization, and poisedness diagnostics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dfoq import linalg, testbed
from dfoq.errors import InfeasibleError, InvalidInputError
from dfoq.models import QSStencil, qs_preset, solve_mfn, solve_mn
from dfoq.sample_sets import (
    SampleSet,
    _bordered,
    _symmetric_bordered_rank,
    _validate_directions,
    poisedness,
)
from dfoq.simplex import Oracle, delta_f

from kkt_blocks import kkt_blocks

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


@pytest.mark.parametrize("n", [2, 3, 16, 64])
def test_points_are_c_ordered_on_every_set(n):
    # x0 + D^T alone keeps the transpose's F layout on a symmetric or general
    # set, and a stack of such rows sums in another order under tf.f
    rng = np.random.default_rng(n)
    x0 = rng.standard_normal(n)
    half = SampleSet(x0, rng.standard_normal((n, n)))
    sets = {
        "symmetric": half.expand(),
        "scaled symmetric": half.expand().scale(1e-3),
        "stencil": QSStencil.of(qs_preset("adapted-1", half), x0).Y,
        "general": SampleSet(x0, rng.standard_normal((n, n + 3))),
        "one direction": SampleSet(x0, rng.standard_normal((n, 1))),
    }
    for name, Y in sets.items():
        pts, evaluation = Y.points(), Y.evaluation_points()
        assert pts.flags.c_contiguous and evaluation.flags.c_contiguous, name
        assert np.stack([evaluation, evaluation]).flags.c_contiguous, name
        assert np.array_equal(evaluation, np.vstack([x0[None, :], x0[None, :] + Y.D.T])), name
        assert np.array_equal(pts, evaluation[1:]), name


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


# The passes of one column against the later ones that the Gram screen
# replaced; they match the pairwise loops above and stay fast at m = 560.
def _validate_directions_columns(D):
    if D.shape[1] < 1:
        raise InvalidInputError("a sample set needs at least one direction")
    norms = np.linalg.norm(D, axis=0)
    if np.any(norms == 0.0):
        raise InvalidInputError("zero direction in sample set")
    for i in range(D.shape[1] - 1):
        gaps = np.linalg.norm(D[:, i + 1:] - D[:, i:i + 1], axis=0)
        dup = gaps <= 1e-12 * np.maximum(norms[i], norms[i + 1:])
        if dup.any():
            j = i + 1 + int(np.argmax(dup))
            raise InvalidInputError(f"duplicate directions at columns {i} and {j}")


def _from_points_columns(x0, points):
    """``D`` of ``from_points``, as the kept block's transposed view."""
    offsets = np.asarray(points, dtype=float) - x0[None, :]
    lengths = np.linalg.norm(offsets, axis=1)
    scale = float(np.max(lengths, initial=0.0))
    offsets = offsets[lengths > 1e-14 * scale]
    kept = np.empty_like(offsets)
    count = 0
    for off in offsets:
        if count and np.min(np.linalg.norm(kept[:count] - off, axis=1)) <= 1e-10 * scale:
            continue
        kept[count] = off
        count += 1
    return kept[:count].T


def _verdict(fn, *args):
    try:
        fn(*args)
    except InvalidInputError as exc:
        return str(exc)
    return None


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides \
        and a.tobytes() == b.tobytes()


# Relative offsets on either side of the duplicate (1e-12), merge (1e-10) and
# center (1e-14) thresholds.
_NEAR = (0.5e-12, 2e-12, 0.5e-10, 2e-10)
_NEAR_CENTER = (0.0, 0.5e-14, 2e-14)
# Entry scales: 1e150 and 1e-150 square near the ends of the double range.
_SCALES = (1.0, 1e-6, 1e3, 1e150, 1e-150)
# Small sets, where the pairwise loops run, and sizes up to a full quadratic
# set at n = 32 (m = 560).
_SMALL = 12


@st.composite
def _near_duplicate_sets(draw):
    n = draw(st.one_of(st.integers(1, 4), st.integers(5, 64)))
    m = draw(st.one_of(st.integers(1, _SMALL), st.integers(_SMALL + 1, 560)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from(_SCALES))
    D = rng.standard_normal((n, m)) * scale
    pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1), st.sampled_from(_NEAR))
    for src, dst, rel in draw(st.lists(pairs, max_size=4)):
        if src != dst:
            u = rng.standard_normal(n)
            D[:, dst] = D[:, src] + rel * np.linalg.norm(D[:, src]) * u / np.linalg.norm(u)
    centers = draw(st.lists(st.sampled_from(_NEAR_CENTER), max_size=3))
    return D, centers, scale


@settings(max_examples=300, deadline=None)
@given(case=_near_duplicate_sets(), x0_seed=st.integers(0, 1000))
def test_vectorized_validation_matches_pairwise_loops(case, x0_seed):
    D, centers, entry_scale = case
    n, m = D.shape
    want = _verdict(_validate_directions_columns, D)
    assert _verdict(_validate_directions, D) == want
    if m <= _SMALL:
        assert _verdict(_validate_directions_loop, D) == want

    rng = np.random.default_rng(x0_seed)
    x0 = entry_scale * rng.standard_normal(n)
    scale = float(np.max(np.linalg.norm(D, axis=0)))
    rows = [x0 + d for d in D.T]
    for rel in centers:
        u = rng.standard_normal(n)
        rows.insert(int(rng.integers(0, len(rows) + 1)),
                    x0 + rel * scale * u / np.linalg.norm(u))
    points = np.array(rows)
    expected = _from_points_columns(x0, points)
    Y = SampleSet.from_points(x0, points)
    assert _same_array(Y.D, expected)
    if m <= _SMALL:
        assert np.array_equal(Y.D, _from_points_loop(x0, points).T)


@settings(max_examples=200, deadline=None)
@given(case=_near_duplicate_sets(), x0_seed=st.integers(0, 1000),
       merges=st.lists(st.tuples(st.integers(0, 559), st.integers(0, 559),
                                 st.sampled_from((0.5e-10, 0.999e-10, 1.001e-10, 2e-10))),
                       max_size=4))
def test_from_points_keeps_a_set_the_full_check_accepts(case, x0_seed, merges):
    # offsets on either side of the merge distance, 1e-10 times the largest
    # length: from_points checks only the lengths of what it keeps
    D, _, entry_scale = case
    n, m = D.shape
    rng = np.random.default_rng(x0_seed)
    scale = float(np.max(np.linalg.norm(D, axis=0)))
    for src, dst, rel in merges:
        src, dst = src % m, dst % m
        if src != dst:
            u = rng.standard_normal(n)
            D[:, dst] = D[:, src] + rel * scale * u / np.linalg.norm(u)
    x0 = entry_scale * rng.standard_normal(n)
    Y = SampleSet.from_points(x0, x0[None, :] + D.T)
    full = SampleSet(x0, Y.D)
    assert _same_array(full.D, Y.D) and np.array_equal(full.x0, Y.x0)


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(st.integers(1, 6), st.integers(7, 64)),
       p=st.one_of(st.integers(1, 10), st.integers(11, 280)),
       seed=st.integers(0, 2 ** 32 - 1),
       pairs=st.lists(st.tuples(st.integers(0, 279), st.integers(0, 279),
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
    assume(_verdict(_validate_directions_columns, Dhalf) is None)
    half = SampleSet(rng.standard_normal(n), Dhalf)
    full = np.hstack([Dhalf, -Dhalf])
    want = _verdict(_validate_directions_columns, full)
    if 2 * p <= _SMALL:
        assert _verdict(_validate_directions_loop, full) == want
    assert _verdict(half.expand) == want
    if want is None:
        Y = half.expand()
        assert _same_array(Y.D, full) and Y.x0 is half.x0
        assert isinstance(Y, SampleSet)


def test_lengths_that_square_out_of_range_are_reported():
    # the squares of 1e-170 underflow and those of 1e200 overflow; before,
    # the first read "zero direction" and the second "duplicate directions"
    # because inf <= 1e-12 * inf
    with pytest.raises(InvalidInputError, match="direction 0 is too short: its squared length underflows"):
        SampleSet(np.zeros(2), 1e-170 * np.eye(2))
    with pytest.raises(InvalidInputError, match="direction 0 is too long: its squared length overflows"):
        SampleSet(np.zeros(2), 1e200 * np.eye(2))
    # 1e154 squares to 1e308, inside the range, but a Gram form on the raw
    # entries would overflow: the screen runs on D divided by its largest entry
    Y = SampleSet(np.zeros(2), 1e154 * np.eye(2))
    assert Y.radius == 1e154
    near = 1e154 * np.array([[1.0, 1.0 + 4e-13, 0.0], [0.0, 0.0, 1.0]])
    assert _verdict(SampleSet, np.zeros(2), near) == "duplicate directions at columns 0 and 1"
    assert _verdict(_validate_directions_loop, near) == "duplicate directions at columns 0 and 1"
    with pytest.raises(InvalidInputError, match="direction 1 is too long"):
        SampleSet(np.zeros(2), 1e154 * np.array([[1.0, 1.0], [0.0, 1.0]]))
    # the same checks guard the other ways of making a set
    with pytest.raises(InvalidInputError, match="too short"):
        SampleSet(np.zeros(2), np.eye(2)).scale(1e-170)
    with pytest.raises(InvalidInputError, match="too long"):
        SampleSet(np.zeros(2), np.eye(2)).scale(1e200)
    with pytest.raises(InvalidInputError, match="squares outside the double range"):
        SampleSet.from_points(np.zeros(2), 1e-170 * np.eye(2))
    with pytest.raises(InvalidInputError, match="not all finite"):
        SampleSet.from_points(np.zeros(2), [[np.nan, 0.0], [1.0, 0.0]])
    with pytest.raises(InvalidInputError, match="zero direction"):
        SampleSet(np.zeros(2), np.column_stack([E1, np.zeros(2)]))


def test_from_points_merges_against_kept_offsets_only():
    # b merges into a; c is within the merge distance of b but not of a, and
    # b was dropped, so c stays
    x0 = np.zeros(2)
    a = np.array([1.0, 0.0])
    b = a + np.array([0.0, 0.8e-10])
    c = b + np.array([0.0, 0.8e-10])
    points = np.vstack([a, b, c, 0.5 * a])
    Y = SampleSet.from_points(x0, points)
    assert np.array_equal(Y.D, np.column_stack([a, c, 0.5 * a]))
    assert _same_array(Y.D, _from_points_columns(x0, points))
    assert np.array_equal(Y.D, _from_points_loop(x0, points).T)


def test_screen_flags_duplicates_whose_gram_gap_rounds_in_the_subnormals():
    # 2^40 sets the scale, so the near-duplicate pair divides to about
    # 1e-160 and its Gram entries are subnormal: there a^2 and b^2 round down
    # while ab rounds up, the Gram gap reads one subnormal ulp and 1e-10
    # times the squared length rounds to 0.  The smallest normal number
    # added to the bound keeps the pair a candidate.
    a = float.fromhex("0x1.65d0cad4e421ap-492")
    b = float.fromhex("0x1.65d0cad4e4bf0p-492")
    D = np.array([[2.0 ** 40, a, b]])
    want = "duplicate directions at columns 1 and 2"
    assert _verdict(_validate_directions_loop, D) == want
    assert _verdict(SampleSet, np.zeros(1), D) == want


def test_scaled_set_shares_the_radius_free_factors(monkeypatch):
    rng = np.random.default_rng(33)
    Y = SampleSet(rng.standard_normal(3), rng.standard_normal((3, 7)))
    first = (Y.F_unit_factor, Y.normalized_rank_and_pinv_norm)
    calls = []
    for name in ("svd", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda A, *a, _f=real, _n=name, **k: calls.append(_n) or _f(A, *a, **k))
    Z = Y.scale(1e-3).scale(0.5)
    assert Z.D.tobytes() == (0.5 * (1e-3 * Y.D)).tobytes()
    assert Z.F_unit_factor is first[0]
    assert Z.normalized_rank_and_pinv_norm == first[1]
    assert calls == []
    # the verdict reads the radius-dependent F_scaled: each set takes its own
    assert Z.mfn_poised is _inline_mfn_verdict(Z)
    assert calls == ["svd", "svd"]
    monkeypatch.undo()
    # a scaled set read first factors its origin's F_unit, once for both
    W = SampleSet(Y.x0, Y.D.copy())
    assert W.scale(2.0).F_unit_factor is W.F_unit_factor


def test_scale_gives_the_bytes_of_a_set_built_scaled():
    rng = np.random.default_rng(34)
    Dhalf = rng.standard_normal((4, 3))
    x0 = rng.standard_normal(4)
    for t in (1.0, 0.1, 1e-8):
        half = SampleSet(x0, Dhalf)
        assert half.scale(t).D.tobytes() == SampleSet(x0, t * Dhalf).D.tobytes()
        want = SampleSet(x0, t * Dhalf).expand().D.tobytes()
        assert half.expand().scale(t).D.tobytes() == want
        assert half.scale(t).expand().D.tobytes() == want


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
    S = SampleSet(np.zeros(1), np.array([[1.0]]))
    assert np.array_equal(S.expand().D, np.array([[1.0, -1.0]]))

    S = SampleSet(np.zeros(2), np.eye(2))
    pack = qs_preset("centred", S).pack
    assert np.array_equal(pack.S, np.eye(2))
    assert len(pack.Ts) == 2
    assert np.array_equal(pack.Ts[0], -np.eye(2)[:, :1])
    assert np.array_equal(pack.Ts[1], -np.eye(2)[:, 1:])

    rng = np.random.default_rng(2)
    St = SampleSet(np.zeros(3), rng.standard_normal((3, 2)))
    assert St.expand().radius == St.radius
    assert St.expand().m == 2 * St.m


def _set_bordered(Y):
    # the two bordered matrices as the set builds them: F_scaled for
    # mfn_poised, F_unit for F_unit_factor
    return _bordered(Y, Y.D, Y.radius ** 4), _bordered(Y, Y.normalized(), 1.0)


def test_kkt_matrices_plus_minus_frame():
    Y = SampleSet(np.zeros(2), np.eye(2)).expand()
    _, F_unit = _set_bordered(Y)
    expected = 0.25 * np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float
    )
    assert np.array_equal(F_unit[:4, :4], expected)


def test_kkt_matrices_single_direction():
    Y = SampleSet(np.zeros(1), np.array([[1.0]]))
    _, F_unit = _set_bordered(Y)
    # bordered layout: [[P, D^T], [D, 0]] with P = [[1/4]]
    assert np.array_equal(F_unit, np.array([[0.25, 1.0], [1.0, 0.0]]))


def test_kkt_matrices_properties_random():
    rng = np.random.default_rng(31)
    for _ in range(10):
        Y = SampleSet(rng.standard_normal(3), rng.standard_normal((3, 5)))
        F_scaled, F_unit = _set_bordered(Y)
        P = F_unit[:5, :5]
        assert np.allclose(P, P.T)
        assert np.all(P >= 0.0) and np.all(P <= 0.25 + 1e-15)
        assert np.allclose(np.diag(P), 0.25 * (np.linalg.norm(Y.normalized(), axis=0) ** 4))
        assert np.allclose(F_unit, F_unit.T)
        assert np.allclose(F_scaled, F_scaled.T)


def test_kkt_matrices_build_only_what_is_read():
    # each cache builds its one bordered matrix, byte for byte as the eager
    # builder, and factors exactly that matrix
    rng = np.random.default_rng(32)
    for m in (1, 4, 9):
        Y = SampleSet(rng.standard_normal(3), 1e-3 * rng.standard_normal((3, m)))
        want = kkt_blocks(Y)
        F_scaled, F_unit = _set_bordered(Y)
        assert np.array_equal(F_scaled, want.F_scaled)
        assert np.array_equal(F_unit, want.F_unit)
        assert Y.mfn_poised is (linalg.numerical_rank(want.F_scaled) == m + 3)
        ref = linalg.Factorization.symmetric(want.F_unit)
        assert np.array_equal(Y.F_unit_factor.U, ref.U)
        assert np.array_equal(Y.F_unit_factor.s, ref.s)


def _report_for(Y, f):
    return poisedness(Y, delta_f(f, Y.x0, Y.D))


def test_poisedness_degenerate_axes_r3():
    D = np.column_stack([np.eye(3)[:, 0], -np.eye(3)[:, 0], np.eye(3)[:, 1], -np.eye(3)[:, 1]])
    rep = _report_for(SampleSet(np.zeros(3), D), sphere)
    assert rep.mn_feasible
    assert not rep.mfn_poised
    assert rep.rank_D == 2


def test_poisedness_full_plus_minus_r2():
    D = np.column_stack([E1, -E1, E2, -E2])
    rep = _report_for(SampleSet(np.zeros(2), D), sphere)
    assert rep.mfn_poised and rep.mn_feasible
    # invertibility cross-checked by a dense determinant
    F = kkt_blocks(SampleSet(np.zeros(2), D)).F_scaled
    assert abs(np.linalg.det(F)) > 1e-12


def test_poisedness_five_point_r2():
    D = np.column_stack([E1, E2, 2 * E1, E1 + E2])
    rep = _report_for(SampleSet(np.zeros(2), D), sphere)
    assert rep.mn_feasible and rep.mfn_poised


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


def _cubic_wave(x):
    return float(np.sum(np.sin(x)) + np.sum(x) ** 3)


@settings(max_examples=25)
@given(
    data=st.data(),
    n=st.integers(1, 32),
    exponent=st.floats(0.0, 8.0),
    symmetric=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_mn_feasible_is_solve_mn_verdict(data, n, exponent, symmetric, seed):
    # radii 1 to 1e-8; past m = n(n+3)/2 the cubic data leave the range
    rng = np.random.default_rng(seed)
    q = n * (n + 3) // 2
    if symmetric:
        U = rng.standard_normal((n, data.draw(st.integers(1, max(1, q // 2)))))
        D = np.hstack([U, -U])
    else:
        D = rng.standard_normal((n, data.draw(st.integers(1, q + 3))))
    D *= 10.0 ** -exponent / np.linalg.norm(D, axis=0).max()
    x0 = rng.standard_normal(n)
    f = Oracle(_cubic_wave)
    # a separate set, so that the report factors its own system
    rep = _report_for(SampleSet(x0, D), f)
    try:
        _, diag = solve_mn(f, SampleSet(x0, D))
    except InfeasibleError:
        assert not rep.mn_feasible
    else:
        assert rep.mn_feasible
        assert rep.residual.hex() == diag.kkt_residual.hex()


@pytest.mark.parametrize("n", [8, 16, 32])
def test_fullquad_small_radius_sets_are_mn_feasible(n):
    # the benchmark's fullquad set of (n, 1e-6) at its first rotation:
    # m = n(n+3)/2 unit Gaussian directions.  solve_mn models each of them;
    # an unsplit multiplier system once read them as infeasible, with range
    # residuals 0.13, 0.31 and 0.49 at n = 8, 16 and 32.
    salt, m = 20_260_512, n * (n + 3) // 2
    U = np.random.default_rng([salt, n, 1]).standard_normal((n, m))
    Q, R = np.linalg.qr(np.random.default_rng([salt, n, 1000]).standard_normal((n, n)))
    U = (Q * np.sign(np.diag(R))) @ U
    tf = testbed.get("trigonometric", dim=n)
    Y = SampleSet(tf.x0, 1e-6 * (U / np.linalg.norm(U, axis=0)))
    f = Oracle(tf.f)
    _, diag = solve_mn(f, Y)
    rep = _report_for(Y, f)
    assert rep.mn_feasible
    assert rep.residual == diag.kkt_residual


def test_poisedness_reads_the_solvers_factors(monkeypatch):
    rng = np.random.default_rng(12)
    Y = SampleSet(rng.standard_normal(3), rng.standard_normal((3, 7)))
    f = Oracle(_cubic_wave)
    solve_mn(f, Y)
    solve_mfn(f, Y)
    calls = []
    for name in ("svd", "eigh", "inv"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    rep = _report_for(Y, f)
    # the one SVD is the normalized rank, which the bounds read as well
    assert calls == ["svd"]
    assert _report_for(Y, f) == rep
    assert calls == ["svd"]


def test_poisedness_rejects_wrong_fvals_length():
    Y = SampleSet(np.zeros(2), np.eye(2))
    with pytest.raises(InvalidInputError):
        poisedness(Y, np.zeros(3))


def _inline_mfn_verdict(Y):
    # the verdict as solve_mfn and poisedness each computed it before it was cached
    F = kkt_blocks(Y).F_scaled
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


def test_symmetric_factors_read_the_set_values():
    rng = np.random.default_rng(35)
    x0, Dh = rng.standard_normal(3), rng.standard_normal((3, 2))
    for Y in (SampleSet(x0, np.hstack([Dh, -Dh])), SampleSet(x0, Dh).expand(),
              SampleSet(x0, np.hstack([-Dh, Dh]))):
        sym = Y.symmetric_factors
        assert np.array_equal(sym.Dh, Y.normalized()[:, :2])
        assert np.allclose(sym.half.s, np.linalg.svd(sym.Dh, compute_uv=False))
        assert np.allclose(sym.Dh.T @ sym.half.pinv(), np.eye(2), atol=1e-13)
        assert np.allclose(sym.quartic.s, np.linalg.eigvalsh((sym.Dh.T @ sym.Dh) ** 2)[::-1])
    # directions that are not [Dh, -Dh] column for column, bit for bit
    for D in (np.column_stack([Dh[:, 0], -Dh[:, 0], Dh[:, 1], -Dh[:, 1]]),
              np.hstack([Dh, -Dh, Dh[:, :1] + Dh[:, 1:]]),
              np.hstack([Dh, -np.nextafter(Dh, 0.0)])):
        Y = SampleSet(x0, D)
        assert Y.symmetric_factors is None
        assert Y.mfn_poised is _inline_mfn_verdict(Y)


def test_scaled_symmetric_sets_share_the_origin_factors(monkeypatch):
    # a sweep scales the symmetric set of its half frame, checked once: each
    # scaled set reads the origin's half-frame factors, and its directions
    # are those of the half frame scaled, then expanded (a set of its own)
    rng = np.random.default_rng(36)
    x0, Dh = rng.standard_normal(4), rng.standard_normal((4, 4))
    unit = SampleSet(x0, Dh)
    origin = unit.expand()
    assert unit.expand() is origin  # the symmetric set is checked once
    first = origin.symmetric_factors
    calls = []
    for name in ("svd", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda A, *a, _f=real, _n=name, **k: calls.append(_n) or _f(A, *a, **k))
    for t in (0.5, 1e-3, 1e-8):
        Y = origin.scale(t)
        assert Y.D.tobytes() == unit.scale(t).expand().D.tobytes()
        assert Y.symmetric_factors is first
        assert Y.mfn_poised is (t >= 1e-3)
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(1, 6), st.integers(7, 64)),
       shape=st.sampled_from(("p<n", "p=n", "p>n")),
       structured=st.booleans(), dependent=st.booleans(),
       exponent=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_symmetric_mfn_poised_is_the_rank_of_F_scaled(n, shape, structured, dependent,
                                                        exponent, seed):
    # the rank from the half frame's spectra against the SVD of F_scaled
    assume(n > 1 or shape != "p<n")
    rng = np.random.default_rng(seed)
    p = {"p<n": int(rng.integers(1, max(n, 2))), "p=n": n, "p>n": n + int(rng.integers(1, 4))}[shape]
    frame = rng.standard_normal((n, p))
    if structured:
        frame[:, :min(n, p)] = np.eye(n)[:, :min(n, p)]
    if dependent and p >= 3:
        frame[:, -1] = frame[:, 0] + frame[:, 1]  # a column in the span of two others
    frame /= np.linalg.norm(frame, axis=0)
    # the symmetric set must be valid: at n = 1 a half frame [1, -1] is not
    assume(_verdict(_validate_directions_columns, np.hstack([frame, -frame])) is None)
    unit = SampleSet(rng.standard_normal(n), frame)
    delta = 10.0 ** -exponent
    for Y in (unit.scale(delta).expand(), SampleSet(unit.x0, delta * frame).expand()):
        want = linalg.numerical_rank(kkt_blocks(Y).F_scaled)
        assert _symmetric_bordered_rank(Y.symmetric_factors, Y.radius, n) == want
        assert Y.mfn_poised is (want == Y.m + n)
