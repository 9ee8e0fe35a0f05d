"""Stacked cores against their one-row calls, bit for bit.

A sweep solves, checks, measures and bounds all of its rows at once; each
row must equal the one-row stack at its scale, ``unit.scaled([t])``.  The
rows here are a unit set scaled to radii from 1 down to 1e-8, plus radii the
test finds where numpy's array power is not Python's, so that a power taken
on the stack fails the comparison.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfoq import bounds, linalg, models, sweep, testbed
from dfoq.errors import NotPoisedError
from dfoq.sample_sets import SampleSet
from dfoq.sweep import SweepConfig, resolve_frame, rows_to_csv

ROWS = (1, 2, 9, 13)
DIMS = (2, 3, 16, 64)
PRESETS = ("centred", "forward", "adapted-0", "adapted-1")


def _numpy_power_differs(r, k):
    return (np.array([r]) ** k)[0] != r ** k


def _power_radii(scaled_radius, top, rng):
    """One scale t in [1e-8 top, top] for each of the powers 3, 2 and 4 that
    rows take, such that numpy's array power of ``scaled_radius(t)`` is not
    Python's."""
    found = []
    for k in (3, 2, 4):
        while True:
            t = top * 10.0 ** -rng.uniform(0.0, 8.0)
            if _numpy_power_differs(scaled_radius(t), k):
                found.append(t)
                break
    return found


def _scales(rows, top, scaled_radius, seed):
    """``rows`` scales from ``top`` down to ``1e-8 top``; from four rows on,
    three of them are power radii (:func:`_power_radii`)."""
    ts = (top * np.geomspace(1.0, 1e-8, rows)).tolist() if rows > 1 else [top]
    if rows >= 4:
        ts[1:4] = _power_radii(scaled_radius, top, np.random.default_rng(seed))
    return ts


def _case(family, function, n, structured, seed, rows):
    """``(tf, unit, stencil, ts, scaled, table, fv)``: a sweep's unit set
    (the symmetric set, or a qs stencil's points), its rows' scales and the
    rows ``unit.scaled(ts)``, and f on the rows' evaluation points from one
    call.  Row i's one-row reference is the one-row stack at its scale,
    ``unit.scaled([ts[i]])``."""
    tf = testbed.get(function, x0=(0.4,) * n)
    spec = f"structured:{n}" if structured else f"random:{n}:{seed}"
    half = SampleSet(tf.x0, resolve_frame(spec, n))
    kind, preset = models.parse_family(family)
    stencil = None
    if kind == "qs":
        stencil = models.QSStencil.of(models.qs_preset(preset, half), half.x0)
        unit = stencil.Y
    else:
        unit = half.expand()
    # qs rows use t itself in t^2; the other rows their radius
    scaled_radius = (lambda t: t) if kind == "qs" else (lambda t: float(unit.scaled([t]).radius[0]))
    ts = _scales(rows, 1.0 if family in ("mn", "mfn", "qs:centred") else 0.5, scaled_radius, seed)
    scaled = unit.scaled(ts)
    table = scaled.evaluation_points()
    return tf, unit, stencil, ts, scaled, table, tf.f(table)


def _same_model(a, b):
    assert a.c == b.c
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.H, b.H)


cases = dict(
    rows=st.sampled_from(ROWS), n=st.sampled_from(DIMS), structured=st.booleans(),
    seed=st.integers(0, 9), function=st.sampled_from(("trigonometric", "quartic")),
)


@settings(max_examples=24)
@given(family=st.sampled_from(("mn", "mfn") + tuple(f"qs:{p}" for p in PRESETS)), **cases)
def test_stacked_models_equal_their_one_row_calls_bitwise(family, rows, n, structured, seed,
                                                          function):
    # solve_mn_values / solve_mfn_values on every row against the same call
    # on the row's one-row stack; QSStencil.stack and interpolation_report
    # against QSStencil.model and the one-row report.  A one-row call is
    # the one-row stack, so the radius powers are also checked against
    # Python's: mfn's multipliers against the F_unit solve divided by r^4,
    # the qs H against the unit-scale H divided by t^2.  The O(n^2)
    # stencils run at n <= 16
    if family not in ("mn", "mfn", "qs:centred"):
        n = min(n, 16)
    tf, unit, stencil, ts, scaled, table, fv = _case(family, function, n, structured, seed, rows)
    if stencil is None:
        values = models.solve_mn_values if family == "mn" else models.solve_mfn_values
        stack, lam, kkt = values(scaled, fv)
        for i, t in enumerate(ts):
            one, one_lam, one_kkt = values(unit.scaled([t]), fv[i:i + 1])
            _same_model(stack.model(i), one.model(0))
            assert np.array_equal(lam[i], one_lam[0])
            assert kkt[i] == one_kkt[0]
            if family == "mfn":
                r = scaled.radius[i]
                z = unit.F_unit_factor.solve(np.concatenate([fv[i, 1:] - fv[i, 0], np.zeros(n)]))
                assert np.array_equal(lam[i], z[: unit.m] / float(r) ** 4)
                assert np.array_equal(stack.g[i], z[unit.m:] / r)
        return
    stack = stencil.stack(fv, scaled)
    report = models.interpolation_report(stack, table, fv)
    for i, t in enumerate(ts):
        model = stencil.model(fv[i], t)
        _same_model(stack.model(i), model)
        assert np.array_equal(model.H, stencil.model(fv[i]).H / t ** 2)
        check = models.interpolation_report(models.ModelStack.of(model),
                                            unit.scaled([t]).evaluation_points(), fv[i:i + 1])
        assert (report.max_violation[i], report.passed[i]) == (check.max_violation[0], check.passed[0])


@pytest.mark.parametrize("spec, grams", [("structured:16", 1), ("random:16:3", 9)])
def test_mn_chunks_equal_one_chunk_bytewise(monkeypatch, spec, grams):
    # solve_mn_values in chunks of two rows against the whole 9-row sweep in
    # one chunk: the same bytes, and the same Gram eigh count, so the
    # radius-free parts of a coordinate frame carry across chunks
    tf = testbed.get("quartic", x0=(0.4,) * 16)
    rows = SampleSet(tf.x0, resolve_frame(spec, 16)).expand().scaled(np.geomspace(1.0, 1e-8, 9))
    fv = tf.f(rows.evaluation_points())
    solved, calls = [], {"eigh": [], "svd": []}
    for name, seen in calls.items():
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda A, *a, _f=real, _s=seen, **k: _s.append(np.shape(A)) or _f(A, *a, **k))
    for budget in (linalg.BATCH_FLOATS, 2 * 3 * 32 ** 2):
        monkeypatch.setattr(linalg, "BATCH_FLOATS", budget)
        calls["eigh"].clear()
        stack, lam, kkt = models.solve_mn_values(rows, fv)
        solved.append([a.tobytes() for a in (stack.c, stack.g, stack.H, lam, kkt)])
        assert calls["eigh"] == [(32, 32)] * grams
    assert calls["svd"] == [(9, 32, 32)] + [(2, 32, 32)] * 4 + [(1, 32, 32)]
    assert solved[0] == solved[1]


@settings(max_examples=16)
@given(family=st.sampled_from(("mfn", "qs:centred", "qs:adapted-1")),
       samples=st.sampled_from((16, 64)), **cases)
def test_stacked_measurement_equals_its_one_row_calls_bitwise(family, samples, rows, n,
                                                              structured, seed, function):
    if family == "qs:adapted-1":
        n = min(n, 16)
    tf, unit, stencil, ts, scaled, _, fv = _case(family, function, n, structured, seed, rows)
    stack = models.solve_mfn_values(scaled, fv)[0] if stencil is None else stencil.stack(fv, scaled)
    meas = bounds.measure_rows(tf, stack, scaled, fv, samples)
    for i, t in enumerate(ts):
        one = bounds.measure_rows(tf, models.ModelStack.of(stack.model(i)), unit.scaled([t]),
                                  fv[i:i + 1], samples)
        got = meas.row(i)
        assert (got.err_f, got.err_g) == (one.err_f[0], one.err_g[0])
        assert np.array_equal(got.aligned, one.aligned[0])
        assert np.array_equal(got.cross, one.cross[0], equal_nan=True)
        assert (meas.aligned_max[i], meas.cross_max[i]) == (one.aligned_max[0], one.cross_max[0])


@settings(max_examples=24)
@given(family=st.sampled_from(("mn", "mfn", "qs:centred", "qs:forward")), **cases)
def test_stacked_bounds_equal_their_one_row_calls_bitwise(family, rows, n, structured, seed,
                                                          function):
    # every bound formula on arrays over the rows, as a sweep calls it, against
    # the call on one row's floats and its own set
    if family == "qs:forward":
        n = min(n, 16)
    tf, unit, stencil, ts, scaled, _, _ = _case(family, function, n, structured, seed, rows)
    r = scaled.radius
    lips = [tf.lipschitz_on(tf.x0, x) for x in r]
    L_grad, L_hess, kappa_g = (np.array([getattr(lip, name) for lip in lips])
                               for name in ("L_grad", "L_hess", "kappa_g"))
    hess_norm = 2.5
    aligned = bounds.directional_bound_aligned(L_hess, r)
    gsh_cross = bounds.directional_bound_gsh_cross(hess_norm, L_hess, np.array(ts))
    for i, (lip, t) in enumerate(zip(lips, ts)):
        assert aligned[i] == bounds.directional_bound_aligned(lip.L_hess, float(r[i]))
        assert gsh_cross[i] == bounds.directional_bound_gsh_cross(hess_norm, lip.L_hess, t)
    if stencil is not None:
        kqs = bounds.kappa_mH_qs(1.0, stencil.spec)
        try:
            consts = bounds.kappa_generic(L_grad, L_grad * kqs, unit)
        except NotPoisedError:
            with pytest.raises(NotPoisedError):
                bounds.kappa_generic(lips[0].L_grad, lips[0].L_grad * kqs, unit)
            return
        for i, lip in enumerate(lips):
            one = bounds.kappa_generic(lip.L_grad, lip.L_grad * kqs, unit)
            assert (consts.kappa_ef[i], consts.kappa_eg[i]) == (one.kappa_ef, one.kappa_eg)
        return
    kmfn = bounds.kappa_mH_mfn(L_grad, unit)
    consts = bounds.kappa_generic(L_grad, kmfn, unit)
    kmn = bounds.kappa_mH_mn(kappa_g, consts.kappa_eg, r, kmfn)
    if family == "mn":
        consts = bounds.kappa_generic(L_grad, kmn, unit)
    norms = np.linalg.norm(scaled.D, axis=1)
    tables = bounds.directional_bound_cross(consts.kappa_ef[:, None, None], L_hess[:, None, None],
                                            r[:, None, None], norms[:, :, None], norms[:, None, :])
    for i, (lip, t) in enumerate(zip(lips, ts)):
        # the one-row stack at t: its radius and directions, and the unit
        # set's radius-free constants
        row = unit.scaled([t])
        radius = float(row.radius[0])
        one_kmfn = bounds.kappa_mH_mfn(lip.L_grad, unit)
        one = bounds.kappa_generic(lip.L_grad, one_kmfn, unit)
        one_kmn = bounds.kappa_mH_mn(lip.kappa_g, one.kappa_eg, radius, one_kmfn)
        assert (kmfn[i], kmn[i]) == (one_kmfn, one_kmn)
        if family == "mn":
            one = bounds.kappa_generic(lip.L_grad, one_kmn, unit)
        assert (consts.kappa_ef[i], consts.kappa_eg[i]) == (one.kappa_ef, one.kappa_eg)
        one_norms = np.linalg.norm(row.D[0], axis=0)
        want = bounds.directional_bound_cross(one.kappa_ef, lip.L_hess, radius,
                                              one_norms[:, None], one_norms[None, :])
        assert np.array_equal(tables[i], want)
        assert tables[i, 0, 1] == bounds.directional_bound_cross(
            one.kappa_ef, lip.L_hess, radius, one_norms[0], one_norms[1])


@settings(max_examples=24)
@given(family=st.sampled_from(("mn", "mfn", "qs:centred", "qs:adapted-1")),
       samples=st.sampled_from((16, 64)), **cases)
def test_a_sweeps_stacked_rows_equal_their_one_row_stacks_bitwise(family, samples, rows, n,
                                                                  structured, seed, function):
    # the sweep's own passes on the rows unit.scaled(ts), read from one value
    # table, against the same passes on each row's one-row stack: models,
    # multipliers and kkt residuals (mn/mfn), verdicts, measurement and
    # bounds, the rows' CSV cells included
    if family == "qs:adapted-1":
        n = min(n, 16)
    tf, _, _, ts, _, _, _ = _case(family, function, n, structured, seed, rows)
    spec = f"structured:{n}" if structured else f"random:{n}:{seed}"
    plan = sweep._plan(SweepConfig(function, spec, family, (1.0, 0.5, 0.25), x0=tf.x0), tf)

    def passes(scaled):
        table, fv = sweep._value_table(tf, scaled)
        solved = None
        if plan.stencil is None:
            values = models.solve_mn_values if family == "mn" else models.solve_mfn_values
            solved = values(scaled, fv)
        built, poised, interp = sweep._build(plan, scaled, table, fv)
        meas = bounds.measure_rows(tf, built, scaled, fv, samples)
        return solved, built, poised, interp, meas, sweep._bound_rows(tf, plan, scaled, poised, meas)

    solved, built, poised, interp, meas, bounded = passes(plan.unit.scaled(ts))
    for i, t in enumerate(ts):
        one = passes(plan.unit.scaled([t]))
        if solved is not None:
            _same_model(solved[0].model(i), one[0][0].model(0))
            assert np.array_equal(solved[1][i], one[0][1][0])
            assert solved[2][i] == one[0][2][0]
        _same_model(built.model(i), one[1].model(0))
        assert poised[i] == one[2][0]
        assert interp[i:i + 1] == one[3]
        got, want = meas.row(i), one[4].row(0)
        assert (got.err_f, got.err_g) == (want.err_f, want.err_g)
        assert np.array_equal(got.cross, want.cross, equal_nan=True)
        assert rows_to_csv(bounded[i:i + 1]) == rows_to_csv(one[5])


def test_the_power_radii_exist_for_every_power():
    # the search above ends: each power differs from numpy's on some radii
    rng = np.random.default_rng(0)
    radii = 10.0 ** -rng.uniform(0.0, 8.0, 20000)
    for k in (2, 3, 4):
        assert any(_numpy_power_differs(float(x), k) for x in radii), k
