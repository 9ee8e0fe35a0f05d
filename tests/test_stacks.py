"""Stacked cores against their one-row calls, bit for bit.

A sweep solves, checks, measures and bounds all of its rows at once; each
row must equal the one-row call on that row alone.  The rows here are a unit
set scaled to radii from 1 down to 1e-8, plus radii the test finds where
numpy's array power is not Python's, so that a power taken on the stack
fails the comparison.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfoq import bounds, models, testbed
from dfoq.errors import NotPoisedError
from dfoq.sample_sets import SampleSet
from dfoq.simplex import Oracle
from dfoq.sweep import resolve_frame

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
    """``(tf, unit, stencil, ts, sets, table, fv)``: a sweep's unit set (the
    symmetric set, or a qs stencil's points), its rows' scales and sets,
    and f on the rows' evaluation points from one call."""
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
    # qs rows use t itself in t^2; the other rows their set's radius
    scaled_radius = (lambda t: t) if kind == "qs" else (lambda t: unit.scale(t).radius)
    ts = _scales(rows, 1.0 if family in ("mn", "mfn", "qs:centred") else 0.5, scaled_radius, seed)
    sets = [unit.scale(t) for t in ts]
    table = np.stack([Y.evaluation_points() for Y in sets])
    return tf, unit, stencil, ts, sets, table, tf.f(table)


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
    # solve_mn_values / solve_mfn_values on every row against solve_mn /
    # solve_mfn on each row's set; QSStencil.stack and interpolation_report
    # against QSStencil.model and interpolation_check.  A one-row call is
    # the one-row stack, so the radius powers are also checked against
    # Python's: mfn's multipliers against the F_unit solve divided by r^4,
    # the qs H against the unit-scale H divided by t^2.  The O(n^2)
    # stencils run at n <= 16
    if family not in ("mn", "mfn", "qs:centred"):
        n = min(n, 16)
    tf, _, stencil, ts, sets, table, fv = _case(family, function, n, structured, seed, rows)
    if stencil is None:
        solve = models.solve_mn if family == "mn" else models.solve_mfn
        values = models.solve_mn_values if family == "mn" else models.solve_mfn_values
        stack, lam, kkt = values(sets, fv)
        for i, Y in enumerate(sets):
            model, diag = solve(Oracle(tf.f, vectorized=True), Y)
            _same_model(stack.model(i), model)
            assert np.array_equal(lam[i], diag.multipliers)
            assert kkt[i] == diag.kkt_residual
            if family == "mfn":
                z = Y.F_unit_factor.solve(np.concatenate([fv[i, 1:] - fv[i, 0], np.zeros(n)]))
                assert np.array_equal(lam[i], z[: Y.m] / Y.radius ** 4)
                assert np.array_equal(stack.g[i], z[Y.m:] / Y.radius)
        return
    stack = stencil.stack(fv, ts)
    report = models.interpolation_report(stack, table, fv)
    for i, (t, Y) in enumerate(zip(ts, sets)):
        model = stencil.model(fv[i], t)
        _same_model(stack.model(i), model)
        assert np.array_equal(model.H, stencil.model(fv[i]).H / t ** 2)
        check = models.interpolation_check(model, Oracle(tf.f, vectorized=True), Y)
        assert (report.max_violation[i], report.passed[i]) == tuple(check)


@settings(max_examples=16)
@given(family=st.sampled_from(("mfn", "qs:centred", "qs:adapted-1")),
       samples=st.sampled_from((16, 64)), **cases)
def test_stacked_measurement_equals_its_one_row_calls_bitwise(family, samples, rows, n,
                                                              structured, seed, function):
    if family == "qs:adapted-1":
        n = min(n, 16)
    tf, _, stencil, ts, sets, _, fv = _case(family, function, n, structured, seed, rows)
    stack = models.solve_mfn_values(sets, fv)[0] if stencil is None else stencil.stack(fv, ts)
    meas = bounds.measure_rows(tf, stack, sets, fv, samples)
    for i, Y in enumerate(sets):
        one = bounds.measure_errors(tf, stack.model(i), Y, samples, f=Oracle(tf.f, vectorized=True))
        got = meas.row(i)
        assert (got.err_f, got.err_g) == (one.err_f, one.err_g)
        assert np.array_equal(got.aligned, one.aligned)
        assert np.array_equal(got.cross, one.cross, equal_nan=True)
        assert (meas.aligned_max[i], meas.cross_max[i]) == (one.aligned_max, one.cross_max)


@settings(max_examples=24)
@given(family=st.sampled_from(("mn", "mfn", "qs:centred", "qs:forward")), **cases)
def test_stacked_bounds_equal_their_one_row_calls_bitwise(family, rows, n, structured, seed,
                                                          function):
    # every bound formula on arrays over the rows, as a sweep calls it, against
    # the call on one row's floats and its own set
    if family == "qs:forward":
        n = min(n, 16)
    tf, unit, stencil, ts, sets, _, _ = _case(family, function, n, structured, seed, rows)
    r = np.array([Y.radius for Y in sets])
    lips = [tf.lipschitz_on(tf.x0, x) for x in r]
    L_grad, L_hess, kappa_g = (np.array([getattr(lip, name) for lip in lips])
                               for name in ("L_grad", "L_hess", "kappa_g"))
    hess_norm = 2.5
    aligned = bounds.directional_bound_aligned(L_hess, r)
    gsh_cross = bounds.directional_bound_gsh_cross(hess_norm, L_hess, np.array(ts))
    for i, (lip, t, Y) in enumerate(zip(lips, ts, sets)):
        assert aligned[i] == bounds.directional_bound_aligned(lip.L_hess, Y.radius)
        assert gsh_cross[i] == bounds.directional_bound_gsh_cross(hess_norm, lip.L_hess, t)
    if stencil is not None:
        kqs = bounds.kappa_mH_qs(1.0, stencil.spec)
        try:
            consts = bounds.kappa_generic(L_grad, L_grad * kqs, unit)
        except NotPoisedError:
            with pytest.raises(NotPoisedError):
                bounds.kappa_generic(lips[0].L_grad, lips[0].L_grad * kqs, sets[0])
            return
        for i, (lip, Y) in enumerate(zip(lips, sets)):
            one = bounds.kappa_generic(lip.L_grad, lip.L_grad * kqs, Y)
            assert (consts.kappa_ef[i], consts.kappa_eg[i]) == (one.kappa_ef, one.kappa_eg)
        return
    kmfn = bounds.kappa_mH_mfn(L_grad, unit)
    consts = bounds.kappa_generic(L_grad, kmfn, unit)
    kmn = bounds.kappa_mH_mn(kappa_g, consts.kappa_eg, r, kmfn)
    if family == "mn":
        consts = bounds.kappa_generic(L_grad, kmn, unit)
    norms = np.linalg.norm(np.stack([Y.D for Y in sets]), axis=1)
    tables = bounds.directional_bound_cross(consts.kappa_ef[:, None, None], L_hess[:, None, None],
                                            r[:, None, None], norms[:, :, None], norms[:, None, :])
    for i, (lip, Y) in enumerate(zip(lips, sets)):
        one_kmfn = bounds.kappa_mH_mfn(lip.L_grad, Y)
        one = bounds.kappa_generic(lip.L_grad, one_kmfn, Y)
        one_kmn = bounds.kappa_mH_mn(lip.kappa_g, one.kappa_eg, Y.radius, one_kmfn, Y)
        assert (kmfn[i], kmn[i]) == (one_kmfn, one_kmn)
        if family == "mn":
            one = bounds.kappa_generic(lip.L_grad, one_kmn, Y)
        assert (consts.kappa_ef[i], consts.kappa_eg[i]) == (one.kappa_ef, one.kappa_eg)
        one_norms = np.linalg.norm(Y.D, axis=0)
        want = bounds.directional_bound_cross(one.kappa_ef, lip.L_hess, Y.radius,
                                              one_norms[:, None], one_norms[None, :])
        assert np.array_equal(tables[i], want)
        assert tables[i, 0, 1] == bounds.directional_bound_cross(
            one.kappa_ef, lip.L_hess, Y.radius, one_norms[0], one_norms[1])


def test_the_power_radii_exist_for_every_power():
    # the search above ends: each power differs from numpy's on some radii
    rng = np.random.default_rng(0)
    radii = 10.0 ** -rng.uniform(0.0, 8.0, 20000)
    for k in (2, 3, 4):
        assert any(_numpy_power_differs(float(x), k) for x in radii), k
