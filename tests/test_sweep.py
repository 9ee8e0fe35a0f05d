"""Radius sweeps: grids, frames, CSV shape, and bound accounting."""

import numpy as np
import pytest

from dfoq import bounds, linalg, models, testbed
from dfoq.errors import InvalidInputError
from dfoq.sample_sets import SampleSet, poisedness
from dfoq.simplex import Oracle, delta_f
from dfoq.sweep import (
    CSV_HEADER,
    SweepConfig,
    SweepRow,
    count_violations,
    parse_deltas,
    resolve_frame,
    row_to_json_dict,
    rows_to_csv,
    run_sweep,
)

from kkt_blocks import kkt_blocks


def small_config(**overrides):
    base = dict(
        function="sphere",
        set_spec="structured:2",
        model="mn",
        deltas=parse_deltas("1:0.5:4"),
        samples=16,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_parse_deltas():
    assert parse_deltas("1:0.5:4") == (1.0, 0.5, 0.25, 0.125)
    assert parse_deltas("2:0.1:3") == pytest.approx((2.0, 0.2, 0.02))
    for bad in ("1:0.5", "1:0.5:4:9", "a:0.5:3", "1:0.5:x", "1:1:4", "1:0:4", "1:-0.5:4"):
        with pytest.raises(InvalidInputError):
            parse_deltas(bad)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        small_config(deltas=(1.0, 0.5))
    with pytest.raises(InvalidInputError):
        small_config(deltas=(1.0, 0.5, -0.25))
    with pytest.raises(InvalidInputError):
        small_config(deltas=(1.0, 1.0, 0.5))
    with pytest.raises(InvalidInputError):
        small_config(samples=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="deltas must be finite"):
            small_config(deltas=(bad, 0.5, 0.25))


def test_resolve_frame_structured():
    F = resolve_frame("structured:2", 3)
    assert np.array_equal(F, np.eye(3)[:, :2])
    with pytest.raises(InvalidInputError):
        resolve_frame("structured:4", 2)
    with pytest.raises(InvalidInputError):
        resolve_frame("structured:0", 2)
    with pytest.raises(InvalidInputError):
        resolve_frame("structured:x", 2)


def test_resolve_frame_random():
    F = resolve_frame("random:3:7", 4)
    assert F.shape == (4, 3)
    assert np.allclose(np.linalg.norm(F, axis=0), 1.0)
    assert np.array_equal(F, resolve_frame("random:3:7", 4))
    assert not np.array_equal(F, resolve_frame("random:3:8", 4))
    assert np.array_equal(F, resolve_frame("random:3", 4, fallback_seed=7))
    with pytest.raises(InvalidInputError, match="random set needs a seed"):
        resolve_frame("random:3", 4)
    with pytest.raises(InvalidInputError):
        resolve_frame("random:3:7:9", 4)


def test_resolve_frame_file(tmp_path):
    path = tmp_path / "set.json"
    SampleSet(np.zeros(2), np.array([[0.5, 0.0], [0.0, 2.0]])).save(path)
    F = resolve_frame(f"file:{path}", 2)
    assert np.allclose(np.linalg.norm(F, axis=0), 1.0)
    with pytest.raises(InvalidInputError):
        resolve_frame(f"file:{path}", 3)
    with pytest.raises(InvalidInputError):
        resolve_frame("file:", 2)
    with pytest.raises(InvalidInputError):
        resolve_frame("simplex:2", 2)


def test_csv_shape():
    rows = [
        SweepRow(
            delta=0.5, err_f=1e-3, bound_f=None, err_g=2e-2, bound_g=0.125,
            err_dir_aligned_max=0.0, bound_dir_aligned=1.0 / 3.0,
            err_dir_cross_max=0.0, bound_dir_cross=None, poised=False,
        )
    ]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "0.5"
    assert cells[2] == ""
    assert cells[6] == "%.17g" % (1.0 / 3.0)
    assert cells[8] == ""
    assert cells[9] == "false"


def test_csv_header_and_json_keys_follow_the_row_fields():
    assert CSV_HEADER == (
        "delta,err_f,bound_f,err_g,bound_g,err_dir_aligned_max,"
        "bound_dir_aligned,err_dir_cross_max,bound_dir_cross,poised"
    )
    row = SweepRow(
        delta=0.5, err_f=1e-3, bound_f=None, err_g=2e-2, bound_g=0.125,
        err_dir_aligned_max=0.0, bound_dir_aligned=1.0 / 3.0,
        err_dir_cross_max=0.0, bound_dir_cross=None, poised=True,
    )
    doc = row_to_json_dict(row)
    assert ",".join(doc) == CSV_HEADER
    assert doc["bound_f"] is None and doc["poised"] is True and doc["delta"] == 0.5
    assert rows_to_csv([row]).split("\n")[1] == (
        "0.5,0.001,,0.02,0.125,0,0.33333333333333331,0,,true"
    )


def test_sweep_exact_quadratic():
    # pin the dimension: in the sphere's default R^3 the two-direction
    # frame would span a plane only and drop the poised flag
    rows, summary = run_sweep(small_config(x0=(0.0, 0.0)))
    assert len(rows) == 4
    assert all(r.poised for r in rows)
    # quadratic data: the model is exact, every error sits at roundoff
    assert all(r.err_dir_aligned_max <= 1e-12 for r in rows)
    assert all(r.err_f <= 1e-12 for r in rows)
    assert summary["all_bounds_hold"]
    assert summary["violations"] == []
    assert summary["rows_poised"] == 4
    assert summary["rows_checked"] == 4
    assert np.isnan(summary["slope_err_f"])
    assert [r.delta for r in rows] == [1.0, 0.5, 0.25, 0.125]


def test_sweep_exact_quadratic_aligned_slope_is_undefined():
    # every family reproduces the constant Hessian, so the aligned error is
    # roundoff that grows like eps/delta^2; the fit must not report its -2
    for family in ("mn", "mfn", "qs:centred"):
        _, summary = run_sweep(small_config(
            function="convex_quadratic", set_spec="structured:3", model=family,
            deltas=parse_deltas("1:0.5:13"),
        ))
        assert np.isnan(summary["slope_err_dir_aligned"]), (family, summary["slope_err_dir_aligned"])


def test_sweep_forward_preset_rows_are_unbounded():
    rows, summary = run_sweep(small_config(function="exponential", model="qs:forward"))
    for r in rows:
        assert not r.poised
        assert r.bound_f is None and r.bound_g is None
        assert r.bound_dir_aligned is None and r.bound_dir_cross is None
    assert summary["max_interpolation_violation"] > 0
    # nothing was checked, so nothing is reported to hold
    assert summary["rows_checked"] == 0
    assert summary["all_bounds_hold"] is False


def test_sweep_adapted_preset_interpolates_without_directional_bounds():
    rows, _ = run_sweep(small_config(function="exponential", model="qs:adapted-0"))
    for r in rows:
        assert r.poised
        assert r.bound_f is not None and r.bound_g is not None
        assert r.bound_dir_aligned is None and r.bound_dir_cross is None
    # the union of both stencil scalings reaches out to twice the grid radius
    assert [r.delta for r in rows] == [2.0, 1.0, 0.5, 0.25]


def test_sweep_adapted_one_radius():
    rows, _ = run_sweep(small_config(function="exponential", model="qs:adapted-1"))
    assert rows[0].delta == pytest.approx(np.sqrt(5.0))


def test_sweep_centred_preset_has_directional_bounds():
    rows, _ = run_sweep(small_config(function="exponential", model="qs:centred"))
    for r in rows:
        assert r.poised
        assert r.bound_dir_aligned is not None
        assert r.bound_dir_cross is not None


def test_sweep_region_guard():
    cfg = small_config(deltas=(5.0, 4.0, 3.0))
    with pytest.raises(InvalidInputError, match="region"):
        run_sweep(cfg)


def test_sweep_unknown_model():
    with pytest.raises(InvalidInputError, match="unknown model"):
        run_sweep(small_config(model="secant"))
    with pytest.raises(InvalidInputError):
        run_sweep(small_config(model="qs:midpoint"))


def test_count_violations_floor():
    tf = testbed.get("sphere", dim=2)

    def row(err, bound):
        return SweepRow(
            delta=1.0, err_f=err, bound_f=bound, err_g=0.0, bound_g=None,
            err_dir_aligned_max=0.0, bound_dir_aligned=None,
            err_dir_cross_max=0.0, bound_dir_cross=None, poised=True,
        )

    f0 = tf.f(tf.x0)
    floor = 1e3 * np.finfo(float).eps * (1.0 + abs(f0))
    assert count_violations([row(floor / 2, 0.0)], f0) == []
    hits = count_violations([row(10 * floor, floor)], f0)
    assert len(hits) == 1
    assert hits[0]["quantity"] == "err_f"
    assert count_violations([row(10 * floor, None)], f0) == []


def test_summary_structure():
    _, summary = run_sweep(small_config(function="exponential", seed=3))
    assert summary["config"]["set"] == "structured:2"
    assert summary["function"] == "exponential"
    assert summary["dim"] == 2
    assert 1.7 <= summary["slope_err_f"] <= 2.3
    assert summary["all_bounds_hold"]


@pytest.mark.parametrize("model", ["mn", "mfn"])
def test_sweep_poised_column_matches_poisedness(model):
    # the sweep reads the set's cached verdict instead of calling poisedness()
    config = SweepConfig("trigonometric", "structured:3", model, parse_deltas("1:0.1:8"))
    rows, _ = run_sweep(config)
    tf = testbed.get("trigonometric")
    frame = resolve_frame("structured:3", tf.dim)
    verdicts = []
    for delta, row in zip(config.deltas, rows):
        Y = SampleSet(tf.x0, delta * frame).expand()
        want = poisedness(Y, delta_f(Oracle(tf.f), Y.x0, Y.D)).mfn_poised
        assert row.poised is want
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_mfn_sweep_factors_F_unit_once(monkeypatch):
    # every row's solve_mfn and kappa_mH_mfn read the factor of the unit
    # set's F_unit, taken once per sweep
    factored = []
    for name in ("svd", "eigh", "inv"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda A, *a, _fn=fn, **k: factored.append(np.array(A)) or _fn(A, *a, **k))
    # radii below 1, so that no row's F_scaled equals its F_unit
    config = SweepConfig("trigonometric", "structured:3", "mfn", parse_deltas("0.5:0.1:3"))
    rows, _ = run_sweep(config)
    monkeypatch.undo()
    assert all(row.poised and row.bound_f is not None for row in rows)  # kappa_mH_mfn ran
    # the coordinate frame normalizes exactly, so every row's own F_unit
    # would equal this one
    tf = testbed.get("trigonometric")
    frame = resolve_frame("structured:3", tf.dim)
    F_unit = kkt_blocks(SampleSet(tf.x0, frame).expand()).F_unit
    assert sum(np.array_equal(A, F_unit) for A in factored) == 1


@pytest.mark.parametrize("model", ["mfn", "qs:centred", "qs:forward", "qs:adapted-1"])
def test_rows_at_n64_take_no_svd_or_eigh_after_the_first(monkeypatch, model):
    # a sweep builds every row, measures them, then bounds them; in each
    # phase only the first row factors.  The first mfn row factors the unit
    # symmetric set (its half frame, the Hadamard square of its Gram matrix
    # and F_unit); every later row reads those factors and takes mfn_poised
    # from their spectra.  Every qs sweep builds its unit stencil, and merges
    # its points, once before the first row, and kappa_mH_qs factors the
    # unit recipe once.  The measurement factors nothing, and the first
    # row's bounds factor the set's normalized directions.  qs:forward and
    # qs:adapted-1 run at n = 16 (their stencils have O(n^2) points) on a
    # grid that starts at 1e-5, where qs:forward's model meets its
    # interpolation check
    n, grid = (64, "1:0.1:4") if model in ("mfn", "qs:centred") else (16, "1e-5:0.1:4")
    count, at_build, at_measure, at_bounds, merges = [], [], [], [], []
    for name in ("svd", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _f=real, **k: count.append(1) or _f(*a, **k))
    build, measure_rows, kappa_generic = models.build, bounds.measure_rows, bounds.kappa_generic
    monkeypatch.setattr(models, "build",
                        lambda *a, **k: at_build.append(len(count)) or build(*a, **k))

    def measured(*a, **k):
        at_measure.append(len(count))
        out = measure_rows(*a, **k)
        at_measure.append(len(count))
        return out

    monkeypatch.setattr(bounds, "measure_rows", measured)
    monkeypatch.setattr(bounds, "kappa_generic",
                        lambda *a, **k: at_bounds.append(len(count)) or kappa_generic(*a, **k))
    from_offsets = SampleSet.from_offsets
    monkeypatch.setattr(SampleSet, "from_offsets",
                        lambda x0, offsets: merges.append(1) or from_offsets(x0, offsets))
    config = SweepConfig("trigonometric", f"structured:{n}", model,
                         parse_deltas(grid), x0=(0.4,) * n)
    rows, _ = run_sweep(config)
    monkeypatch.undo()
    assert all(row.poised and row.bound_f is not None for row in rows)
    # one kappa_generic call per row: mfn and qs rows take one each
    assert len(at_build) == len(at_bounds) == len(rows)
    assert at_build[1] == at_build[-1] == at_measure[0] == at_measure[1] == at_bounds[0]
    assert at_bounds[1] == len(count)
    assert len(count) > at_build[0]  # the first row's factors
    assert len(merges) == (model != "mfn")


@pytest.mark.parametrize("model", ["qs:forward", "qs:adapted-1"])
def test_qs_row_evaluates_f_once_per_point_of_its_set(monkeypatch, model):
    # a row reads f at x0 and at each point of its merged set, once each,
    # when it is built, and its measurement reads them again from the same
    # oracle: on random:16:3 qs:adapted-1 that is 153 calls, where the
    # recipe's points, rounded apart around x0, took 314 at delta = 0.1
    built = []
    build = models.build

    def counted(family, f, *a, **k):
        oracle = Oracle(f)
        built.append(build(family, oracle, *a, **k))
        return built[-1]

    monkeypatch.setattr(models, "build", counted)
    config = SweepConfig("trigonometric", "random:16:3", model, parse_deltas("0.1:0.01:5"),
                         x0=(0.4,) * 16)
    rows, _ = run_sweep(config)
    monkeypatch.undo()
    assert len(built) == len(rows)
    assert all(b.f.calls == b.Y.m + 1 for b in built)
    assert len({b.Y.m for b in built}) == 1


@pytest.mark.parametrize("model", ["mn", "mfn", "qs:centred", "qs:adapted-1"])
def test_sweep_row_evaluates_x0_and_each_set_point_once(monkeypatch, model):
    # one oracle per row serves the model and the measurement: building the
    # rows, f sees x0 and each point of a row's set once, in one call per
    # row; measuring them, the balls' points in one call per batch (here one
    # batch of every row); oracle_calls counts every point f saw
    calls, sets = [], []
    get, build = testbed.get, models.build

    def counted_get(*args, **kwargs):
        tf = get(*args, **kwargs)
        f = tf.f
        tf.f = lambda X: calls.append(np.array(X, ndmin=2)) or f(X)
        return tf

    def recorded_build(*args, **kwargs):
        built = build(*args, **kwargs)
        sets.append(built.Y)
        return built

    monkeypatch.setattr(testbed, "get", counted_get)
    monkeypatch.setattr(models, "build", recorded_build)
    config = SweepConfig("trigonometric", "random:3:2", model, parse_deltas("0.1:0.1:4"),
                         samples=32)
    rows, summary = run_sweep(config)
    monkeypatch.undo()
    assert len(sets) == len(rows) and len(calls) == len(rows) + 1
    for Y, at_set in zip(sets, calls):
        assert np.array_equal(at_set, np.vstack([Y.x0[None, :], Y.points()]))
    assert calls[-1].shape == (len(rows), config.samples, 3)
    assert summary["oracle_calls"] == sum(len(X) for X in calls[:-1]) + calls[-1][..., 0].size
    assert rows_to_csv(rows).splitlines()[0] == CSV_HEADER


def test_centred_qs_sweep_takes_the_hessian_norm_once(monkeypatch):
    # the cross bound's ||hess f(x0)|| is at the sweep's fixed center
    norms = []
    real = linalg.matrix_norm
    monkeypatch.setattr(linalg, "matrix_norm",
                        lambda M, kind="spectral": norms.append(kind) or real(M, kind))
    config = SweepConfig("trigonometric", "structured:3", "qs:centred", parse_deltas("1:0.1:6"))
    rows, _ = run_sweep(config)
    monkeypatch.undo()
    assert norms.count("spectral") == 1
    tf = testbed.get("trigonometric")
    hess_norm = linalg.matrix_norm(tf.hess(tf.x0), "spectral")
    for delta, row in zip(config.deltas, rows):
        lip = tf.lipschitz_on(tf.x0, row.delta)
        assert row.bound_dir_cross == bounds.directional_bound_gsh_cross(hess_norm, lip.L_hess, delta)


@pytest.mark.parametrize("set_spec", ["structured:3", "random:3:5"])
def test_qs_sweep_takes_kappa_mH_qs_once_on_the_unit_recipe(monkeypatch, set_spec):
    calls = []
    real = bounds.kappa_mH_qs
    monkeypatch.setattr(bounds, "kappa_mH_qs", lambda L, spec: calls.append(L) or real(L, spec))
    config = SweepConfig("trigonometric", set_spec, "qs:centred", parse_deltas("1:0.1:6"))
    rows, _ = run_sweep(config)
    monkeypatch.undo()
    assert calls == [1.0]
    # each row's bound against the one its own recipe's constant gives: the
    # same float on the coordinate frame, which normalizes exactly
    tf = testbed.get("trigonometric")
    unit = SampleSet(tf.x0, resolve_frame(set_spec, tf.dim))
    for delta, row in zip(config.deltas, rows):
        built = models.build("qs:centred", tf.f, unit.scale(delta))
        r = built.Y.radius
        lip = tf.lipschitz_on(tf.x0, r)
        kqs = bounds.kappa_mH_qs(lip.L_grad, models.qs_preset("centred", unit.scale(delta)))
        want = bounds.kappa_generic(lip.L_grad, kqs, built.Y).kappa_ef * r ** 2
        assert row.bound_f is not None
        if set_spec.startswith("structured"):
            assert row.bound_f == want
        else:
            assert row.bound_f == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("model", ["mn", "mfn"])
def test_random_frame_rows_match_sets_factored_per_row(model):
    # rows read the unit set's radius-free factors; against sets built and
    # factored afresh at every radius, verdicts match and bounds agree to
    # their last bits
    config = SweepConfig("trigonometric", "random:3:5", model, parse_deltas("1:0.1:4"))
    rows, _ = run_sweep(config)
    tf = testbed.get("trigonometric")
    frame = resolve_frame("random:3:5", tf.dim)
    for delta, row in zip(config.deltas, rows):
        Y = SampleSet(tf.x0, delta * frame).expand()
        assert row.poised is Y.mfn_poised is True
        r = Y.radius
        lip = tf.lipschitz_on(tf.x0, r)
        kmfn = bounds.kappa_mH_mfn(lip.L_grad, Y)
        consts = bounds.kappa_generic(lip.L_grad, kmfn, Y)
        if model == "mn":
            kmn = bounds.kappa_mH_mn(lip.kappa_g, consts.kappa_eg, r, kmfn, Y)
            consts = bounds.kappa_generic(lip.L_grad, kmn, Y)
        assert row.bound_f == pytest.approx(consts.kappa_ef * r ** 2, rel=1e-12)
        assert row.bound_g == pytest.approx(consts.kappa_eg * r, rel=1e-12)


@pytest.mark.parametrize("model", ["qs:centred", "qs:adapted-0"])
def test_qs_sweep_on_non_spanning_set_has_no_fully_linear_bounds(model):
    # structured:2 in R^3 carries no gradient information along e_3, so no
    # fully linear bound can hold; the directional bounds stay
    rows, summary = run_sweep(SweepConfig("trigonometric", "structured:2", model,
                                          parse_deltas("1:0.1:8")))
    assert all(r.poised for r in rows)
    assert all(r.bound_f is None and r.bound_g is None for r in rows)
    assert summary["violations"] == []
    if model == "qs:centred":
        assert all(r.bound_dir_aligned is not None for r in rows)
        assert summary["rows_checked"] == len(rows)
        assert summary["all_bounds_hold"] is True
    else:
        # every bound cell is blank: no violation, and no pass either
        assert summary["rows_checked"] == 0
        assert summary["all_bounds_hold"] is False
    # the model has no gradient along e_3, so err_g stays at |d f / d x_3|
    assert min(r.err_g for r in rows) > 0.5


def _sweep_rows(function, set_spec, family, grid, x0=None):
    """Every row's built model of a sweep, as run_sweep builds them."""
    tf = testbed.get(function, dim=None if x0 is None else len(x0), x0=x0)
    unit = SampleSet(tf.x0, resolve_frame(set_spec, tf.dim))
    kind, preset = models.parse_family(family)
    stencil = models.QSStencil.of(models.qs_preset(preset, unit), unit.x0) if kind == "qs" else None
    built = [models.build(family, Oracle(tf.f, vectorized=True), unit.scale(d),
                          stencil=stencil and stencil.scale(d)) for d in parse_deltas(grid)]
    return tf, built


def _assert_same_measurement(a, b):
    assert (a.err_f, a.err_g) == (b.err_f, b.err_g)
    for name in ("aligned", "cross"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


GRID_FAMILIES = ("mn", "mfn", "qs:centred", "qs:adapted-0", "qs:adapted-1")
BATCH_CASES = (
    [(tf.name, f"structured:{tf.dim}", family, "1:0.5:13", None)
     for tf in testbed.registry() for family in GRID_FAMILIES]
    # batches of several rows, and of one row each
    + [("quartic", "random:16:3", family, "1:0.1:9", (0.4,) * 16)
       for family in ("mn", "qs:centred")]
    + [("trigonometric", "structured:64", "mfn", "1:0.1:9", (0.4,) * 64)]
)


@pytest.mark.parametrize("function, set_spec, family, grid, x0", BATCH_CASES)
def test_a_batch_of_rows_equals_its_one_row_calls_bitwise(function, set_spec, family, grid, x0):
    tf, built = _sweep_rows(function, set_spec, family, grid, x0)
    batch = bounds.measure_rows(tf, [(b.model, b.Y, b.f) for b in built])
    assert len(batch) == len(built)
    for b, meas in zip(built, batch):
        _assert_same_measurement(meas, bounds.measure_errors(tf, b.model, b.Y, f=b.f))


@pytest.mark.parametrize("n, rows_per_batch", [(3, [13]), (64, [1] * 9)])
def test_sweep_measures_its_rows_in_batches_of_bounded_size(monkeypatch, n, rows_per_batch):
    # tf.f takes the balls of one batch per call: all 13 rows of an n = 3
    # grid sweep in one, each row of an n = 64 sweep alone
    batches = []
    get = testbed.get

    def counted_get(*args, **kwargs):
        tf = get(*args, **kwargs)
        f = tf.f
        tf.f = lambda X: (np.ndim(X) == 3 and batches.append(len(X))) or f(X)
        return tf

    monkeypatch.setattr(testbed, "get", counted_get)
    grid = "1:0.5:13" if n == 3 else "1:0.1:9"
    run_sweep(SweepConfig("trigonometric", f"structured:{n}", "mfn", parse_deltas(grid),
                          x0=(0.4,) * n))
    monkeypatch.undo()
    assert batches == rows_per_batch


# the last cases move the set's rows in the measurement's stack, which
# changes how BLAS rounds the model's values there; the verdict reads none
QS_VERDICT_CASES = (
    [(tf.name, f"structured:{tf.dim}", family, "1:0.5:13", None, 512)
     for tf in testbed.registry() for family in GRID_FAMILIES if family.startswith("qs:")]
    + [(name, spec, "qs:centred", "1:0.1:9", (0.4,) * n, 512) for n in (16, 32, 64)
       for name, spec in (("trigonometric", f"structured:{n}"), ("quartic", f"random:{n}:7"))]
    + [("quartic", "random:32:7", "qs:centred", "1:0.1:9", (0.4,) * 32, samples)
       for samples in (510, 511, 513)]
)


@pytest.mark.parametrize("function, set_spec, family, grid, x0, samples", QS_VERDICT_CASES)
def test_qs_sweep_verdict_is_the_interpolation_check(monkeypatch, function, set_spec, family,
                                                     grid, x0, samples):
    # a qs row's verdict and the summary's violation are interpolation_check's
    # on the row's model, bit for bit, whatever the ball's sample count
    built = []
    build = models.build
    monkeypatch.setattr(models, "build", lambda *a, **k: built.append(build(*a, **k)) or built[-1])
    rows, summary = run_sweep(SweepConfig(function, set_spec, family, parse_deltas(grid), x0=x0,
                                          samples=samples))
    monkeypatch.undo()
    checks = [models.interpolation_check(b.model, b.f, b.Y) for b in built]
    assert [r.poised for r in rows] == [c.passed for c in checks]
    assert summary["max_interpolation_violation"] == max(c.max_violation for c in checks)
