"""Radius sweeps: grids, frames, CSV shape, and bound accounting."""

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from dfoq import bounds, linalg, models, sweep, testbed
from dfoq.errors import InvalidInputError, NotPoisedError
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


def _dir_row(delta, err_aligned, bound_aligned):
    return SweepRow(delta=delta, err_f=0.0, bound_f=None, err_g=0.0, bound_g=None,
                    err_dir_aligned_max=err_aligned, bound_dir_aligned=bound_aligned,
                    err_dir_cross_max=0.0, bound_dir_cross=None, poised=True)


def test_count_violations_flags_a_nan_error_against_a_bound():
    # nan > bound is false, so a nan error used to pass every check
    hits = count_violations([_dir_row(1e-3, np.nan, 1.0), _dir_row(1e-4, np.nan, None)], 0.0)
    assert [(h["delta"], h["quantity"], h["bound"]) for h in hits] == [
        (1e-3, "err_dir_aligned_max", 1.0)]
    assert np.isnan(hits[0]["error"])


def test_the_slope_fit_drops_what_the_violation_count_calls_roundoff():
    # at these radii numpy's array r**2 is above Python's: a slope floor
    # taken with it sat an ulp below the violation floor, and the fit kept
    # curvature errors that the count called roundoff
    rng, radii = np.random.default_rng(7), []
    while len(radii) < 3:
        r = 10.0 ** -rng.uniform(0.0, 9.0, 100_000)
        radii += r[r ** 2 > np.array([v ** 2 for v in r.tolist()])].tolist()
    radii = sorted(radii[:3], reverse=True)
    f0 = -0.25
    floors = [bounds.ROUNDOFF_FLOOR * (1.0 + abs(f0)) / r ** 2 for r in radii]
    above = [np.nextafter(e, np.inf) for e in floors]
    assert count_violations([_dir_row(r, e, 0.0) for r, e in zip(radii, floors)], f0) == []
    assert np.isnan(bounds.fit_slope(radii, floors, 1.0 + abs(f0), 2))
    assert len(count_violations([_dir_row(r, e, 0.0) for r, e in zip(radii, above)], f0)) == 3
    assert np.isfinite(bounds.fit_slope(radii, above, 1.0 + abs(f0), 2))


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


def _factorizations_per_phase(monkeypatch, config):
    """``(rows, factorizations, merges)`` of a sweep: the SVDs and eigh
    calls taken in each of its build, measure and bounds passes and in
    all, and the stencil merges."""
    count, marks, merges = [], {}, []
    for name in ("svd", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _f=real, **k: count.append(1) or _f(*a, **k))
    for owner, name in ((sweep, "_build"), (bounds, "measure_rows"), (sweep, "_bound_rows")):
        def phase(*a, _f=getattr(owner, name), _name=name, **k):
            start = len(count)
            out = _f(*a, **k)
            marks[_name] = len(count) - start
            return out
        monkeypatch.setattr(owner, name, phase)
    from_offsets = SampleSet.from_offsets
    monkeypatch.setattr(SampleSet, "from_offsets",
                        lambda x0, offsets: merges.append(1) or from_offsets(x0, offsets))
    rows, _ = run_sweep(config)
    monkeypatch.undo()
    return rows, dict(marks, total=len(count)), len(merges)


@pytest.mark.parametrize("function, set_spec, grams", [("trigonometric", "structured:64", 1),
                                                       ("quartic", "random:64:3", 9)])
def test_mn_sweep_takes_its_split_parts_per_frame_and_one_stacked_svd(monkeypatch, function,
                                                                      set_spec, grams):
    # the split system's radius-free parts (one eigh of the m x m Gram
    # matrix) are taken again only where a row's normalized directions
    # change: once on the coordinate frame, whose rows normalize to the same
    # bits, and on each of the 9 rows of a random frame; every row's M is
    # factored by one stacked SVD
    shapes = {"eigh": [], "svd": []}
    for name, seen in shapes.items():
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda A, *a, _f=real, _s=seen, **k: _s.append(np.shape(A)) or _f(A, *a, **k))
    rows, _ = run_sweep(SweepConfig(function, set_spec, "mn", parse_deltas("1:0.1:9"),
                                    x0=(0.4,) * 64))
    m = 128
    assert len(rows) == 9
    assert shapes["eigh"].count((m, m)) == grams
    assert [shape for shape in shapes["svd"] if len(shape) == 3] == [(9, m, m)]
    assert shapes["svd"].count((m, m)) == 0


@pytest.mark.parametrize("model", ["mfn", "qs:centred", "qs:forward", "qs:adapted-1"])
def test_rows_at_n64_take_no_svd_or_eigh_after_the_first(monkeypatch, model):
    # a sweep plans, reads its value table, builds every row from the table
    # in one pass, measures the rows, then bounds them in one pass; only the
    # first row factors, so a sweep of one more row takes no more
    # factorizations in any pass.  The first mfn row factors the unit
    # symmetric set (its half frame, the Hadamard square of its Gram matrix
    # and F_unit); every later row's scaled set reads those factors and takes
    # mfn_poised from their spectra.  Every qs sweep builds its unit stencil,
    # and merges its points, once in its plan, and kappa_mH_qs factors the
    # unit recipe once.  The measurement factors nothing, and the bounds
    # factor the set's normalized directions once.  qs:forward and
    # qs:adapted-1 run at n = 16 (their stencils have O(n^2) points) on a
    # grid that starts at 1e-5, where qs:forward's model meets its
    # interpolation check
    n, start = (64, 1.0) if model in ("mfn", "qs:centred") else (16, 1e-5)
    counts = []
    for grid in (f"{start}:0.1:3", f"{start}:0.1:4"):
        config = SweepConfig("trigonometric", f"structured:{n}", model,
                             parse_deltas(grid), x0=(0.4,) * n)
        rows, factored, merges = _factorizations_per_phase(monkeypatch, config)
        assert all(row.poised and row.bound_f is not None for row in rows)
        assert merges == (model != "mfn")  # one merge per qs sweep
        assert factored["measure_rows"] == 0
        assert (factored["_build"] > 0) == (model == "mfn")  # the first row's factors
        assert factored["_bound_rows"] > 0
        counts.append(factored)
    assert counts[0] == counts[1]


def _unit(tf, set_spec, family):
    """``(half, unit, stencil)`` of a sweep's plan: its unit half frame, the
    set every row scales, and the unit stencil of a qs family (else None)."""
    half = SampleSet(tf.x0, resolve_frame(set_spec, tf.dim))
    kind, preset = models.parse_family(family)
    if kind != "qs":
        return half, half.expand(), None
    stencil = models.QSStencil.of(models.qs_preset(preset, half), half.x0)
    return half, stencil.Y, stencil


def _recorded_f(monkeypatch, calls):
    # every test function made by testbed.get records the batches f reads
    get = testbed.get

    def recorded_get(*args, **kwargs):
        tf = get(*args, **kwargs)
        f = tf.f
        tf.f = lambda X: calls.append((np.array(X, ndmin=2), np.asarray(X).flags.c_contiguous)) or f(X)
        return tf

    monkeypatch.setattr(testbed, "get", recorded_get)


@pytest.mark.parametrize("model", ["qs:forward", "qs:adapted-1"])
def test_qs_row_evaluates_f_once_per_point_of_its_set(monkeypatch, model):
    # the value table holds x0 and each point of a row's merged set once,
    # and the row's model, verdict and measurement all read it: on
    # random:16:3 qs:adapted-1 that is 153 points a row, where the recipe's
    # points, rounded apart around x0, took 314 at delta = 0.1
    calls = []
    _recorded_f(monkeypatch, calls)
    config = SweepConfig("trigonometric", "random:16:3", model, parse_deltas("0.1:0.01:5"),
                         x0=(0.4,) * 16, samples=32)
    rows, summary = run_sweep(config)
    monkeypatch.undo()
    _, unit, _ = _unit(testbed.get("trigonometric", x0=config.x0), "random:16:3", model)
    (table, _), balls = calls[0], calls[1:]
    assert table.shape == (len(rows), unit.m + 1, 16)
    assert all(len(np.unique(points, axis=0)) == unit.m + 1 for points in table)
    assert model != "qs:adapted-1" or unit.m + 1 == 153
    assert sum(len(X) for X, _ in balls) == len(rows)
    assert summary["oracle_calls"] == len(rows) * (unit.m + 1) + len(rows) * config.samples


@pytest.mark.parametrize("model", ["mn", "mfn", "qs:centred", "qs:adapted-1"])
def test_sweep_row_evaluates_x0_and_each_set_point_once(monkeypatch, model):
    # one tf.f call reads the C-ordered value table: x0 and each point of
    # every row's set, the unit set scaled to the row's delta, which the
    # row's model, verdict and measurement share.  Then one call per
    # measurement batch (here one batch of every row) reads the balls, and
    # oracle_calls = rows (m + 1) + rows samples counts every point f saw
    calls = []
    _recorded_f(monkeypatch, calls)
    config = SweepConfig("trigonometric", "random:3:2", model, parse_deltas("0.1:0.1:4"),
                         samples=32)
    rows, summary = run_sweep(config)
    monkeypatch.undo()
    _, unit, _ = _unit(testbed.get("trigonometric"), "random:3:2", model)
    assert len(calls) == 2
    (table, contiguous), (balls, _) = calls
    assert contiguous
    assert table.shape == (len(rows), unit.m + 1, 3)
    for delta, points in zip(config.deltas, table):
        assert np.array_equal(points, unit.scale(delta).evaluation_points())
    assert balls.shape == (len(rows), config.samples, 3)
    assert summary["oracle_calls"] == len(rows) * (unit.m + 1) + len(rows) * config.samples
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


def _one_row_builds(tf, set_spec, family, deltas):
    """``(model, one, f)`` of every row of a sweep, built alone: the row's
    one-row stack ``one`` is the unit set scaled to its delta,
    ``unit.scaled([delta])``, and its model reads f through an oracle f of
    its own, by the one-row solve (mn/mfn) or the unit stencil's
    QSStencil.model (qs)."""
    _, unit, stencil = _unit(tf, set_spec, family)
    built = []
    for d in deltas:
        one, f = unit.scaled([d]), Oracle(tf.f, vectorized=True)
        fv = f.many(one.evaluation_points()[0])
        if stencil is None:
            solve = models.solve_mn_values if family == "mn" else models.solve_mfn_values
            model = solve(one, fv[None])[0].model(0)
        else:
            model = stencil.model(fv, d)
        built.append((model, one, f))
    return built


def _one_row_measurement(tf, model, one, f, samples=bounds.DEFAULT_SAMPLES):
    """measure_rows on the one-row stack ``one``, reading f through ``f``."""
    fv = f.many(one.evaluation_points()[0])[None]
    return bounds.measure_rows(tf, models.ModelStack.of(model), one, fv, samples).row(0)


def _one_row_check(model, one, f):
    """The interpolation report of ``model`` on the one-row stack ``one``,
    reading f through ``f``, as ``(max_violation, passed)``."""
    pts = one.evaluation_points()
    report = models.interpolation_report(models.ModelStack.of(model), pts, f.many(pts[0])[None])
    return float(report.max_violation[0]), bool(report.passed[0])


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
    # measure_rows on every row of a sweep, with f at the rows' sets read
    # from one value table, against measure_errors on each row alone, which
    # reads f through the oracle the row's model was built with
    tf = testbed.get(function, dim=None if x0 is None else len(x0), x0=x0)
    deltas = parse_deltas(grid)
    built = _one_row_builds(tf, set_spec, family, deltas)
    # a plain np.concatenate of the rows' evaluation points: they are
    # C-ordered, so the table is too.  With F-ordered points, tf.f summed
    # the rows of trigonometric structured:64 mfn in another order and
    # err_f read 2.49e-14 where the one-row call reads 7.11e-15
    fv = tf.f(np.concatenate([one.evaluation_points() for _, one, _ in built]))
    batch = bounds.measure_rows(tf, _stack(model for model, _, _ in built),
                                _unit(tf, set_spec, family)[1].scaled(deltas), fv)
    assert batch.err_f.shape == (len(built),)
    for i, (model, one, f) in enumerate(built):
        _assert_same_measurement(batch.row(i), _one_row_measurement(tf, model, one, f))


def _stack(one_row_models):
    """The :class:`models.ModelStack` of one-row models sharing x0."""
    ms = list(one_row_models)
    return models.ModelStack(ms[0].x0, np.array([m.c for m in ms]),
                             np.stack([m.g for m in ms]), np.stack([m.H for m in ms]))


@pytest.mark.parametrize("n, rows_per_batch", [(3, [13]), (64, [1] * 9)])
def test_sweep_measures_its_rows_in_batches_of_bounded_size(monkeypatch, n, rows_per_batch):
    # tf.f takes the value table of every row in one call, then the balls of
    # one batch per call: all 13 rows of an n = 3 grid sweep in one, each row
    # of an n = 64 sweep alone
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
    assert batches == [sum(rows_per_batch)] + rows_per_batch


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
def test_qs_sweep_verdict_is_the_interpolation_check(function, set_spec, family, grid, x0,
                                                     samples):
    # a qs row's verdict and the summary's violation are interpolation_check's
    # on the row's model built alone, bit for bit, whatever the ball's sample
    # count
    rows, summary = run_sweep(SweepConfig(function, set_spec, family, parse_deltas(grid), x0=x0,
                                          samples=samples))
    tf = testbed.get(function, dim=None if x0 is None else len(x0), x0=x0)
    checks = [_one_row_check(model, one, f)
              for model, one, f in _one_row_builds(tf, set_spec, family, parse_deltas(grid))]
    assert [r.poised for r in rows] == [passed for _, passed in checks]
    assert summary["max_interpolation_violation"] == max(worst for worst, _ in checks)


ALL_FAMILIES = ("mn", "mfn", "qs:centred", "qs:forward", "qs:adapted-0", "qs:adapted-1")


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(ALL_FAMILIES), function=st.sampled_from(("trigonometric", "quartic")),
       n=st.sampled_from((2, 3, 16, 64)), structured=st.booleans(), seed=st.integers(0, 9),
       start=st.integers(0, 6), samples=st.sampled_from((16, 64)))
@example("mn", "quartic", 64, False, 3, 6, 64)
@example("mfn", "quartic", 64, False, 7, 6, 64)
@example("qs:centred", "quartic", 64, False, 7, 0, 64)
@example("mn", "trigonometric", 16, True, 0, 6, 16)
@example("qs:forward", "trigonometric", 16, False, 3, 5, 16)
@example("qs:adapted-1", "quartic", 16, False, 3, 6, 16)
def test_sweep_rows_equal_their_one_row_reference_bitwise(family, function, n, structured, seed,
                                                         start, samples):
    # every row of a sweep, read from its one value table, against the row
    # built alone on its one-row stack (_one_row_builds), with its own
    # verdict (the stack's for mn/mfn, the interpolation check for qs), its
    # measurement through its own oracle and the same bounds, at radii from
    # 1 down to 1e-8.  The other qs
    # stencils reach out to 3 times the grid radius, so their grids start at
    # 0.5, and have O(n^2) points, so n = 64 runs them at 16
    wide = family in ("mn", "mfn", "qs:centred")
    n = n if wide else min(n, 16)
    set_spec = f"structured:{n}" if structured else f"random:{n}:{seed}"
    deltas = tuple((1.0 if wide else 0.5) * 10.0 ** -(start + k) for k in range(3))
    config = SweepConfig(function, set_spec, family, deltas, x0=(0.4,) * n, samples=samples)
    rows, summary = run_sweep(config)
    tf = testbed.get(function, x0=config.x0)
    plan = sweep._plan(config, tf)
    want = []
    for delta, (model, one, f) in zip(config.deltas,
                                      _one_row_builds(tf, set_spec, family, config.deltas)):
        poised = (_one_row_check(model, one, f)[1] if plan.stencil is not None
                  else bool(one.mfn_poised()[0]))
        meas = _one_row_measurement(tf, model, one, f, samples)
        want.append(_one_row_bounds(tf, plan, one, poised, meas, delta))
    assert rows_to_csv(rows) == rows_to_csv(want)
    assert summary["rows_poised"] == sum(r.poised for r in want)


def _one_row_bounds(tf, plan, one, poised, meas, delta):
    """The row of the one-row stack ``one`` at radius ``delta`` with its
    verdict ``poised`` and measurement ``meas``, bounded alone by the public
    formulas on the Lipschitz data of its own ball and the unit set's
    radius-free constants."""
    radius, family, Y = float(one.radius[0]), plan.family, plan.unit
    lip = tf.lipschitz_on(tf.x0, radius)
    consts = bound_aligned = cross_table = None
    if family in ("mn", "mfn"):
        bound_aligned = bounds.directional_bound_aligned(lip.L_hess, radius)
        if poised:
            kmfn = bounds.kappa_mH_mfn(lip.L_grad, Y)
            consts = bounds.kappa_generic(lip.L_grad, kmfn, Y)
            if family == "mn":
                kmn = bounds.kappa_mH_mn(lip.kappa_g, consts.kappa_eg, radius, kmfn)
                consts = bounds.kappa_generic(lip.L_grad, kmn, Y)
            norms = np.linalg.norm(one.D[0], axis=0)
            cross_table = bounds.directional_bound_cross(
                consts.kappa_ef, lip.L_hess, radius, norms[:, None], norms[None, :])
    elif poised:
        kqs = bounds.kappa_mH_qs(1.0, plan.stencil.spec)
        try:
            consts = bounds.kappa_generic(lip.L_grad, lip.L_grad * kqs, Y)
        except NotPoisedError:
            pass
    if family == "qs:centred":
        bound_aligned = bounds.directional_bound_aligned(lip.L_hess, delta)
        cross_table = np.full((Y.m, Y.m), bounds.directional_bound_gsh_cross(
            plan.hess_norm, lip.L_hess, delta))
    err_cross, bound_cross = meas.cross_max, None
    if cross_table is not None:
        finite = np.isfinite(meas.cross)
        err_cross = 0.0
        if finite.any():
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = np.where(finite, meas.cross / cross_table, -np.inf)
            i, j = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
            err_cross, bound_cross = float(meas.cross[i, j]), float(cross_table[i, j])
    return SweepRow(
        delta=radius, err_f=meas.err_f, err_g=meas.err_g,
        bound_f=None if consts is None else consts.kappa_ef * radius ** 2,
        bound_g=None if consts is None else consts.kappa_eg * radius,
        err_dir_aligned_max=meas.aligned_max, bound_dir_aligned=bound_aligned,
        err_dir_cross_max=err_cross, bound_dir_cross=bound_cross, poised=poised,
    )
