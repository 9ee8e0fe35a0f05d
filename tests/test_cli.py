"""Command line behavior, exercised in process through main(argv)."""

import json
import shutil
import subprocess

import numpy as np
import pytest

from dfoq import testbed
from dfoq.cli import main
from dfoq.models import build, solve_mn
from dfoq.sample_sets import SampleSet
from dfoq.simplex import Oracle
from dfoq.sweep import SweepConfig, parse_deltas, resolve_frame, rows_to_csv, run_sweep

GOLD_TOL = 1e-10


@pytest.fixture()
def five_point_file(tmp_path):
    D = np.array([[1.0, 0.0, 2.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    path = tmp_path / "plane.json"
    SampleSet(np.zeros(2), D).save(path)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_model_mn_golden(capsys, five_point_file):
    code, doc = run_json(
        capsys, ["model", "--function", "sphere", "--set", f"file:{five_point_file}",
                 "--model", "mn"]
    )
    assert code == 0
    assert np.allclose(doc["g"], [0.0, 0.8], atol=GOLD_TOL)
    assert np.allclose(doc["H"], [[2.0, 0.0], [0.0, 0.4]], atol=GOLD_TOL)
    assert doc["oracle_calls"] == 5
    assert doc["diagnostics"]["kkt_residual"] <= 1e-9


def test_model_mfn_golden(capsys, five_point_file):
    code, doc = run_json(
        capsys, ["model", "--function", "sphere", "--set", f"file:{five_point_file}",
                 "--model", "mfn"]
    )
    assert code == 0
    assert np.allclose(doc["g"], [0.0, 1.0], atol=GOLD_TOL)
    assert np.allclose(doc["H"], [[2.0, 0.0], [0.0, 0.0]], atol=GOLD_TOL)
    assert doc["diagnostics"]["alpha_unique"] is True


def test_model_file_set_semantics(capsys, five_point_file):
    # mn solves on the stored, asymmetric set as it is; qs reads the stored
    # directions as the half frame of a plus-minus set
    stored = SampleSet.load(five_point_file)
    sphere = testbed.get("sphere", dim=2).f
    mn, _ = solve_mn(sphere, stored)
    code, doc = run_json(capsys, ["model", "--function", "sphere", "--set",
                                  f"file:{five_point_file}", "--model", "mn"])
    assert code == 0
    assert doc["g"] == mn.g.tolist() and doc["H"] == mn.H.tolist()

    half = SampleSet(np.array([0.0, 0.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    half_file = five_point_file.replace("plane", "half")
    half.save(half_file)
    f = Oracle(sphere)
    qs = build("qs:adapted-1", f, half)
    code, doc = run_json(capsys, ["model", "--function", "sphere", "--set",
                                  f"file:{half_file}", "--model", "qs:adapted-1"])
    assert code == 0
    assert doc["g"] == qs.model.g.tolist() and doc["H"] == qs.model.H.tolist()
    assert doc["oracle_calls"] == f.calls == qs.Y.m + 1


def test_model_qs_matches_build_bitwise(capsys):
    # dfoq model builds the stencil of the half frame it resolves, at t = 1
    tf = testbed.get("trigonometric")
    half = SampleSet(tf.x0, resolve_frame("random:3:2", tf.dim))
    f = Oracle(tf.f)
    want = build("qs:adapted-1", f, half)
    code, doc = run_json(capsys, ["model", "--function", "trigonometric", "--set",
                                  "random:3:2", "--model", "qs:adapted-1"])
    assert code == 0
    assert doc["c"] == want.model.c
    assert np.array(doc["g"]).tobytes() == want.model.g.tobytes()
    assert np.array(doc["H"]).tobytes() == want.model.H.tobytes()
    assert doc["diagnostics"]["points"] == want.Y.m
    assert doc["oracle_calls"] == f.calls


def test_unknown_model_reported_alike_and_before_the_set(capsys):
    want = "error: unknown model 'cubic', want mn, mfn, or qs:<preset>\n"
    model_args = ["--function", "sphere", "--set", "structured:2", "--model", "cubic"]
    assert main(["model"] + model_args) == 1
    assert capsys.readouterr().err == want
    assert main(["sweep"] + model_args + ["--deltas", "1:0.5:3"]) == 1
    assert capsys.readouterr().err == want
    # a bad model is reported before a bad set
    assert main(["sweep", "--function", "sphere", "--set", "bogus:2", "--model", "cubic",
                 "--deltas", "1:0.5:3"]) == 1
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("family, svds", [("mn", 1), ("mfn", 2), ("qs:centred", 3)])
def test_model_takes_no_extra_factorization(capsys, monkeypatch, family, svds):
    # mn and mfn take the SVD counts they took before the family dispatch
    # was shared; mn in particular never reads the set's poised verdict.
    # qs:centred's stencil factors only the half frame, once: its
    # one-column frames T_i = [-s^i] take their pseudoinverses from one norm
    # each (three SVDs when its recipe ran)
    count = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: count.append(1) or svd(*a, **k))
    assert main(["model", "--function", "trigonometric", "--set", "structured:3",
                 "--model", family]) == 0
    capsys.readouterr()
    assert len(count) <= svds


def test_sweep_has_no_jobs_option(tmp_path, capsys):
    args = ["sweep", "--function", "sphere", "--x0", "0,0", "--set", "structured:2",
            "--model", "mn", "--deltas", "1:0.5:3"]
    assert main(args + ["--jobs", "2"]) == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    assert main(args + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: unknown config keys: jobs\n"


def test_model_qs_diagnostics(capsys):
    code, doc = run_json(
        capsys, ["model", "--function", "sphere", "--x0", "0,0", "--set",
                 "structured:2", "--model", "qs:centred"]
    )
    assert code == 0
    assert doc["diagnostics"]["interpolation_passed"] is True
    assert np.allclose(doc["H"], [[2.0, 0.0], [0.0, 2.0]], atol=GOLD_TOL)


def test_model_infeasible_exit(capsys):
    code = main(["model", "--function", "trigonometric", "--set", "random:4:7",
                 "--model", "mfn"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("infeasible:")


def test_usage_errors(capsys, five_point_file):
    cases = [
        ["model", "--function", "sphere", "--model", "mn"],
        ["model", "--function", "sphere", "--set", "structured:2", "--model", "mn",
         "--x0", "1,a"],
        ["model", "--function", "nosuch", "--set", "structured:2", "--model", "mn"],
        ["model", "--function", "sphere", "--set", "structured:2", "--model", "cubic"],
        ["model", "--function", "sphere", "--set", f"file:{five_point_file}",
         "--model", "mn", "--x0", "0,0"],
        ["sweep", "--function", "sphere", "--set", "structured:2", "--model", "mn",
         "--deltas", "1:2:4"],
        ["model", "--bogus-flag"],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["model", "sweep"])
@pytest.mark.parametrize("set_args, want", [
    (["--set", "random:3:x"], "error: bad random set seed x, want an integer >= 0\n"),
    (["--set", "random:3:-1"], "error: bad random set seed -1, want an integer >= 0\n"),
    (["--set", "random:3", "--seed", "-4"],
     "error: bad random set seed -4, want an integer >= 0\n"),
])
def test_bad_random_set_seed_exits_1(capsys, command, set_args, want):
    # numpy's own ValueError for these seeds used to escape with a traceback
    argv = [command, "--function", "sphere", "--model", "mn"] + set_args
    if command == "sweep":
        argv += ["--deltas", "1:0.5:4"]
    assert main(argv) == 1
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("grid", ["nan:0.5:4", "inf:0.5:4"])
def test_non_finite_delta_grid_exits_1_before_any_row(capsys, grid):
    argv = ["sweep", "--function", "sphere", "--set", "structured:3", "--model", "mn",
            "--deltas", grid]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: deltas must be finite\n"


@pytest.mark.parametrize("model, stretch", [("mn", 1), ("mfn", 1), ("qs:centred", 1),
                                            ("qs:adapted-0", 2)])
@pytest.mark.parametrize("start", ["1000", "5"])
def test_out_of_region_grid_exits_1_before_f_is_evaluated(capsys, monkeypatch, model, stretch,
                                                         start):
    # every radius is checked before f is read: at radius 1000 exp
    # overflows, which would warn (an error under the tests' warning filter)
    # and fail the sweep with exit 2 instead of the region error
    calls, get = [], testbed.get

    def counted_get(*args, **kwargs):
        tf = get(*args, **kwargs)
        f = tf.f
        tf.f = lambda X: calls.append(1) or f(X)
        return tf

    monkeypatch.setattr(testbed, "get", counted_get)
    argv = ["sweep", "--function", "exponential", "--set", "structured:2", "--model", model,
            "--deltas", f"{start}:0.5:3"]
    assert main(argv) == 1
    radius = stretch * float(start)
    assert capsys.readouterr().err == (
        f"error: radius {radius:g} leaves the region of exponential (limit 2.5)\n")
    assert calls == []


@pytest.mark.parametrize("model", ["mn", "mfn"])
def test_grid_below_the_mn_mfn_radius_limit_exits_1_before_f_is_evaluated(capsys, monkeypatch,
                                                                         model):
    # radius^4 of 1e-100 is not a normal float: the rows used to come out
    # nan and the summary to read all_bounds_hold true
    calls, get = [], testbed.get

    def counted_get(*args, **kwargs):
        tf = get(*args, **kwargs)
        f = tf.f
        tf.f = lambda X: calls.append(1) or f(X)
        return tf

    monkeypatch.setattr(testbed, "get", counted_get)
    argv = ["sweep", "--function", "sphere", "--set", "structured:3", "--model", model,
            "--deltas", "1e-100:0.5:3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: radius 1e-100 is too small for mn and mfn (limit 1.22e-77): "
        "its fourth power is not a normal float\n")
    assert calls == []


@pytest.mark.parametrize("stretch, code", [(1.0000001, 1), (1.01, 1), (1.5, 0)])
def test_mn_just_above_the_radius_limit_checks_its_split_system_or_exits_1(capsys, stretch,
                                                                            code):
    # just above the limit the squares in the split system's consistency
    # tolerance overflowed to inf, so the check passed any data and the
    # sweep exited 0 with all_bounds_hold true; a tolerance or residual
    # that is not finite now refuses the row.  pyproject turns a
    # RuntimeWarning into a failure, so neither side may warn
    radius = stretch * float(np.finfo(float).tiny) ** 0.25
    argv = ["sweep", "--function", "sphere", "--set", "structured:3", "--model", "mn",
            "--deltas", f"{4 * radius!r}:0.5:3"]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == (f"error: radius {radius:g} is too small for mn: the consistency check "
                       "of its split system overflows\n")
    else:
        assert json.loads(err)["rows_checked"] == 3


@pytest.mark.parametrize("argv", [
    ["model", "--function", "sphere", "--set", "structured:2", "--model", "mn"],
    ["sweep", "--function", "sphere", "--set", "structured:2", "--model", "mn",
     "--deltas", "1:0.5:3"],
    ["sweep", "--function", "sphere", "--set", "structured:2", "--model", "mn",
     "--deltas", "1:0.5:3", "--format", "json"],
])
def test_unwritable_out_exits_1_before_any_work_and_leaves_no_file(tmp_path, capsys,
                                                                  monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the test function was built")

    monkeypatch.setattr(testbed, "get", no_work)
    out = tmp_path / "missing" / "x.out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"
    assert list(tmp_path.iterdir()) == []


def test_out_check_keeps_an_existing_file_when_the_work_fails(tmp_path, capsys):
    # the check leaves an existing file as it was when the work then fails
    out = tmp_path / "x.json"
    out.write_text("kept")
    argv = ["model", "--function", "sphere", "--set", "structured:2", "--model", "qs:nope"]
    assert main(argv + ["--out", str(out)]) == 1
    assert out.read_text() == "kept"
    assert main(argv[:-1] + ["mn", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["c"] == 0.0
    capsys.readouterr()


def test_parser_is_built_once_and_parses_alike_after_an_error(tmp_path, capsys):
    from dfoq import cli

    assert cli._build_parser() is cli._build_parser()
    bad = ["sweep", "--function", "sphere", "--bogus-flag"]
    assert main(bad) == 1
    first = capsys.readouterr().err
    assert first == "error: unrecognized arguments: --bogus-flag\n"
    args = ["sweep", "--function", "sphere", "--x0", "0,0", "--set", "structured:2",
            "--model", "mn", "--deltas", "1:0.5:3"]
    out = tmp_path / "rows.csv"
    assert main(args + ["--out", str(out)]) == 0
    config = SweepConfig("sphere", "structured:2", "mn", parse_deltas("1:0.5:3"), x0=(0.0, 0.0))
    assert out.read_text() == rows_to_csv(run_sweep(config)[0])
    capsys.readouterr()
    assert main(bad) == 1
    assert capsys.readouterr().err == first


def test_set_lengths_out_of_double_range_exit_1(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"x0": [0.0, 0.0], "directions": [[1e200, 0.0], [0.0, 1e200]]}))
    assert main(["model", "--function", "sphere", "--set", f"file:{path}", "--model", "mn"]) == 1
    assert capsys.readouterr().err == "error: direction 0 is too long: its squared length overflows\n"
    argv = ["sweep", "--function", "sphere", "--set", "structured:2", "--model", "mfn",
            "--deltas", "1e-170:0.5:3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: direction 0 is too short: its squared length underflows\n"


def test_sweep_csv_deterministic(tmp_path, capsys):
    args = ["sweep", "--function", "exponential", "--x0", "0.1,-0.2",
            "--set", "structured:2", "--model", "mfn", "--deltas", "1:0.5:4",
            "--samples", "32"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    summary_a = json.loads(capsys.readouterr().out)
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert summary_a["all_bounds_hold"] is True


def test_sweep_stdout_csv_with_summary_on_stderr(capsys):
    code = main(["sweep", "--function", "sphere", "--x0", "0,0", "--set",
                 "structured:2", "--model", "mn", "--deltas", "1:0.5:3",
                 "--samples", "16"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("delta,err_f,")
    assert len(captured.out.strip().split("\n")) == 4
    summary = json.loads(captured.err)
    assert summary["rows_poised"] == 3


def test_sweep_json_format(capsys):
    code, doc = run_json(
        capsys, ["sweep", "--function", "sphere", "--x0", "0,0", "--set",
                 "structured:2", "--model", "mn", "--deltas", "1:0.5:3",
                 "--format", "json", "--samples", "16"]
    )
    assert code == 0
    assert len(doc["rows"]) == 3
    # exact quadratic: every error at roundoff, so the slope is undefined
    assert doc["summary"]["slope_err_f"] is None
    assert doc["rows"][0]["poised"] is True


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "function": "exponential", "set": "structured:2", "model": "mfn",
        "deltas": "1:0.5:3", "x0": [0.1, -0.2], "samples": 16,
    }))
    code, doc = run_json(
        capsys, ["sweep", "--config", str(cfg), "--model", "mn", "--format", "json"]
    )
    assert code == 0
    assert doc["summary"]["config"]["model"] == "mn"

    cfg.write_text(json.dumps({"function": "sphere", "mystery": 1}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--samples"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_sweep_rejects_nonpositive_counts(capsys, flag, value):
    code = main(["sweep", "--function", "sphere", "--x0", "0,0", "--set", "structured:2",
                 "--model", "mn", "--deltas", "1:0.5:3", flag, value])
    assert code == 1
    assert capsys.readouterr().err == f"error: {flag[2:]} must be positive\n"


@pytest.mark.parametrize("x0", [3, ["a", 0.1], [[0.1], [0.2]]])
def test_config_x0_must_be_a_list_of_numbers(tmp_path, capsys, x0):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": "sphere", "set": "structured:2",
                               "model": "mn", "x0": x0}))
    assert main(["model", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad x0 value")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key,value", [("samples", "10"), ("samples", 2.5),
                                       ("deltas", [1, "a", 0.1]), ("deltas", 5),
                                       ("seed", "x"), ("seed", True), ("set", 5),
                                       ("out", 3), ("format", ["json"])])
def test_config_values_of_the_wrong_type_exit_1(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": "sphere", "set": "random:2", "model": "mn",
                               "x0": [0.1, 0.2], "deltas": "1:0.5:3", "seed": 1, key: value}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad {key} value {value!r}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key,value", [("x0", [True, 0.5]), ("x0", ["0.3", "0.5"]),
                                       ("deltas", [True, 0.5, 0.25]),
                                       ("deltas", ["0.5", "0.25", "0.125"]),
                                       ("x0", [10 ** 400, 0.5])])
def test_config_lists_take_json_numbers_only(tmp_path, capsys, key, value):
    # true would read as 1.0 and "0.3" as 0.3: each entry must be a JSON
    # number that a float holds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": "sphere", "set": "structured:2", "model": "mn",
                               "x0": [0.1, 0.2], "deltas": "1:0.5:3", key: value}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bad {key} value {value!r}, want ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_config_format_outside_csv_and_json_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": "sphere", "set": "structured:2", "model": "mn",
                               "deltas": "1:0.5:3", "format": "xml"}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: bad format value 'xml', want csv or json\n"
    assert captured.out == ""


@pytest.mark.parametrize("via_config", [False, True])
def test_model_refuses_the_csv_format(tmp_path, capsys, via_config):
    args = ["model", "--function", "sphere", "--set", "structured:2", "--model", "mn"]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        args += ["--config", str(cfg)]
    else:
        args += ["--format", "csv"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: a model is printed as JSON only, not csv\n"
    assert captured.out == ""
    code, doc = run_json(capsys, args[:7] + ["--format", "json"])
    assert code == 0 and "g" in doc


@pytest.mark.parametrize("value", ["1", "1e-20", "abc"])
def test_dfoq_tol_in_the_environment_changes_nothing(capsys, monkeypatch, value):
    # the residual rule has no override, so no threshold in the environment
    # can make qs:forward rows that miss their points poised (3 of 8 are)
    sweep = ["sweep", "--function", "trigonometric", "--set", "structured:3",
             "--model", "qs:forward", "--deltas", "1:0.1:8"]
    infeasible = ["model", "--function", "trigonometric", "--set", "random:4:7", "--model", "mfn"]
    monkeypatch.delenv("DFOQ_TOL", raising=False)
    assert main(sweep) == 0
    unset = capsys.readouterr()
    monkeypatch.setenv("DFOQ_TOL", value)
    assert main(sweep) == 0
    assert capsys.readouterr() == unset
    assert json.loads(unset.err)["rows_poised"] == 3
    assert main(infeasible) == 2
    assert capsys.readouterr().err.startswith("infeasible: ")


_MALFORMED_SETS = {
    "bad-json": '{"x0": [0, 0], "directions": [[1, 0], [0, 1]]',
    "x0-not-numbers": '{"x0": "abc", "directions": [[1, 0], [0, 1]]}',
    "directions-not-numbers": '{"x0": [0, 0], "directions": [["a", "b"]]}',
    "ragged-directions": '{"x0": [0, 0], "directions": [[1, 0], [0]]}',
}


@pytest.mark.parametrize("command", ["model", "sweep"])
@pytest.mark.parametrize("case", ["missing", *_MALFORMED_SETS])
def test_malformed_file_set_exits_1_with_one_error_line(tmp_path, capsys, command, case):
    path = tmp_path / f"{case}.json"
    if case != "missing":
        path.write_text(_MALFORMED_SETS[case])
    argv = [command, "--function", "sphere", "--set", f"file:{path}", "--model", "mn"]
    if command == "sweep":
        argv += ["--deltas", "1:0.5:4"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read sample set {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_verify_subcommand(capsys):
    code = main(["verify", "examples"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_installed_entry_point():
    exe = shutil.which("dfoq")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "verify", "examples"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
