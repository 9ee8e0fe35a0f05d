"""Command line front end: build models, run sweeps, run self-checks.

Exit codes: 0 success, 1 usage or input error, 2 infeasible model request.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import bounds, testbed, verify
from .errors import EvaluationError, InfeasibleError, InvalidInputError, NotPoisedError
from .models import build
from .sample_sets import SampleSet
from .simplex import Oracle
from .sweep import SweepConfig, parse_deltas, resolve_frame, rows_to_csv, row_to_json_dict, run_sweep


class _UsageError(Exception):
    pass


# output formats of a sweep; a model is printed as JSON only
_FORMATS = ("csv", "json")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser():
    """The argparse tree, built once per process: parsing keeps no state in it."""
    parser = _Parser(prog="dfoq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, deltas=False):
        p.add_argument("--function", help="test function name (see dfoq.testbed)")
        p.add_argument("--x0", help="comma separated center, e.g. 0.2,-0.1")
        p.add_argument("--set", dest="set_spec",
                       help="sample directions: file:<path> | structured:p | random:p:seed")
        p.add_argument("--model", help="mn | mfn | qs:<preset>")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", choices=_FORMATS, default=None)
        p.add_argument("--config", help="JSON file with the same keys; flags override")
        p.add_argument("--seed", type=int, default=None)
        if deltas:
            p.add_argument("--deltas", help="geometric grid start:factor:count")
            p.add_argument("--samples", type=int, default=None)

    common(sub.add_parser("model", help="solve one model and print it as JSON"))
    common(sub.add_parser("sweep", help="rebuild the model per radius, check bounds"),
           deltas=True)
    pv = sub.add_parser("verify", help="run named self-check suites")
    pv.add_argument("suite", nargs="?", default="all", choices=verify.SUITES)
    return parser


def _x0_option(merged):
    """Center from ``--x0`` text ("0.2,-0.1") or a config-file list; None if unset."""
    x0 = merged.get("x0")
    if isinstance(x0, str):
        try:
            return tuple(float(v) for v in x0.split(","))
        except ValueError:
            raise _UsageError(f"bad --x0 value {x0!r}") from None
    if x0 is not None:
        return _numbers(x0, f"bad x0 value {x0!r}, want a list of numbers")
    return None


def _deltas_option(merged):
    """Radii from a "start:factor:count" grid or a config-file list."""
    deltas = merged["deltas"]
    if isinstance(deltas, str):
        return parse_deltas(deltas)
    return _numbers(deltas, f"bad deltas value {deltas!r}, want start:factor:count "
                            "or a list of numbers")


def _numbers(values, error):
    """A config-file list of JSON numbers as floats; anything else (a
    boolean, a string, an integer past the float range) raises ``error``."""
    if isinstance(values, list) and not any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        try:
            return tuple(float(v) for v in values)
        except OverflowError:
            pass
    raise _UsageError(error)


# Config values whose flags argparse types: (JSON type, what is wanted).  x0
# and deltas also take a list and are checked where they are read.
_CONFIG_TYPES = {"seed": (int, "an integer"), "samples": (int, "an integer"),
                 **dict.fromkeys(("function", "set", "model", "out", "format"), (str, "a string"))}


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise _UsageError("config must be a JSON object")
    return data


def _merged(args, keys):
    """Config-file values with explicit flags layered on top."""
    merged = {}
    if getattr(args, "config", None):
        cfg = _load_config(args.config)
        unknown = set(cfg) - set(keys)
        if unknown:
            raise _UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, (kind, want) in _CONFIG_TYPES.items():
            value = cfg.get(key)
            if value is not None and (isinstance(value, bool) or not isinstance(value, kind)):
                raise _UsageError(f"bad {key} value {value!r}, want {want}")
        if cfg.get("format") not in (None,) + _FORMATS:
            raise _UsageError(f"bad format value {cfg['format']!r}, want csv or json")
        merged.update(cfg)
    for key in keys:
        attr = {"set": "set_spec", "format": "fmt"}.get(key, key)
        value = getattr(args, attr, None)
        if value is not None:
            merged[key] = value
    return merged


def _jsonify(value):
    """JSON-safe copy: numpy scalars unwrapped, non-finite floats to null."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _writable(out_path):
    """``out_path``, refused with one error line unless it can be written:
    checked before any work, leaving no file behind."""
    if out_path:
        existed = os.path.exists(out_path)
        try:
            with open(out_path, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise _UsageError(f"cannot write {out_path}: {exc.strerror or exc}") from None
        if not existed:
            os.remove(out_path)
    return out_path


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _require(merged, *keys):
    missing = [k for k in keys if merged.get(k) is None]
    if missing:
        raise _UsageError(f"missing required option(s): {', '.join('--' + k for k in missing)}")


def cmd_model(args):
    merged = _merged(args, ("function", "x0", "set", "model", "out", "format", "seed"))
    _require(merged, "function", "set", "model")
    if merged.get("format") not in (None, "json"):
        raise _UsageError(f"a model is printed as JSON only, not {merged['format']}")
    out = _writable(merged.get("out"))
    x0 = _x0_option(merged)
    set_spec = merged["set"]

    if set_spec.startswith("file:"):
        stored = SampleSet.load(set_spec[len("file:"):])
        if x0 is not None:
            raise _UsageError("--x0 conflicts with file sets; the file carries the center")
        tf = testbed.get(merged["function"], dim=stored.n)
        # mn and mfn solve on the stored set as it is; qs reads it as a half frame
        half, Y = stored, stored
    else:
        tf = testbed.get(merged["function"],
                         dim=len(x0) if x0 is not None else None, x0=x0)
        frame = resolve_frame(set_spec, tf.dim, fallback_seed=merged.get("seed"))
        half, Y = SampleSet(tf.x0, frame), None

    f = Oracle(tf.f, vectorized=True)
    built = build(merged["model"], f, half, Y=Y)
    doc = built.model.to_json_dict()
    doc["diagnostics"] = built.diagnostics_json()
    doc["oracle_calls"] = f.calls
    _emit(json.dumps(_jsonify(doc), indent=2) + "\n", out)
    return 0


def cmd_sweep(args):
    merged = _merged(args, ("function", "x0", "set", "model", "deltas", "samples",
                            "out", "format", "seed"))
    _require(merged, "function", "set", "model", "deltas")
    out = _writable(merged.get("out"))
    # only a missing value takes the default: an explicit 0 must reach validation
    samples = merged.get("samples")
    config = SweepConfig(
        function=merged["function"],
        set_spec=merged["set"],
        model=merged["model"],
        deltas=_deltas_option(merged),
        x0=_x0_option(merged),
        samples=bounds.DEFAULT_SAMPLES if samples is None else samples,
        seed=merged.get("seed"),
    )
    rows, summary = run_sweep(config)
    fmt = merged.get("format") or "csv"
    if fmt == "json":
        doc = {"rows": [row_to_json_dict(r) for r in rows], "summary": summary}
        _emit(json.dumps(_jsonify(doc), indent=2) + "\n", out)
    else:
        _emit(rows_to_csv(rows), out)
        # keep stdout pure CSV when it is the data channel
        target = sys.stdout if out else sys.stderr
        target.write(json.dumps(_jsonify(summary), indent=2) + "\n")
    return 0


def cmd_verify(args):
    checks = verify.run_suite(args.suite)
    print(verify.format_report(checks))
    return 0 if all(c.passed for c in checks) else 2


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "model":
            return cmd_model(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_verify(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleError, NotPoisedError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
