"""One digest line per benchmark sweep, model and self-check report, for
byte-for-byte before/after checks.

Runs every sweep of the ``grid`` workload and every sweep of the ``highdim``
workload over its random frames 0-7 through ``dfoq.cli.main``, and prints
``<key> csv=<sha256 of the CSV> summary=<sha256 of the summary JSON>`` per
sweep, so that a stated change to the summaries alone still leaves every CSV
checked byte for byte.  The op lists are read from ``perfbench/workloads.py``.
Then it prints ``<key> stdout=<sha256 of stdout>`` for the ``dfoq model``
JSON of every family on every grid function (its default center and
``structured:<dim>``) and of mn and mfn on ``random:16:3`` (trigonometric
and quartic at x0 = 0.4), and for the ``dfoq verify all`` report.  A call
that exits non-zero prints ``<key> exit-<code>`` instead.

    python tools/sweep_digest.py > after.txt
    python tools/sweep_digest.py /path/to/other/checkout > before.txt
    diff before.txt after.txt

The optional argument is the root of the checkout whose ``src/dfoq`` and
``perfbench`` are run; by default it is the checkout holding this script.
BLAS runs on one thread, as in the benchmark and the tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def sweeps(workloads):
    """``(key, argv)`` of every distinct grid and highdim sweep, in run order."""
    seen = {}
    ops = workloads.grid_pass(0, 0) + [op for frame in range(workloads.HIGHDIM_FRAMES)
                                       for op in workloads.highdim_pass(frame, 0)]
    for op in ops:
        seen.setdefault(op.key, list(op.argv))
    return seen.items()


MODEL_FAMILIES = ("mn", "mfn", "qs:centred", "qs:forward", "qs:adapted-0", "qs:adapted-1")


def one_row_calls(workloads):
    """``(key, argv)`` of every ``dfoq model`` call and of ``dfoq verify all``."""
    calls = []
    for name in workloads.GRID_FUNCTIONS:
        spec = f"structured:{workloads.GRID_DIMS[name]}"
        calls += [(f"model|{name}|{spec}|{family}",
                   ["model", "--function", name, "--set", spec, "--model", family])
                  for family in MODEL_FAMILIES]
    x0 = ",".join(["0.4"] * 16)
    calls += [(f"model|{name}|random:16:3|{family}",
               ["model", "--function", name, "--set", "random:16:3", "--model", family, "--x0", x0])
              for name in ("trigonometric", "quartic") for family in ("mn", "mfn")]
    return calls + [("verify|all", ["verify", "all"])]


def _line(key, rc, **fields):
    """``<key> <name>=<sha256>`` for each named bytes field."""
    if rc != 0:
        return f"{key} exit-{rc}"
    return " ".join([key] + [f"{name}={hashlib.sha256(data).hexdigest()}" for name, data in fields.items()])


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(args[0] if args else pathlib.Path(__file__).resolve().parents[1])
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from dfoq import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        for key, sweep_argv in sweeps(workloads):
            summary = io.StringIO()
            with contextlib.redirect_stdout(summary):
                rc = cli.main(sweep_argv + ["--out", out])
            with open(out, "rb") as fh:
                csv = fh.read()
            print(_line(key, rc, csv=csv, summary=summary.getvalue().encode()), flush=True)
            os.remove(out)
    for key, call_argv in one_row_calls(workloads):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(call_argv)
        print(_line(key, rc, stdout=stdout.getvalue().encode()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
