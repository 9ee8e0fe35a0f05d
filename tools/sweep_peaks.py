"""One traced memory peak per benchmark sweep, for before/after memory checks.

The memory counterpart of ``tools/sweep_digest.py``.  Runs every sweep of
the ``grid`` workload, every sweep of the ``highdim`` workload on its random
frame 0, and 40-row sweeps of mn, mfn and qs:centred on ``quartic
random:64:3`` (x0 = 0.4) through ``dfoq.cli.main``, and prints
``<key> peak_kb=<peak>`` per sweep: the ``tracemalloc`` peak of the
measured run, less what was traced when it started.  Each sweep runs once
first, so that the caches it fills (the ball draw, the parser) are warm and
not counted.  The op lists are read from ``perfbench/workloads.py``.

    python tools/sweep_peaks.py > after.txt
    python tools/sweep_peaks.py /path/to/other/checkout > before.txt
    diff before.txt after.txt

The optional argument is the root of the checkout whose ``src/dfoq`` and
``perfbench`` are run; by default it is the checkout holding this script.
BLAS runs on one thread, as in the benchmark and the tests.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import sys
import tempfile
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

LONG_DELTAS = "1:0.625:40"  # 40 rows from 1 down to 1.1e-8


def sweeps(workloads):
    """``(key, argv)`` of every distinct grid sweep, every highdim sweep on
    frame 0 and the 40-row n = 64 sweeps, in run order."""
    seen = {}
    for op in workloads.grid_pass(0, 0) + workloads.highdim_pass(0, 0):
        seen.setdefault(op.key, list(op.argv))
    x0 = ",".join(["0.4"] * 64)
    for family in workloads.HIGHDIM_FAMILIES:
        seen[f"quartic|random:64:3|{family}|rows=40"] = [
            "sweep", "--function", "quartic", "--set", "random:64:3", "--model", family,
            "--deltas", LONG_DELTAS, "--x0", x0]
    return seen.items()


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(args[0] if args else pathlib.Path(__file__).resolve().parents[1])
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from dfoq import cli

    tracemalloc.start()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        for key, sweep_argv in sweeps(workloads):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(sweep_argv + ["--out", out])  # warms the caches
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                rc = cli.main(sweep_argv + ["--out", out])
                peak = tracemalloc.get_traced_memory()[1] - start
            line = f"peak_kb={peak / 1024:.1f}" if rc == 0 else f"exit-{rc}"
            print(f"{key} {line}", flush=True)
    tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
