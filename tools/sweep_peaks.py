"""One traced memory peak per benchmark sweep, for before/after memory checks.

The memory counterpart of ``tools/sweep_digest.py``.  Runs every sweep of
the ``grid`` workload, every sweep of the ``highdim`` workload on its random
frame 0, and 40-row sweeps of mn, mfn and qs:centred on ``quartic
random:64:3`` (x0 = 0.4) through ``dfoq.cli.main``, then the ``fullquad``
workload's n = 32 set on rotation 0 at both radii through ``solve_mn``,
``solve_mfn`` and ``poisedness`` (the general-set path of the cached split
system ``mn_factor``), and prints ``<key> peak_kb=<peak>`` per op: the
``tracemalloc`` peak of the measured run, less what was traced when it
started.  Each op runs once first, so that the caches it fills (the ball
draw, the parser) are warm and not counted, and the heap is collected before
the measured run, so that garbage an earlier op left does not move a line.
The op lists are read from ``perfbench/workloads.py``.

``tracemalloc`` sees numpy's arrays but not the work arrays LAPACK takes
inside a factorization, so a line here is a lower bound on a peak; the
benchmark's ``peak_rss_mb`` stays the judge of memory.

    python tools/sweep_peaks.py > after.txt
    python tools/sweep_peaks.py /path/to/other/checkout > before.txt
    diff before.txt after.txt

The optional argument is the root of the checkout whose ``src/dfoq`` and
``perfbench`` are run; by default it is the checkout holding this script.
BLAS runs on one thread, as in the benchmark and the tests.
"""

from __future__ import annotations

import contextlib
import gc
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


def fullquad_op(workloads, delta):
    """The ``fullquad`` n = 32 model op on rotation 0 at radius ``delta``, up
    to its poisedness report: a fresh set, ``solve_mn`` and ``solve_mfn`` on
    one oracle, then ``poisedness``."""
    from dfoq import models, sample_sets, simplex, testbed

    D = delta * workloads.fullquad_directions(32, delta, 0)

    def op():
        tf = testbed.get("trigonometric", dim=32)
        Y = sample_sets.SampleSet(tf.x0, D)
        f = simplex.Oracle(tf.f)
        models.solve_mn(f, Y)
        models.solve_mfn(f, Y)
        sample_sets.poisedness(Y, simplex.delta_f(f, Y.x0, Y.D))
        return 0
    return op


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(args[0] if args else pathlib.Path(__file__).resolve().parents[1])
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from dfoq import cli

    tracemalloc.start()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        ops = [(key, lambda a=sweep_argv: cli.main(a + ["--out", out]))
               for key, sweep_argv in sweeps(workloads)]
        ops += [(f"fullquad|32|{delta!r}|0", fullquad_op(workloads, delta))
                for delta in workloads.FULLQUAD_DELTAS]
        for key, op in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                op()  # warms the caches
                gc.collect()
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                rc = op()
                peak = tracemalloc.get_traced_memory()[1] - start
            line = f"peak_kb={peak / 1024:.1f}" if rc == 0 else f"exit-{rc}"
            print(f"{key} {line}", flush=True)
    tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
