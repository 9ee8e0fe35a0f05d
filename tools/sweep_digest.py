"""One digest line per benchmark sweep, for byte-for-byte before/after checks.

Runs every sweep of the ``grid`` workload and every sweep of the ``highdim``
workload over its random frames 0-7 through ``dfoq.cli.main``, and prints
``<key> <sha256 of the CSV followed by the summary JSON>`` per sweep.  The
op lists are read from ``perfbench/workloads.py``.

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
            digest = hashlib.sha256(csv + summary.getvalue().encode()).hexdigest()
            print(f"{key} {digest}" if rc == 0 else f"{key} exit-{rc}", flush=True)
            os.remove(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
