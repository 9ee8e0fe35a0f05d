#!/usr/bin/env python3
"""dfoq benchmark: one closed-loop client, one process, one workload per run.

    python3 perfbench/run.py --workload grid|highdim|fullquad --seed N \\
        --seconds S --trace 0|1

Runs whole passes of the workload's ops until the ops have been busy for
``--seconds``, checks every op against the committed reference, and prints
as its last stdout line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  The line before it is the full run record, which is
also written under ``perfbench/_out/``.

BLAS and OpenMP are pinned to one thread here, before numpy loads; child
processes inherit the setting.
"""

import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    # The benchmark builds nothing: it runs the checkout's own src/dfoq, and
    # refuses to run without it.
    if not os.path.isfile(os.path.join(SRC, "dfoq", "__init__.py")):
        print(f"error: no dfoq package under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import harness

    sys.exit(harness.main(sys.argv[1:], ROOT, BLAS_VARS))
