#!/usr/bin/env python3
"""Write the committed reference outputs the benchmark checks every op against.

    python3 perfbench/make_reference.py [grid|highdim|fullquad ...]

Runs every catalogue entry of the named workloads (all three by default)
once through the same op code the benchmark times, and stores the outputs in
``perfbench/reference/<workload>.json``.  Regenerate only for a change that
is stated as numerical, and say so where the change is recorded.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import json  # noqa: E402

import workloads  # noqa: E402
from dfoq import testbed  # noqa: E402


def catalogue(workload):
    """Every distinct op any seed can reach, keyed by reference key."""
    passes = workloads.PASSES[workload]
    if workload == "grid":
        seeds = [0]
    elif workload == "highdim":
        seeds = range(workloads.HIGHDIM_FRAMES)
    else:
        seeds = range(workloads.FULLQUAD_ROTATIONS)
    ops = {}
    for seed in seeds:
        for op in passes(seed, 0):
            ops.setdefault(op.key, op)
    return ops


def sweep_fscale(op):
    argv = list(op.argv)
    name = argv[argv.index("--function") + 1]
    x0 = None
    if "--x0" in argv:
        x0 = [float(v) for v in argv[argv.index("--x0") + 1].split(",")]
    tf = testbed.get(name, x0=x0)
    return 1.0 + abs(float(tf.f(tf.x0)))


def reference_entry(op, scratch):
    raw = workloads.execute(op, workloads.prepare(op), scratch)
    out = workloads.outcome(op, raw, scratch, None)
    if out.errors:
        raise SystemExit(f"{op.key}: {out.errors}")
    if op.kind == "model":
        return workloads.model_record(raw, op.n)
    with open(scratch, encoding="utf-8") as fh:
        rows = workloads.sweep_values(fh.read())
    return {"fscale": sweep_fscale(op), "rows": rows}


def main(names):
    out_dir = os.path.join(ROOT, "perfbench", "_out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = os.path.join(out_dir, f"ref-{os.getpid()}.csv")
    for workload in names or workloads.WORKLOADS:
        ops = catalogue(workload)
        entries = {key: reference_entry(op, scratch) for key, op in sorted(ops.items())}
        path = workloads.reference_path(ROOT, workload)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(entries)} ops -> {os.path.relpath(path, ROOT)}")
    if os.path.exists(scratch):
        os.remove(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
