#!/usr/bin/env python3
"""Run every workload untraced and traced, and print one row per workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workloads grid,highdim]

Prints the eight end-to-end metrics (``error_rate`` included, which the
driver-facing result carries as ``failed``/``attempted``), the tail
percentile with its op count, the tracing overhead (untraced over traced
ops/s), the host slowdown the timing metrics were scaled by, and each
layer's self time per op from the traced run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} trace={trace} failed:\n{done.stderr}")
    return json.loads(lines[-2])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24.0)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args(argv)
    names = [w for w in args.workloads.split(",") if w]

    records = {w: (run(w, args.seed, args.seconds, 0), run(w, args.seed, args.seconds, 1))
               for w in names}
    head = ("workload", "setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "tail_at",
            "peak_rss_mb", "error_rate", "bound_coverage", "f_evals_per_op",
            "traced_ops_per_s", "trace_overhead", "host_slowdown", "correct")
    units = ("", "s", "1/s", "ms", "ms", "pct/ops", "MB", "ratio", "ratio", "count",
             "1/s", "x", "x", "")
    rows = []
    for w, (plain, traced) in records.items():
        e = plain["end_to_end"]
        rows.append((
            w, "%.3f" % e["setup_s"], "%.2f" % e["ops_per_s"], "%.2f" % e["op_ms_p50"],
            "%.2f" % e["op_ms_tail"], "p%.1f/%d" % (plain["tail_percentile"], plain["ops"]),
            "%.1f" % e["peak_rss_mb"], "%.4f" % plain["error_rate"],
            "%.4f" % e["bound_coverage"], "%.1f" % e["f_evals_per_op"],
            "%.2f" % traced["end_to_end"]["ops_per_s"],
            "%.2f" % (e["ops_per_s"] / traced["end_to_end"]["ops_per_s"]),
            "%.3f" % plain["host_slowdown"],
            str(plain["correct"] and traced["correct"]).lower(),
        ))
    widths = [max(len(str(r[i])) for r in [head, units] + rows) for i in range(len(head))]
    for r in [head, units] + rows:
        print("  ".join(str(c).rjust(widths[i]) for i, c in enumerate(r)))

    rollups = [m["name"] for m in spec["per_layer"]
               if m["name"].endswith(".self_ms") and m["name"].count(".") == 1]
    print("\nself time per op by layer (ms, traced run)")
    print("workload".rjust(9) + "".join(name[:-len(".self_ms")].rjust(14) for name in rollups))
    for w, (_, traced) in records.items():
        layer = traced["per_layer"]
        print(w.rjust(9) + "".join(("%.3f" % layer[name]).rjust(14) for name in rollups))
    env = next(iter(records.values()))[0]["environment"]
    print("\n" + json.dumps(env))
    return 0 if all(a["correct"] and b["correct"] for a, b in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
