"""Run loop, metrics and run record of the dfoq benchmark (entry: run.py)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
import workloads

MAX_SETUP_REPEATS = 7
SECONDS_PER_SETUP_REPEAT = 3.0   # a shorter run takes fewer set-up samples
TAIL_BEYOND = 10        # ops beyond the tail percentile
# A run makes at least this many ops, so that the tail op stays among the
# slowest third of a pass's ops however slow the host is.
MIN_OPS = 3 * (TAIL_BEYOND + 1)
MAX_FAILURE_NOTES = 20
# Host speed.  The shared host runs whole minutes up to 50 % faster or slower
# than usual, longer than a run lasts.  A fixed calibration kernel, timed
# about once per busy second through the run, measures that speed; timing
# metrics are scaled to a host on which the kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.030
CALIBRATION_EVERY_S = 1.0
_CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((160, 160))
_SVD = np.linalg.svd    # bound before the tracer wraps numpy.linalg

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"), ("bound_coverage", "ratio"), ("f_evals_per_op", "count"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="run.py", description="dfoq benchmark run")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


class EvalCounter:
    """Counts black-box points evaluated through functions from testbed.get."""

    def __init__(self):
        self.points = 0
        self.batch_points = 0

    def wrap_get(self, get):
        def counted_get(*args, **kwargs):
            tf = get(*args, **kwargs)
            f = tf.f

            def counted_f(x):
                x = np.asarray(x, dtype=float)
                k = x.size // x.shape[-1] if x.ndim > 1 else 1
                self.points += k
                if x.ndim > 1:
                    self.batch_points += k
                return f(x)

            tf.f = counted_f
            return tf

        return counted_get


def setup_probe(args):
    """Child process body: dfoq is imported; generate the first pass's inputs."""
    for op in workloads.PASSES[args.workload](args.seed, 0):
        workloads.prepare(op)
    return 0


def probe_command(args, root, *flags):
    return [sys.executable, *flags, os.path.join(root, "perfbench", "run.py"),
            "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]


def measure_setup(args, root):
    """Wall time from spawning a fresh interpreter to dfoq imported and the
    inputs generated."""
    start = time.perf_counter()
    subprocess.run(probe_command(args, root), check=True, cwd=root,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def measure_imports(args, root):
    done = subprocess.run(probe_command(args, root, "-X", "importtime"), check=True,
                          cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    return tracing.parse_importtime(done.stderr)


def environment(blas_vars):
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "blas_threads": {v: os.environ.get(v) for v in blas_vars},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
    }


class Run:
    """Executes ops of one run and keeps its tallies."""

    def __init__(self, reference, scratch):
        self.reference = reference
        self.scratch = scratch
        self.counter = EvalCounter()
        self.attempted = self.failed = 0
        self.rows = self.covered = self.checked = 0
        self.failures = []

    def op(self, op, tally=True):
        """Execute and check one op; returns (seconds, f points, f points
        evaluated in batches, output bytes).

        Only the call into dfoq is timed.  ``tally=False`` runs an op
        without counting or checking it: a warm-up op, or a re-run whose
        output is compared with a traced one.
        """
        before = self.counter.points, self.counter.batch_points
        ref = self.reference.get(op.key)
        inputs = workloads.prepare(op)
        start, end = time.perf_counter(), None
        try:
            raw = workloads.execute(op, inputs, self.scratch)
            end = time.perf_counter()
            out = workloads.outcome(op, raw, self.scratch, ref)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            if end is None:
                end = time.perf_counter()
            out = workloads.Outcome(b"", 0, 0, 0, [f"{type(exc).__name__}: {exc}"])
        points = self.counter.points - before[0]
        batch = self.counter.batch_points - before[1]
        if tally:
            self.attempted += 1
            self.rows += out.rows
            self.covered += out.covered
            self.checked += out.checked
            errors = out.errors if ref is not None else out.errors + ["no reference entry"]
            if errors:
                self.fail(op, errors)
        return end - start, points, batch, out.output

    def fail(self, op, errors):
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append({"op": op.key, "errors": errors[:5]})


def calibrate():
    """Seconds the calibration kernel takes now: an interpreter loop and
    dense SVDs, the two kinds of work dfoq's ops are made of."""
    start = time.perf_counter()
    acc = {}
    for i in range(60_000):
        acc[i % 97] = acc.get(i % 97, 0.0) + 0.5 * i
    for _ in range(6):
        _SVD(_CALIBRATION_MATRIX)
    return time.perf_counter() - start


def tail(durations):
    """Highest percentile with at least TAIL_BEYOND ops beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def setup_repeats(seconds):
    return max(1, min(MAX_SETUP_REPEATS, int(seconds / SECONDS_PER_SETUP_REPEAT)))


def measure(args, root, run, tracer, setup_samples, calibration):
    """Warm up, then run whole passes until the ops were busy ``--seconds``
    and at least MIN_OPS ops ran.

    Untraced runs also take set-up samples, spread between passes over the
    run so that one slow spell of the host does not set their median.
    Calibration samples are taken between ops, about one per busy second.
    """
    repeats = 0 if tracer else setup_repeats(args.seconds)

    def sample_setup(until):
        while len(setup_samples) < min(until, repeats):
            setup_samples.append(measure_setup(args, root))

    sample_setup(1)
    passes = workloads.PASSES[args.workload]
    # lazy imports and first-call set-up happen here, untallied, on the
    # smallest ops of an extra pass
    warm = passes(args.seed, -1)
    smallest = min(op.n for op in warm)
    for op in warm:
        if op.n == smallest:
            run.op(op, tally=False)
    calibrate()
    calibration.append(calibrate())

    by_group, points, batch_points, first_pass = {}, 0, 0, []
    busy, pass_index = 0.0, 0
    if tracer:
        tracer.install()
    try:
        while busy < args.seconds or run.attempted < MIN_OPS:
            ops = passes(args.seed, pass_index)
            for op in ops:
                if tracer:
                    tracer.op_id += 1
                elapsed, k, batch, output = run.op(op)
                by_group.setdefault(op.group, []).append(elapsed)
                points += k
                batch_points += batch
                busy += elapsed
                if busy >= len(calibration) * CALIBRATION_EVERY_S:
                    calibration.append(calibrate())
                if pass_index == 0:
                    first_pass.append((op, output))
            pass_index += 1
            sample_setup(1 + int(busy * repeats / args.seconds))
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        for op, output in first_pass:
            if run.op(op, tally=False)[3] != output:
                run.fail(op, ["traced output differs from the untraced output"])
    return by_group, points, batch_points, pass_index


def main(argv, root, blas_vars):
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    ref_path = workloads.reference_path(root, args.workload)
    try:
        with open(ref_path, encoding="utf-8") as fh:
            reference = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read reference {ref_path}: {exc}", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, "perfbench", "_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    run = Run(reference, os.path.join(out_dir, f"op-{os.getpid()}.csv"))
    undo = []
    tracing.rebind(workloads.testbed.get, run.counter.wrap_get(workloads.testbed.get), undo)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(blas_vars)}
    if args.trace:
        record["import_ms"] = measure_imports(args, root)
    setup_samples = record["setup_s_samples"] = []
    calibration = record["calibration_s"] = []

    tracer = tracing.Tracer() if args.trace else None
    wall = time.perf_counter()
    try:
        by_group, points, batch_points, passes = measure(args, root, run, tracer, setup_samples,
                                                         calibration)
    finally:
        tracing.restore(undo)
        if os.path.exists(run.scratch):
            os.remove(run.scratch)
    wall = time.perf_counter() - wall

    durations = [t for times in by_group.values() for t in times]
    ops, busy = len(durations), sum(durations)
    tail_s, tail_pct = tail(durations)
    # > 1 on a host running slower than the reference speed
    slowdown = statistics.median(calibration) / CALIBRATION_REF_S
    measured = {
        "setup_s": statistics.median(setup_samples) if setup_samples else None,
        "ops_per_s": ops / busy,
        # median over a pass's ops of each op's mean over the passes: a plain
        # median sits between two op groups and reads their extremes
        "op_ms_p50": 1e3 * statistics.median(statistics.fmean(t) for t in by_group.values()),
        "op_ms_tail": 1e3 * tail_s,
    }
    e2e = {
        "setup_s": measured["setup_s"] and measured["setup_s"] / slowdown,
        "ops_per_s": measured["ops_per_s"] * slowdown,
        "op_ms_p50": measured["op_ms_p50"] / slowdown,
        "op_ms_tail": measured["op_ms_tail"] / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bound_coverage": run.covered / run.rows if run.rows else 0.0,
        "f_evals_per_op": points / ops,
    }
    # a failed op is a wrong output; a run that checked no row against a
    # bound proves nothing, so it fails too
    correct = run.failed == 0 and run.checked > 0
    if run.checked == 0:
        run.failures.append({"op": "*", "errors": ["no row was checked against a bound"]})
    record.update({
        "ops": ops, "passes": passes, "busy_s": busy, "wall_s": wall,
        "host_slowdown": slowdown, "timing_as_measured": measured,
        "tail_percentile": tail_pct, "tail_ops": ops,
        "attempted": run.attempted, "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "rows": run.rows, "rows_covered": run.covered, "rows_checked": run.checked,
        "failures": run.failures, "end_to_end": e2e, "correct": correct,
        "op_seconds": by_group,
    })
    if tracer:
        per_layer = tracer.per_op(ops, batch_points)
        for module in tracing.IMPORT_MODULES:
            ms = record["import_ms"].get(module, 0.0)
            per_layer[f"{module.rsplit('.', 1)[-1]}.import_ms"] = (ms, "ms")
        per_layer["trace.ops_per_s"] = (e2e["ops_per_s"], "1/s")
        record["per_layer"] = {k: v for k, (v, _) in per_layer.items()}
        spans_path = os.path.join(out_dir, f"spans-{args.workload}.tsv.gz")
        tracer.write_spans(spans_path)
        record["spans"] = {"count": len(tracer.spans), "path": os.path.relpath(spans_path, root)}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}

    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1
