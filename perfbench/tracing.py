"""Per-layer tracing of dfoq from outside the package.

The tracer replaces dfoq's public functions with timing wrappers at every
binding site (``dfoq.models.solve_mn`` and also ``dfoq.sweep.solve_mn``,
``dfoq.cli.solve_mn``, ``dfoq.solve_mn``), and restores them on exit.  A
wrapper records one span (name, start, end, parent span, op id) per call;
spans stay in memory and are written out once, at the end of the run.  Self
time is a span's duration minus the part its child spans cover, and is
summed per function as the spans close.

Hot leaves (``directional_bound_cross``, oracle calls, numpy
factorizations) are counted without spans, so that tracing them costs a
counter increment, not a span.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict

import numpy as np
import numpy.linalg

# Public functions traced with spans, per layer (= dfoq module name).
SPANNED = {
    "linalg": ("pinv", "solve_min_norm", "range_residual", "numerical_rank"),
    "sample_sets": ("kkt_matrices", "poisedness"),
    "simplex": ("delta_f", "gsg", "gsh"),
    "models": ("solve_mn", "solve_mfn", "build_qs", "interpolation_check"),
    "relationships": ("mn_coordinate_centred", "mn_shifted_frame", "mn_from_gsh",
                      "mfn_from_gsh"),
    "bounds": ("ball_points", "measure_errors", "kappa_mH_mfn", "kappa_mH_mn",
               "kappa_mH_qs", "kappa_generic", "fit_slope"),
    "testbed": ("get",),
    "sweep": ("run_sweep", "resolve_frame", "count_violations", "rows_to_csv"),
    "cli": ("main",),
}
# Class-level entry points: construction (validation happens in
# __post_init__), alternate constructors and methods.
SPANNED_METHODS = {
    "sample_sets": (("SampleSet", "__post_init__", "SampleSet"),
                    ("StructuredSet", "__post_init__", "StructuredSet"),
                    ("SampleSet", "from_points", "from_points")),
    "testbed": (("TestFunction", "lipschitz_on", "lipschitz_on"),),
}
COUNTED = {"bounds": ("directional_bound_cross",)}
FACTORIZATIONS = ("svd", "eigh", "inv")
LAYERS = tuple(SPANNED)
IMPORT_MODULES = ("dfoq",) + tuple(f"dfoq.{m}" for m in (
    "errors", "linalg", "sample_sets", "simplex", "models", "relationships",
    "bounds", "testbed", "sweep", "cli"))


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dfoq" or name.startswith("dfoq."))]


def replace(owner, attr, value, undo):
    """setattr that records the old value in ``undo`` for :func:`restore`."""
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def rebind(original, wrapper, undo):
    """Point every dfoq module attribute bound to ``original`` at ``wrapper``."""
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                replace(mod, attr, wrapper, undo)


def restore(undo):
    while undo:
        owner, attr, value = undo.pop()
        setattr(owner, attr, value)


def factorization_flops(name, args, kwargs):
    """Textbook flop count of one dense factorization, from its shapes.

    svd: 4Mk^2 - 4k^3/3 (values only), 14Mk^2 + 8k^3 (thin U, V),
    4M^2k + 8Mk^2 + 9k^3 (full U, V) with M = max and k = min of the two
    dimensions (Golub and Van Loan, Fig. 8.6.1); eigh: 9n^3; inv: 2n^3.
    """
    a = np.asarray(args[0])
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    rows, cols = a.shape[-2:]
    big, k = max(rows, cols), min(rows, cols)
    if name == "svd":
        if not kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
            flops = 4 * big * k ** 2 - 4 * k ** 3 / 3
        elif kwargs.get("full_matrices", args[1] if len(args) > 1 else True):
            flops = 4 * big ** 2 * k + 8 * big * k ** 2 + 9 * k ** 3
        else:
            flops = 14 * big * k ** 2 + 8 * k ** 3
    elif name == "eigh":
        flops = 9 * k ** 3
    else:
        flops = 2 * k ** 3
    return batch * flops


class Tracer:
    """Spans and counters for one traced run; install() / uninstall()."""

    def __init__(self):
        self.spans = []
        self.stack = []            # open span indices
        self.child = []            # child time accumulated per open span
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.op_id = -1
        self._undo = []

    # -- wrappers

    def _spanned(self, name, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            self.child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                dur = end - start
                self.self_s[name] += dur - self.child.pop()
                self.calls[name] += 1
                if self.child:
                    self.child[-1] += dur
                self.spans[index] = (name, start, end, parent, self.op_id)

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factorization(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["linalg.dense_factorizations"] += 1
            self.counts["linalg.factorization_flops_computed"] += factorization_flops(
                name, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation

    def install(self):
        """Install every wrapper.  A function or class the package no longer
        has is skipped, and its metrics read 0."""
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}

        def lookup(layer, name):
            return getattr(mods.get(layer), name, None)

        for layer, names in SPANNED.items():
            for fn_name in names:
                original = lookup(layer, fn_name)
                if original is not None:
                    rebind(original, self._spanned(f"{layer}.{fn_name}", original), self._undo)
        for layer, names in COUNTED.items():
            for fn_name in names:
                original = lookup(layer, fn_name)
                if original is not None:
                    rebind(original, self._counted(f"{layer}.{fn_name}", original), self._undo)
        for layer, entries in SPANNED_METHODS.items():
            for cls_name, attr, label in entries:
                cls = lookup(layer, cls_name)
                raw = None if cls is None else cls.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._spanned(f"{layer}.{label}", raw.__func__))
                else:
                    wrapped = self._spanned(f"{layer}.{label}", raw)
                replace(cls, attr, wrapped, self._undo)
        oracle = lookup("simplex", "Oracle")
        for attr, name in (("__call__", "simplex.oracle_calls"),
                           ("_evaluate", "simplex.oracle_evals")):
            if oracle is not None and attr in oracle.__dict__:
                replace(oracle, attr, self._counted(name, oracle.__dict__[attr]), self._undo)
        # numpy.linalg re-exports numpy.linalg._linalg; norm(A, 2) calls the
        # private binding, so both are replaced by one counting wrapper.
        private = getattr(numpy.linalg, "_linalg", None)
        for name in FACTORIZATIONS:
            wrapper = self._factorization(name, getattr(numpy.linalg, name))
            replace(numpy.linalg, name, wrapper, self._undo)
            if private is not None:
                replace(private, name, wrapper, self._undo)

    def uninstall(self):
        restore(self._undo)

    # -- results

    def per_op(self, ops, f_batch_points):
        """Per-layer metrics per op, named ``<layer>.<fn>.calls|self_ms``."""
        ops = max(ops, 1)
        out = {}
        for layer in LAYERS:
            total = 0.0
            names = list(SPANNED[layer]) + [label for _, _, label in SPANNED_METHODS.get(layer, ())]
            for fn_name in names:
                key = f"{layer}.{fn_name}"
                out[f"{key}.calls"] = (self.calls[key] / ops, "count")
                out[f"{key}.self_ms"] = (1e3 * self.self_s[key] / ops, "ms")
                total += self.self_s[key]
            out[f"{layer}.self_ms"] = (1e3 * total / ops, "ms")
        for layer, names in COUNTED.items():
            for fn_name in names:
                out[f"{layer}.{fn_name}.calls"] = (self.calls[f"{layer}.{fn_name}"] / ops, "count")
        for key in ("linalg.dense_factorizations", "linalg.factorization_flops_computed"):
            out[key] = (self.counts[key] / ops, "count" if "factorizations" in key else "flop")
        calls, evals = self.calls["simplex.oracle_calls"], self.calls["simplex.oracle_evals"]
        out["simplex.oracle_evals"] = (evals / ops, "count")
        out["simplex.oracle_hit_ratio"] = ((calls - evals) / calls if calls else 0.0, "ratio")
        out["testbed.batch_points"] = (f_batch_points / ops, "count")
        return out

    def write_spans(self, path):
        """Spans as tab-separated lines: name, start_s, end_s, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for span in self.spans:
                if span is not None:
                    fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % span)


def parse_importtime(stderr_text):
    """Cumulative import time in ms of each dfoq module, from -X importtime."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2] in IMPORT_MODULES and parts[1].isdigit():
            out[parts[2]] = int(parts[1]) / 1e3
    return out

