"""The three benchmark workloads, their ops, and the per-op correctness check.

Every op goes through dfoq's public functions only; the benchmark supplies the
generated inputs (set specs, centers, direction matrices) and nothing else.
An op is a closed call: it starts when the previous op has returned.

Inputs come from committed catalogues so that every op can be compared with
a committed reference (``reference/<workload>.json``, written by
``make_reference.py``).  The workload seed picks the entry point into the
catalogue: the op order on ``grid``, the random frame on ``highdim`` and the
first rotation of the sets on ``fullquad``.  Inputs are built by
:func:`prepare` before an op's clock starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from dfoq import bounds, cli, models, sample_sets, simplex, testbed

WORKLOADS = ("grid", "highdim", "fullquad")

# Same roundoff floor the sweep applies before counting a violation:
# 1e3 * eps * (1 + |f(x0)|), divided by delta per derivative order.
FLOOR_FACTOR = 1e3 * float(np.finfo(float).eps)
# Relative tolerance of a reference comparison.  A last-bit change moves a
# value by ~1e-15 relative (or stays under the floor); a wrong model moves
# its errors by orders of magnitude.
RTOL = 1e-6

GRID_FUNCTIONS = tuple(tf.name for tf in testbed.registry())
GRID_DIMS = {tf.name: tf.dim for tf in testbed.registry()}
GRID_FAMILIES = ("mn", "mfn", "qs:centred", "qs:adapted-0", "qs:adapted-1")
GRID_DELTAS = "1:0.5:13"

HIGHDIM_NS = (16, 32, 64)
HIGHDIM_FAMILIES = ("mn", "mfn", "qs:centred")
HIGHDIM_DELTAS = "1:0.1:9"
HIGHDIM_X0 = 0.4
HIGHDIM_FRAMES = 8  # random:n:<k> frames with a committed reference, k < 8

FULLQUAD_NS = (8, 16, 32)
FULLQUAD_DELTAS = (1e-2, 1e-6)
# A fullquad set is a rotation Q of one fixed base set per (n, delta).
# Rotating D leaves D^T D, and so every poisedness verdict, unchanged while
# the points themselves (and the model of the function) change.  Every pass
# therefore has the same poised mix, and bound_coverage and f_evals_per_op
# do not depend on how many passes a run makes; the seed and the pass index
# pick the rotation.
FULLQUAD_ROTATIONS = 8    # per n
FULLQUAD_SALT = 20_260_512
PROBES = 3

CSV_COLUMNS = (
    "delta", "err_f", "bound_f", "err_g", "bound_g", "err_dir_aligned_max",
    "bound_dir_aligned", "err_dir_cross_max", "bound_dir_cross", "poised",
)
# (error column, bound column, derivative order of the roundoff floor)
BOUND_PAIRS = (
    ("err_f", "bound_f", 0),
    ("err_g", "bound_g", 1),
    ("err_dir_aligned_max", "bound_dir_aligned", 2),
    ("err_dir_cross_max", "bound_dir_cross", 2),
)


def family_bound_cells(family):
    """Bound columns the family's theory supplies when the set is poised."""
    if family in ("mn", "mfn", "qs:centred"):
        return ("bound_f", "bound_g", "bound_dir_aligned", "bound_dir_cross")
    return ("bound_f", "bound_g")


@dataclass
class Outcome:
    """What one op returned, reduced to what the checks and metrics need."""

    output: bytes             # byte image of the op's outputs
    rows: int                 # sweep rows, or 1 per model op
    covered: int              # rows whose family bound cells were all computed
    checked: int              # rows that carried at least one bound
    errors: list = field(default_factory=list)   # why the op failed, if it did


@dataclass(frozen=True)
class Op:
    key: str                  # reference key
    n: int
    kind: str                 # "sweep" | "model"
    argv: tuple = ()          # sweep: CLI arguments without --out
    family: str = ""
    delta: float = 0.0        # model: set radius
    rotation: int = 0         # model: rotation of the (n, delta) base set

    @property
    def group(self):
        """The op's place in a pass: the same in every pass of a run."""
        return self.key if self.kind == "sweep" else f"{self.n}|{self.delta!r}"


# ----------------------------------------------------------------- op lists

def grid_pass(seed, pass_index):
    ops = []
    for name in GRID_FUNCTIONS:
        dim = GRID_DIMS[name]
        for family in GRID_FAMILIES:
            argv = ("sweep", "--function", name, "--set", f"structured:{dim}",
                    "--model", family, "--deltas", GRID_DELTAS)
            ops.append(Op(f"{name}|{family}", dim, "sweep", argv, family))
    k = seed % len(ops)
    return ops[k:] + ops[:k]


def highdim_pass(seed, pass_index):
    frame = seed % HIGHDIM_FRAMES
    ops = []
    for n in HIGHDIM_NS:
        x0 = ",".join([repr(HIGHDIM_X0)] * n)
        for name, spec in (("trigonometric", f"structured:{n}"),
                           ("quartic", f"random:{n}:{frame}")):
            for family in HIGHDIM_FAMILIES:
                argv = ("sweep", "--function", name, "--set", spec, "--model", family,
                        "--deltas", HIGHDIM_DELTAS, "--x0", x0)
                ops.append(Op(f"{name}|{spec}|{family}", n, "sweep", argv, family))
    return ops


def fullquad_pass(seed, pass_index):
    rotation = (seed + pass_index) % FULLQUAD_ROTATIONS
    return [
        Op(f"{n}|{delta!r}|{rotation}", n, "model", delta=delta, rotation=rotation)
        for n in FULLQUAD_NS for delta in FULLQUAD_DELTAS
    ]


PASSES = {"grid": grid_pass, "highdim": highdim_pass, "fullquad": fullquad_pass}


def fullquad_directions(n, delta, rotation):
    """Unit directions of a general full-quadratic-size set, m = n(n+3)/2:
    the base set of (n, delta) rotated by rotation ``rotation``."""
    m = n * (n + 3) // 2
    j = FULLQUAD_DELTAS.index(delta)
    U = np.random.default_rng([FULLQUAD_SALT, n, j]).standard_normal((n, m))
    Z = np.random.default_rng([FULLQUAD_SALT, n, 1000 + rotation]).standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    Q = Q * np.sign(np.diag(R))
    U = Q @ U
    return U / np.linalg.norm(U, axis=0)


def _probes(n):
    rng = np.random.default_rng([FULLQUAD_SALT, n])
    P = rng.standard_normal((2 * PROBES, n))
    return P / np.linalg.norm(P, axis=1)[:, None]


# -------------------------------------------------------------- execution

def prepare(op):
    """The op's generated inputs: CLI arguments, or the set's directions."""
    if op.kind == "sweep":
        return list(op.argv)
    return fullquad_directions(op.n, op.delta, op.rotation)


def execute(op, inputs, scratch):
    """Run one op on its prepared inputs; returns the raw result, to be
    reduced by :func:`outcome`.

    Only this call is timed.  ``scratch`` is a file path the CLI writes to.
    """
    if op.kind == "sweep":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(inputs + ["--out", scratch])
        return rc, buf.getvalue()
    return certified_model(op, inputs)


def certified_model(op, D):
    """SampleSet -> solve_mn and solve_mfn on one Oracle -> poisedness ->
    the sweep's kappa sequence -> measure_errors when poised."""
    tf = testbed.get("trigonometric", dim=op.n)
    Y = sample_sets.SampleSet(tf.x0, op.delta * D)
    f = simplex.Oracle(tf.f)
    mn, _ = models.solve_mn(f, Y)
    mfn, _ = models.solve_mfn(f, Y)
    report = sample_sets.poisedness(Y, simplex.delta_f(f, Y.x0, Y.D))
    result = {"models": {"mn": mn, "mfn": mfn}, "poised": report.mfn_poised,
              "fscale": 1.0 + abs(mn.c), "radius": Y.radius, "bounds": None}
    if report.mfn_poised:
        r = Y.radius
        lip = tf.lipschitz_on(tf.x0, r)
        kmfn = bounds.kappa_mH_mfn(lip.L_grad, Y)
        c_mfn = bounds.kappa_generic(lip.L_grad, kmfn, Y)
        kmn = bounds.kappa_mH_mn(lip.kappa_g, c_mfn.kappa_eg, r, kmfn, Y)
        c_mn = bounds.kappa_generic(lip.L_grad, kmn, Y)
        result["bounds"] = {}
        for name, model, consts in (("mn", mn, c_mn), ("mfn", mfn, c_mfn)):
            meas = bounds.measure_errors(tf, model, Y)
            result["bounds"][name] = {
                "bound_f": consts.kappa_ef * r ** 2, "err_f": meas.err_f,
                "bound_g": consts.kappa_eg * r, "err_g": meas.err_g,
            }
    return result


# ------------------------------------------------- reduction and checking

def outcome(op, raw, scratch, reference):
    """Reduce a raw op result and check it against the reference entry.

    ``reference`` is None only while the reference itself is being written.
    """
    if op.kind == "sweep":
        return _sweep_outcome(op, raw, scratch, reference)
    return _model_outcome(op, raw, reference)


def sweep_values(csv_text):
    """CSV rows as dicts over the known columns (extra columns ignored)."""
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        row = {}
        for col in CSV_COLUMNS:
            cell = cells[col]
            if col == "poised":
                row[col] = cell == "true"
            else:
                row[col] = float(cell) if cell else None
        rows.append(row)
    return rows


def _floor(fscale, delta, order):
    return FLOOR_FACTOR * fscale / delta ** order


def _close(value, ref, floor):
    if np.isnan(ref):
        return bool(np.isnan(value))
    return abs(value - ref) <= RTOL * abs(ref) + floor


def _sweep_outcome(op, raw, scratch, reference):
    rc, stdout = raw
    errors = []
    if rc != 0:
        return Outcome(stdout.encode(), 0, 0, 0, [f"exit code {rc}"])
    with open(scratch, "rb") as fh:
        csv_bytes = fh.read()
    summary = json.loads(stdout)
    rows = sweep_values(csv_bytes.decode())
    if not summary.get("all_bounds_hold") or summary.get("violations"):
        errors.append(f"sweep reports violations: {summary.get('violations')}")
    fscale = None if reference is None else reference["fscale"]
    cells = family_bound_cells(op.family)
    covered = sum(all(r[c] is not None for c in cells) for r in rows)
    checked = sum(any(r[b] is not None for _, b, _ in BOUND_PAIRS) for r in rows)
    if reference is not None:
        errors += _check_rows(rows, reference["rows"], fscale)
    return Outcome(csv_bytes + stdout.encode(), len(rows), covered, checked, errors)


def _check_rows(rows, ref_rows, fscale):
    """Rows against their reference, and every carried bound against its error.

    A bound or a poised verdict the reference lacks may appear (a verdict
    fix adds them); one the reference has may not disappear.
    """
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    errors = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        delta = ref["delta"]
        if not _close(row["delta"], delta, 0.0):
            errors.append(f"row {i}: delta {row['delta']!r} != {delta!r}")
            continue
        if ref["poised"] and not row["poised"]:
            errors.append(f"row {i}: poised in the reference, not now")
        for err_col, bound_col, order in BOUND_PAIRS:
            floor = _floor(fscale, delta, order)
            if not _close(row[err_col], ref[err_col], floor):
                errors.append(f"row {i}: {err_col} {row[err_col]!r} != {ref[err_col]!r}")
            bound, ref_bound = row[bound_col], ref[bound_col]
            if ref_bound is not None:
                if bound is None:
                    errors.append(f"row {i}: {bound_col} blank, reference {ref_bound!r}")
                elif not _close(bound, ref_bound, 0.0):
                    errors.append(f"row {i}: {bound_col} {bound!r} != {ref_bound!r}")
            if bound is not None and row[err_col] > max(bound, floor):
                errors.append(f"row {i}: {err_col} {row[err_col]!r} exceeds {bound!r}")
    return errors


def model_values(result, n):
    """Compact, comparable image of an op's models: c, and g and H along
    fixed probe directions, plus their norms."""
    P = _probes(n)
    out = {}
    for name, m in result["models"].items():
        H = m.hessian()
        out[name] = {
            "c": m.c,
            "g": [float(P[k] @ m.g) for k in range(PROBES)] + [float(np.linalg.norm(m.g))],
            "H": [float(P[k] @ H @ P[PROBES + k]) for k in range(PROBES)]
                 + [float(np.linalg.norm(H))],
        }
    return out


def model_record(result, n):
    """Reference entry of a model op."""
    return {"fscale": result["fscale"], "radius": result["radius"],
            "poised": bool(result["poised"]), "models": model_values(result, n),
            "bounds": result["bounds"]}


def _model_outcome(op, raw, reference):
    digest = hashlib.sha256()
    for name in ("mn", "mfn"):
        m = raw["models"][name]
        digest.update(np.float64(m.c).tobytes() + m.g.tobytes() + m.H.tobytes())
    digest.update(json.dumps([raw["poised"], raw["bounds"]]).encode())
    errors = []
    poised = bool(raw["poised"])
    if reference is not None:
        errors += _check_model(op, raw, reference)
    if raw["bounds"] is not None:
        fscale, r = raw["fscale"], raw["radius"]
        for name, b in raw["bounds"].items():
            if b["err_f"] > max(b["bound_f"], _floor(fscale, r, 0)):
                errors.append(f"{name}: err_f {b['err_f']!r} exceeds {b['bound_f']!r}")
            if b["err_g"] > max(b["bound_g"], _floor(fscale, r, 1)):
                errors.append(f"{name}: err_g {b['err_g']!r} exceeds {b['bound_g']!r}")
    return Outcome(digest.digest(), 1, int(poised), int(poised), errors)


def _check_model(op, raw, ref):
    errors = []
    fscale, r = ref["fscale"], ref["radius"]
    if not _close(raw["radius"], r, 0.0):
        errors.append(f"radius {raw['radius']!r} != {r!r}")
    if ref["poised"] and not raw["poised"]:
        errors.append("poised in the reference, not now")
    values = model_values(raw, op.n)
    for name, want in ref["models"].items():
        got = values[name]
        if not _close(got["c"], want["c"], _floor(fscale, r, 0)):
            errors.append(f"{name}.c {got['c']!r} != {want['c']!r}")
        for part, order in (("g", 1), ("H", 2)):
            # projections are compared on the scale of the whole vector/matrix
            scale, floor = abs(want[part][-1]), _floor(fscale, r, order)
            for k, (a, b) in enumerate(zip(got[part], want[part])):
                if abs(a - b) > RTOL * scale + floor:
                    errors.append(f"{name}.{part}[{k}] {a!r} != {b!r}")
    if ref["bounds"] is not None and raw["bounds"] is not None:
        for name, want in ref["bounds"].items():
            got = raw["bounds"][name]
            for key, order in (("bound_f", None), ("bound_g", None), ("err_f", 0), ("err_g", 1)):
                floor = 0.0 if order is None else _floor(fscale, r, order)
                if not _close(got[key], want[key], floor):
                    errors.append(f"{name}.{key} {got[key]!r} != {want[key]!r}")
    return errors


def reference_path(root, workload):
    return os.path.join(root, "perfbench", "reference", f"{workload}.json")
