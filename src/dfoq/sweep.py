"""Radius-sweep harness: measure model errors against their bounds per delta.

A sweep fixes a test function, a direction frame, and a model family, then
rebuilds the model at each radius of a decreasing geometric grid.  Every row
reports measured errors next to the theoretical bounds computed from
Lipschitz data on that row's own ball (the tightest ball containing all
evaluation and measurement points, so each row's inequality is sound on its
own).  Cells whose bound theory does not apply to the requested family stay
blank rather than carrying a number that proves nothing.

Violation counting applies a roundoff floor per quantity: second differences
of O(1) function values carry irreducible eps*|f|/delta^2 noise, so errors
below the floor are treated as numerically zero.  CSV cells always keep the
raw measurements.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields

import numpy as np

from . import bounds, linalg, models, testbed
from .errors import InvalidInputError, NotPoisedError
from .sample_sets import SampleSet
from .simplex import Oracle


@dataclass(frozen=True)
class SweepConfig:
    """Inputs of one sweep; hashable and JSON-roundtrippable."""

    function: str
    set_spec: str
    model: str
    deltas: tuple
    x0: tuple | None = None
    samples: int = bounds.DEFAULT_SAMPLES
    seed: int | None = None
    tol: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if self.x0 is not None:
            object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if len(self.deltas) < 3:
            raise InvalidInputError("delta grid needs at least 3 values")
        if not np.all(np.isfinite(self.deltas)):
            raise InvalidInputError("deltas must be finite")
        if any(d <= 0 for d in self.deltas):
            raise InvalidInputError("deltas must be positive")
        if any(b >= a for a, b in zip(self.deltas, self.deltas[1:])):
            raise InvalidInputError("deltas must be strictly decreasing")
        if self.samples < 1:
            raise InvalidInputError("samples must be positive")

    def to_json_dict(self):
        return {
            "function": self.function,
            "set": self.set_spec,
            "model": self.model,
            "deltas": list(self.deltas),
            "x0": None if self.x0 is None else list(self.x0),
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class SweepRow:
    """One grid radius; None marks a bound the theory does not supply here."""

    delta: float
    err_f: float
    bound_f: float | None
    err_g: float
    bound_g: float | None
    err_dir_aligned_max: float
    bound_dir_aligned: float | None
    err_dir_cross_max: float
    bound_dir_cross: float | None
    poised: bool


# the CSV columns and JSON keys, in this order
_COLUMNS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(_COLUMNS)


def parse_deltas(text):
    """Grid spec "start:factor:count" -> tuple of radii."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInputError(f"bad delta grid {text!r}, want start:factor:count")
    try:
        start, factor, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InvalidInputError(f"bad delta grid {text!r}: {exc}") from None
    if not 0 < factor < 1:
        raise InvalidInputError("grid factor must be in (0,1) for a decreasing grid")
    return tuple(start * factor ** k for k in range(count))


def resolve_frame(set_spec, n, fallback_seed=None):
    """Unit direction frame for a set spec.

    "structured:p" gives the first p coordinate directions, "random:p:seed"
    p uniform unit-sphere draws, "file:path" the stored set's directions
    rescaled to unit length.  The sweep multiplies the frame by each radius.
    """
    kind, _, rest = set_spec.partition(":")
    if kind == "structured":
        p = _parse_count(rest, set_spec)
        if p > n:
            raise InvalidInputError(f"structured:{p} exceeds dimension {n}")
        return np.eye(n)[:, :p]
    if kind == "random":
        bits = rest.split(":") if rest else []
        if len(bits) not in (1, 2):
            raise InvalidInputError(f"bad set spec {set_spec!r}, want random:p[:seed]")
        p = _parse_count(bits[0], set_spec)
        seed = bits[1] if len(bits) == 2 else fallback_seed
        if seed is None:
            raise InvalidInputError("random set needs a seed (random:p:seed or --seed)")
        try:
            rng = np.random.default_rng(int(seed))
        except ValueError:
            raise InvalidInputError(f"bad random set seed {seed}, want an integer >= 0") from None
        U = rng.standard_normal((n, p))
        return U / np.linalg.norm(U, axis=0)
    if kind == "file":
        if not rest:
            raise InvalidInputError("file set spec needs a path: file:<path>")
        stored = SampleSet.load(rest)
        if stored.n != n:
            raise InvalidInputError(
                f"stored set is {stored.n}-dimensional, function wants {n}"
            )
        return stored.D / np.linalg.norm(stored.D, axis=0)
    raise InvalidInputError(f"unknown set spec {set_spec!r}")


def _parse_count(text, spec):
    try:
        p = int(text)
    except ValueError:
        raise InvalidInputError(f"bad direction count in {spec!r}") from None
    if p < 1:
        raise InvalidInputError("direction count must be positive")
    return p


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.17g" % value


def rows_to_csv(rows):
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in rows:
        out.write(",".join(_fmt(getattr(r, c)) for c in _COLUMNS) + "\n")
    return out.getvalue()


def row_to_json_dict(r):
    return {c: getattr(r, c) for c in _COLUMNS}


def _worst_cross_pair(cross, bound_table):
    """(err, bound) of the pair with the largest err/bound ratio.

    Reporting the binding pair keeps the row's err<=bound comparison exact;
    on equal-norm frames every pair shares one bound so this reduces to the
    plain maximum error.
    """
    finite = np.isfinite(cross)
    if not finite.any():
        return 0.0, None
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(finite, cross / bound_table, -np.inf)
    i, j = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    return float(cross[i, j]), float(bound_table[i, j])


def _row(tf, built, meas, delta, kqs_unit, hess_norm, family):
    """The row of the model ``built`` at radius ``delta`` and its measurement
    ``meas``, with the bounds of its own ball's Lipschitz data and what is
    taken once per sweep: the radius-free qs curvature constant ``kqs_unit``
    (qs) and ``||hess f(x0)||`` (qs:centred)."""
    meas_Y, poised = built.Y, built.poised
    radius = meas_Y.radius
    lip = tf.lipschitz_on(tf.x0, radius)

    bound_f = bound_g = bound_aligned = None
    cross_bound_table = None
    if family in ("mn", "mfn"):
        bound_aligned = bounds.directional_bound_aligned(lip.L_hess, radius)
        if poised:
            kmfn = bounds.kappa_mH_mfn(lip.L_grad, meas_Y)
            consts = bounds.kappa_generic(lip.L_grad, kmfn, meas_Y)
            if family == "mn":
                kmn = bounds.kappa_mH_mn(
                    lip.kappa_g, consts.kappa_eg, radius, kmfn, meas_Y
                )
                consts = bounds.kappa_generic(lip.L_grad, kmn, meas_Y)
            bound_f = consts.kappa_ef * radius ** 2
            bound_g = consts.kappa_eg * radius
            norms = np.linalg.norm(meas_Y.D, axis=0)
            cross_bound_table = bounds.directional_bound_cross(
                consts.kappa_ef, lip.L_hess, radius, norms[:, None], norms[None, :]
            )
    else:
        if poised:
            kqs = lip.L_grad * kqs_unit
            try:
                consts = bounds.kappa_generic(lip.L_grad, kqs, meas_Y)
                bound_f = consts.kappa_ef * radius ** 2
                bound_g = consts.kappa_eg * radius
            except NotPoisedError:
                pass  # the set does not span R^n: no fully linear bound holds
        if family == "qs:centred":
            # the centred preset's H is the structured-pack GSH, the one
            # case the directional theory covers among the presets
            bound_aligned = bounds.directional_bound_aligned(lip.L_hess, delta)
            cross_bound_table = np.full(
                (meas_Y.m, meas_Y.m),
                bounds.directional_bound_gsh_cross(hess_norm, lip.L_hess, delta),
            )

    if cross_bound_table is not None:
        err_cross, bound_cross = _worst_cross_pair(meas.cross, cross_bound_table)
    else:
        err_cross, bound_cross = meas.cross_max, None

    return SweepRow(
        delta=radius,
        err_f=meas.err_f,
        bound_f=bound_f,
        err_g=meas.err_g,
        bound_g=bound_g,
        err_dir_aligned_max=meas.aligned_max,
        bound_dir_aligned=bound_aligned,
        err_dir_cross_max=err_cross,
        bound_dir_cross=bound_cross,
        poised=poised,
    )


def _noise_floors(f0, radius):
    # bounds.fit_slope drops the same per-row floors (order 0, 1, 2) from the
    # summary's slope fits
    scale = bounds.ROUNDOFF_FLOOR * (1.0 + abs(f0))
    return scale, scale / radius, scale / radius ** 2


def count_violations(rows, f0):
    """Bound violations above the per-quantity roundoff floor, which scales
    with ``f0 = f(x0)``."""
    hits = []
    for r in rows:
        floor_f, floor_g, floor_dir = _noise_floors(f0, r.delta)
        checks = (
            ("err_f", r.err_f, r.bound_f, floor_f),
            ("err_g", r.err_g, r.bound_g, floor_g),
            ("err_dir_aligned_max", r.err_dir_aligned_max, r.bound_dir_aligned, floor_dir),
            ("err_dir_cross_max", r.err_dir_cross_max, r.bound_dir_cross, floor_dir),
        )
        for name, err, bound, floor in checks:
            if bound is not None and err > max(bound, floor):
                hits.append({"delta": r.delta, "quantity": name,
                             "error": err, "bound": bound})
    return hits


def run_sweep(config: SweepConfig):
    """Execute a sweep; returns (rows, summary dict)."""
    dim = len(config.x0) if config.x0 is not None else None
    tf = testbed.get(config.function, dim=dim, x0=config.x0)
    kind, preset = models.parse_family(config.model)  # reported before a bad set
    unit = SampleSet(tf.x0, resolve_frame(config.set_spec, tf.dim, fallback_seed=config.seed))
    # mn/mfn need the symmetric set, refused here, before any row, for a half
    # frame holding some d and -d; such a frame is valid for qs.  A qs
    # recipe scales with its frame, so one unit stencil, scaled, serves every
    # row.  kappa_mH_qs is linear in L_grad and reads each frame normalized,
    # so the unit recipe's value serves every row too.
    stencil = kqs_unit = hess_norm = None
    if kind != "qs":
        unit.expand()
    else:
        stencil = models.QSStencil.of(models.qs_preset(preset, unit), unit.x0)
        kqs_unit = bounds.kappa_mH_qs(1.0, stencil.spec)
    if config.model == "qs:centred":
        hess_norm = linalg.matrix_norm(tf.hess(tf.x0), "spectral")
    # Build every row on its own vectorized oracle, which the measurement reads
    # again (f is evaluated once at x0 and each set point), measure the rows in
    # batches, then bound them
    built = []
    for d in config.deltas:
        built.append(models.build(config.model, Oracle(tf.f, vectorized=True), unit.scale(d),
                                  tol=config.tol, stencil=stencil and stencil.scale(d)))
        if built[-1].Y.radius > tf.region_radius:
            raise InvalidInputError(f"radius {built[-1].Y.radius:g} leaves the region of "
                                    f"{tf.name} (limit {tf.region_radius:g})")
    measured = bounds.measure_rows(tf, [(b.model, b.Y, b.f) for b in built], config.samples)
    rows = [_row(tf, b, meas, delta, kqs_unit, hess_norm, config.model)
            for b, meas, delta in zip(built, measured, config.deltas)]
    interp = [b.diagnostics.max_violation for b in built if b.kind == "qs"]

    deltas = [r.delta for r in rows]
    f0 = built[0].f(tf.x0)  # read by every row's model: no new evaluation
    fscale = 1.0 + abs(f0)
    violations = count_violations(rows, f0)
    rows_checked = sum(1 for r in rows if any(
        b is not None for b in (r.bound_f, r.bound_g, r.bound_dir_aligned, r.bound_dir_cross)))
    summary = {
        "config": config.to_json_dict(),
        "function": tf.name,
        "dim": tf.dim,
        "x0": tf.x0.tolist(),
        "slope_err_f": bounds.fit_slope(deltas, [r.err_f for r in rows], fscale, 0),
        "slope_err_g": bounds.fit_slope(deltas, [r.err_g for r in rows], fscale, 1),
        "slope_err_dir_aligned": bounds.fit_slope(
            deltas, [r.err_dir_aligned_max for r in rows], fscale, 2
        ),
        # a sweep that checked nothing has shown nothing to hold
        "all_bounds_hold": rows_checked > 0 and not violations,
        "violations": violations,
        "rows_poised": sum(1 for r in rows if r.poised),
        "rows_checked": rows_checked,
        # evaluations of f: x0 and the set's points per row through its
        # oracle, and the ball's other points, which measure_rows sends to
        # tf.f directly
        "oracle_calls": sum(b.f.calls for b in built) + len(rows) * config.samples,
    }
    if interp:
        summary["max_interpolation_violation"] = max(interp)
    return rows, summary
