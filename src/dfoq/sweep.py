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
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import bounds, linalg, models, testbed
from .errors import EvaluationError, InvalidInputError, NotPoisedError
from .sample_sets import SampleSet


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


class _Plan(NamedTuple):
    """What a sweep takes once: the ``unit`` set every row scales (the half
    frame's symmetric set for mn/mfn, the unit ``stencil``'s points for qs),
    ``kqs_unit`` (qs) and ``||hess f(x0)||`` (qs:centred)."""

    family: str
    unit: SampleSet
    stencil: models.QSStencil | None
    kqs_unit: float | None
    hess_norm: float | None


def _plan(config, tf):
    kind, preset = models.parse_family(config.model)  # reported before a bad set
    half = SampleSet(tf.x0, resolve_frame(config.set_spec, tf.dim, fallback_seed=config.seed))
    # mn/mfn refuse here a half frame holding some d and -d (valid for qs).
    # A qs recipe scales with its frame and kappa_mH_qs is linear in L_grad
    # on normalized frames, so the unit stencil and constant serve every row.
    stencil = kqs_unit = hess_norm = None
    if kind != "qs":
        unit = half.expand()
    else:
        stencil = models.QSStencil.of(models.qs_preset(preset, half), half.x0)
        unit, kqs_unit = stencil.Y, bounds.kappa_mH_qs(1.0, stencil.spec)
    if config.model == "qs:centred":
        hess_norm = linalg.matrix_norm(tf.hess(tf.x0), "spectral")
    return _Plan(config.model, unit, stencil, kqs_unit, hess_norm)


def _value_table(tf, rows):
    """The rows' evaluation points as one C-ordered ``(rows, m + 1, n)``
    table, and f there from one ``tf.f`` call, refused at its first inf/nan."""
    table = rows.evaluation_points()
    fv = np.asarray(tf.f(table), dtype=float)
    bad = np.flatnonzero(~np.isfinite(fv))
    if bad.size:
        raise EvaluationError(table.reshape(-1, table.shape[-1])[bad[0]], float(fv.flat[bad[0]]))
    return table, fv


def _build(plan, rows, table, fv):
    """``(models, poised, qs interpolation violations)`` of every row of the
    scaled geometry ``rows``, from the value table: all mfn rows on the unit
    set's ``F_unit`` factor, all qs rows from one stencil pass, all mn rows
    from one stacked factorization of their split systems, and the mn/mfn
    verdicts from one call."""
    if plan.stencil is not None:
        models_ = plan.stencil.stack(fv, rows)
        check = models.interpolation_report(models_, table, fv)
        return models_, check.passed.tolist(), check.max_violation.tolist()
    solve = models.solve_mn_values if plan.family == "mn" else models.solve_mfn_values
    return solve(rows, fv)[0], rows.mfn_poised().tolist(), []


def _bound_rows(tf, plan, rows, poised, meas):
    """Each row's :class:`SweepRow`: its verdict ``poised[i]`` and
    measurement ``meas.row(i)`` next to the bounds of its own ball's
    Lipschitz data.  The bounds are one stacked pass over the rows: the
    radius-free constants are read once, and each row's cross cell is its
    largest off-diagonal error with the bound of that error's pair."""
    family, unit, radius, count = plan.family, plan.unit, rows.radius, len(rows.t)
    lips = [tf.lipschitz_on(tf.x0, r) for r in radius.tolist()]
    L_grad, L_hess, kappa_g = (np.array([getattr(lip, name) for lip in lips])
                               for name in ("L_grad", "L_hess", "kappa_g"))
    live = np.array(poised)  # rows with value and gradient bounds
    consts = bound_aligned = None
    bound_cross = [None] * count
    if family in ("mn", "mfn"):
        bound_aligned = bounds.directional_bound_aligned(L_hess, radius)
        if live.any():
            kmfn = bounds.kappa_mH_mfn(L_grad, unit)
            consts = bounds.kappa_generic(L_grad, kmfn, unit)
            if family == "mn":
                kmn = bounds.kappa_mH_mn(kappa_g, consts.kappa_eg, radius, kmfn)
                consts = bounds.kappa_generic(L_grad, kmn, unit)
            # resolve_frame normalizes every frame, so a row's directions share
            # one length up to rounding and the pair with the largest error is
            # the pair whose bound binds: a live row is bounded at its norms
            at = np.flatnonzero(live)
            off_diagonal = ~np.eye(unit.m, dtype=bool)
            pair_norms = np.empty((2, len(at)))
            for slot, k in enumerate(at.tolist()):
                pair = divmod(int(np.where(off_diagonal, meas.cross[k], -np.inf).argmax()), unit.m)
                pair_norms[:, slot] = np.linalg.norm(rows.D[k], axis=0)[list(pair)]
            pair_bound = bounds.directional_bound_cross(consts.kappa_ef[at], L_hess[at],
                                                        radius[at], *pair_norms)
            for k, bound in zip(at.tolist(), pair_bound.tolist()):
                bound_cross[k] = bound
    elif live.any():
        try:
            consts = bounds.kappa_generic(L_grad, L_grad * plan.kqs_unit, unit)
        except NotPoisedError:
            live[:] = False  # the set does not span R^n: no fully linear bound holds
    if family == "qs:centred":
        # the centred preset's H is the structured-pack GSH, the one case the
        # directional theory covers among the presets
        bound_aligned = bounds.directional_bound_aligned(L_hess, rows.t)
        bound_cross = bounds.directional_bound_gsh_cross(plan.hess_norm, L_hess, rows.t).tolist()

    kef = keg = aligned = [None] * count
    if consts is not None:
        kef, keg = consts.kappa_ef.tolist(), consts.kappa_eg.tolist()
    if bound_aligned is not None:
        aligned = bound_aligned.tolist()
    err_f, err_g, err_aligned, err_cross = (v.tolist() for v in (
        meas.err_f, meas.err_g, meas.aligned_max, meas.cross_max))
    return [SweepRow(
        delta=r, err_f=err_f[i], bound_f=kef[i] * r ** 2 if live[i] else None,
        err_g=err_g[i], bound_g=keg[i] * r if live[i] else None,
        err_dir_aligned_max=err_aligned[i], bound_dir_aligned=aligned[i],
        err_dir_cross_max=err_cross[i], bound_dir_cross=bound_cross[i], poised=poised[i],
    ) for i, r in enumerate(radius.tolist())]


def count_violations(rows, f0):
    """Bound violations above the per-quantity roundoff floor, which scales
    with ``f0 = f(x0)`` (:func:`bounds.roundoff_floor`, the floor the
    summary's slope fits drop); a nan error against a bound is one."""
    delta = np.array([r.delta for r in rows])
    floors = zip(*(bounds.roundoff_floor(1.0 + abs(f0), delta, order).tolist()
                   for order in (0, 1, 2)))
    hits = []
    for r, (floor_f, floor_g, floor_dir) in zip(rows, floors):
        checks = (
            ("err_f", r.err_f, r.bound_f, floor_f),
            ("err_g", r.err_g, r.bound_g, floor_g),
            ("err_dir_aligned_max", r.err_dir_aligned_max, r.bound_dir_aligned, floor_dir),
            ("err_dir_cross_max", r.err_dir_cross_max, r.bound_dir_cross, floor_dir),
        )
        for name, err, bound, floor in checks:
            if bound is not None and (math.isnan(err) or err > max(bound, floor)):
                hits.append({"delta": r.delta, "quantity": name,
                             "error": err, "bound": bound})
    return hits


def run_sweep(config: SweepConfig):
    """Execute a sweep; returns (rows, summary dict).  Every radius is checked
    before f is evaluated; one value table gives each row's model and errors."""
    dim = len(config.x0) if config.x0 is not None else None
    tf = testbed.get(config.function, dim=dim, x0=config.x0)
    plan = _plan(config, tf)

    def in_region(radius):
        if radius > tf.region_radius:
            raise InvalidInputError(f"radius {radius:g} leaves the region of "
                                    f"{tf.name} (limit {tf.region_radius:g})")

    checks = (in_region,) if plan.stencil is not None else (in_region, models.check_radius)
    scaled = plan.unit.scaled(config.deltas, *checks)
    table, fv = _value_table(tf, scaled)
    built, poised, interp = _build(plan, scaled, table, fv)
    measured = bounds.measure_rows(tf, built, scaled, fv, config.samples)
    rows = _bound_rows(tf, plan, scaled, poised, measured)

    deltas = [r.delta for r in rows]
    f0 = float(fv[0, 0])  # f(x0), read by every row's model
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
        # evaluations of f: x0 and the set's points per row in the value
        # table, and each row's ball
        "oracle_calls": fv.size + len(rows) * config.samples,
    }
    if interp:
        summary["max_interpolation_violation"] = max(interp)
    return rows, summary
