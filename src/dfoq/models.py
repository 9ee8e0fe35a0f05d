"""Quadratic model solvers: minimum-norm, minimum-Frobenius-norm, and
simplex-derivative compositions.  :func:`build` maps a family name to its
model and is the one place that does.

Both interpolation solvers reduce to small dense linear systems through the
stationarity structure of their objectives: multipliers weight the rank-one
matrices ``d^i d^iT``, so the Hessian never appears as an unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import InfeasibleError, InvalidInputError
from .sample_sets import SampleSet, StructuredSet
from .simplex import DirectionPack, as_oracle, delta_f, gsh, shifted_frame

__all__ = [
    "QuadraticModel",
    "SolveDiagnostics",
    "InterpolationReport",
    "GradTerm",
    "QSSpec",
    "BuiltModel",
    "parse_family",
    "build",
    "solve_mn",
    "solve_mfn",
    "build_qs",
    "interpolation_check",
    "qs_preset",
    "QS_PRESETS",
]

_SYM_RTOL = 1e-10


@dataclass(frozen=True)
class QuadraticModel:
    """``m(x) = c + g.(x - x0) + 0.5 (x - x0).H.(x - x0)``.

    ``symmetric`` is computed, not supplied: true when ``||H - H^T||_F``
    is within 1e-10 relative of zero.
    """

    x0: np.ndarray
    c: float
    g: np.ndarray
    H: np.ndarray
    symmetric: bool = field(init=False)

    def __post_init__(self):
        x0 = linalg.as_vector(self.x0, "x0")
        g = linalg.as_vector(self.g, "g")
        H = linalg.as_matrix(self.H, "H")
        if g.size != x0.size or H.shape != (x0.size, x0.size):
            raise InvalidInputError("model pieces disagree on dimension")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "H", H)
        skew = np.linalg.norm(H - H.T, "fro")
        object.__setattr__(self, "symmetric", bool(skew <= _SYM_RTOL * (1.0 + np.linalg.norm(H, "fro"))))

    @property
    def n(self):
        return self.x0.size

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.x0
        return float(self.c + d @ self.g + 0.5 * d @ self.H @ d)

    def value_many(self, X):
        """Model values at the rows of ``X``."""
        Dm = np.asarray(X, dtype=float) - self.x0[None, :]
        return self.c + Dm @ self.g + 0.5 * ((Dm @ self.H) * Dm).sum(1)

    def gradient(self, x):
        d = np.asarray(x, dtype=float) - self.x0
        return self.g + 0.5 * (self.H + self.H.T) @ d

    def gradient_many(self, X):
        Dm = np.asarray(X, dtype=float) - self.x0[None, :]
        return self.g[None, :] + Dm @ (0.5 * (self.H + self.H.T)).T

    def hessian(self):
        """Effective (symmetrized) second-derivative matrix of the model."""
        return 0.5 * (self.H + self.H.T)

    def to_json_dict(self):
        return {
            "x0": self.x0.tolist(),
            "c": self.c,
            "g": self.g.tolist(),
            "H": self.H.tolist(),
            "symmetric": self.symmetric,
        }


@dataclass(frozen=True)
class SolveDiagnostics:
    """Solver byproducts.

    ``kkt_residual`` is the consistency residual of the stationarity system
    (component of the data outside the system's range), ``feasibility_residual``
    the worst interpolation miss of the returned model on the sample points.
    """

    multipliers: np.ndarray
    kkt_residual: float
    feasibility_residual: float
    alpha_unique: bool

    def to_json_dict(self):
        return {
            "multipliers": np.asarray(self.multipliers).tolist(),
            "kkt_residual": self.kkt_residual,
            "feasibility_residual": self.feasibility_residual,
            "alpha_unique": self.alpha_unique,
        }


class InterpolationReport(NamedTuple):
    max_violation: float
    passed: bool


def _hessian_from_multipliers(D, lam):
    H = 0.5 * (D * lam) @ D.T
    return 0.5 * (H + H.T)  # kill roundoff skew; exact value is symmetric


def solve_mn(f, Y: SampleSet, tol=None):
    """Quadratic minimizing ``||g||^2 + ||H||_F^2`` among interpolants of f on Y.

    Returns ``(QuadraticModel, SolveDiagnostics)``.  Raises
    :class:`InfeasibleError` when no quadratic interpolates the data.
    """
    f = as_oracle(f)
    delta = delta_f(f, Y.x0, Y.D)
    rhs, kkt_residual, feasible = Y.mn_residual(delta, tol)
    if not feasible:
        raise InfeasibleError(
            f"no interpolating quadratic: multiplier system residual {kkt_residual:.3e}"
        )
    fac, Vr, Vp = Y.mn_factor
    z = fac.solve(rhs)
    lam = Vr @ z[: Vr.shape[1]] + Vp @ z[Vr.shape[1]:]
    model = QuadraticModel(Y.x0, f(Y.x0), Y.D @ lam, _hessian_from_multipliers(Y.D, lam))
    diag = SolveDiagnostics(
        multipliers=lam,
        kkt_residual=float(kkt_residual),
        feasibility_residual=interpolation_check(model, f, Y, tol).max_violation,
        alpha_unique=True,
    )
    return model, diag


def solve_mfn(f, Y: SampleSet, tol=None):
    """Quadratic minimizing ``||H||_F^2`` among interpolants of f on Y.

    The gradient is unique only when the bordered system is invertible; the
    returned gradient is always the minimum-norm representative and
    ``alpha_unique`` records the distinction.
    """
    f = as_oracle(f)
    delta = delta_f(f, Y.x0, Y.D)
    # read before the bordered factors exist, so its own SVD adds no peak memory
    poised = Y.mfn_poised
    rhs = np.concatenate([delta, np.zeros(Y.n)])
    # The raw bordered system mixes radius^4 and radius^1 blocks, so its
    # conditioning degrades like radius^-3.  The problem is scale-equivariant:
    # solve on unit-normalized directions (condition independent of radius)
    # and map the solution back.
    fac = Y.F_unit_factor
    kkt_residual = fac.range_residual(rhs)
    if kkt_residual > linalg.feasibility_tol(tol, delta):
        raise InfeasibleError(
            f"no interpolating quadratic: bordered system residual {kkt_residual:.3e}"
        )
    z = fac.solve(rhs)
    r = Y.radius
    lam, alpha = z[: Y.m] / r ** 4, z[Y.m:] / r
    model = QuadraticModel(Y.x0, f(Y.x0), alpha, _hessian_from_multipliers(Y.D, lam))
    diag = SolveDiagnostics(
        multipliers=lam,
        kkt_residual=float(kkt_residual),
        feasibility_residual=interpolation_check(model, f, Y, tol).max_violation,
        alpha_unique=poised,
    )
    return model, diag


def interpolation_check(model: QuadraticModel, f, Y: SampleSet, tol=None):
    """Largest |model - f| over the points of Y (center included)."""
    f = as_oracle(f)
    if np.linalg.norm(model.x0 - Y.x0) > 0:
        raise InvalidInputError("model and sample set have different centers")
    pts = np.vstack([Y.x0[None, :], Y.points()])
    fvals = np.array([f(p) for p in pts])
    worst = float(np.max(np.abs(model.value_many(pts) - fvals)))
    scale = 1.0 + float(np.max(np.abs(fvals)))
    base = linalg.DEFAULT_RESIDUAL_TOL if tol is None else float(tol)
    return InterpolationReport(worst, bool(worst <= base * scale))


@dataclass(frozen=True)
class GradTerm:
    """One gradient contribution: ``coeff * gsg(f, base, scale * S)`` on the
    recipe's frame ``S``."""

    coeff: float
    base: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        scale = float(self.scale)
        if scale == 0.0 or not np.isfinite(scale):
            raise InvalidInputError("a gradient term's scale must be nonzero and finite")
        object.__setattr__(self, "scale", scale)


@dataclass(frozen=True)
class QSSpec:
    """Recipe for a model whose g and H are simplex-derivative combinations on
    one frame: the gradient terms are taken on multiples of ``pack.S`` and the
    Hessian is ``gsh`` on ``pack``."""

    grad_terms: tuple
    pack: DirectionPack

    def __post_init__(self):
        object.__setattr__(self, "grad_terms", tuple(self.grad_terms))
        if not self.grad_terms:
            raise InvalidInputError("a QS spec needs at least one gradient term")

    def points(self, x0):
        """Every evaluation point the recipe touches (rows), unsorted and with
        repeats; :meth:`SampleSet.from_points` merges them."""
        x0 = linalg.as_vector(x0, "x0")
        chunks = [x0[None, :]]
        for term in self.grad_terms:
            base = linalg.as_vector(term.base, "base")
            chunks += [base[None, :], base[None, :] + (term.scale * self.pack.S).T]
        chunks.append(self.pack.points(x0))
        return np.vstack(chunks)


def build_qs(f, x0, spec: QSSpec):
    """Assemble the quadratic whose g and H follow the recipe in ``spec``.

    Every gradient term solves with the pack's one factor of ``S^T``: the
    minimum-norm solution on ``scale * S`` is the one on ``S`` divided by
    ``scale``.
    """
    f = as_oracle(f)
    x0 = linalg.as_vector(x0, "x0")
    S, fac = spec.pack.S, spec.pack.factor
    g = np.zeros(x0.size)
    for term in spec.grad_terms:
        g = g + float(term.coeff) * (fac.solve(delta_f(f, term.base, term.scale * S)) / term.scale)
    # a sum from zeros, as over several terms, turns -0.0 entries into 0.0
    H = np.zeros((x0.size, x0.size)) + gsh(f, x0, spec.pack)
    return QuadraticModel(x0, f(x0), g, H)


def qs_preset(name, structured):
    """Named recipes on a structured set: centred | forward | adapted-<ell>."""
    S = structured.Dhalf
    x0 = structured.x0
    if name == "centred":
        return QSSpec((GradTerm(0.5, x0), GradTerm(0.5, x0, -1.0)), structured.as_gsh_pack())
    if name == "forward":
        return QSSpec((GradTerm(1.0, x0),), DirectionPack.shared(S, S))
    if name.startswith("adapted-"):
        try:
            ell = int(name.split("-", 1)[1])
        except ValueError:
            raise InvalidInputError(f"bad preset name {name!r}")
        if not (0 <= ell <= S.shape[1]):
            raise InvalidInputError(f"adapted preset index out of range: {ell}")
        if ell == 0:
            grads = (GradTerm(2.0, x0), GradTerm(-1.0, x0, 2.0))
        else:
            base = x0 - S[:, ell - 1]
            grads = (GradTerm(1.0, x0), GradTerm(1.0, base), GradTerm(-1.0, base, 2.0))
        return QSSpec(grads, DirectionPack.shared(S, shifted_frame(S, ell)))
    raise InvalidInputError(f"unknown QS preset {name!r}")


QS_PRESETS = ("centred", "forward", "adapted-<ell>")


def parse_family(name):
    """Split a model family name into ``(kind, preset)``: ``("mn", None)``,
    ``("mfn", None)`` or ``("qs", preset)`` for ``qs:<preset>``."""
    if name in ("mn", "mfn"):
        return name, None
    if isinstance(name, str) and name.startswith("qs:"):
        return "qs", name[len("qs:"):]
    raise InvalidInputError(f"unknown model {name!r}, want mn, mfn, or qs:<preset>")


@dataclass(frozen=True)
class BuiltModel:
    """One family's model, as :func:`build` returns it.

    ``kind`` is ``"mn"``, ``"mfn"`` or ``"qs"``.  ``Y`` is the set the model
    interpolates: the solve set for mn/mfn, the symmetric set or the recipe's
    points for qs.  ``diagnostics`` is the solver's :class:`SolveDiagnostics`
    for mn/mfn and the :class:`InterpolationReport` on ``Y`` for qs.
    """

    model: QuadraticModel
    Y: SampleSet
    diagnostics: SolveDiagnostics | InterpolationReport
    kind: str

    @property
    def poised(self):
        """The set's check verdict: ``Y.mfn_poised`` for mn/mfn, computed on
        first read (mn never needs it otherwise), the interpolation check for qs."""
        return self.diagnostics.passed if self.kind == "qs" else self.Y.mfn_poised

    def diagnostics_json(self):
        if self.kind != "qs":
            return self.diagnostics.to_json_dict()
        return {
            "interpolation_max_violation": self.diagnostics.max_violation,
            "interpolation_passed": self.diagnostics.passed,
            "points": self.Y.m,
        }


def _centred_qs(f, Y):
    """The ``qs:centred`` model on the symmetric set ``Y = [Dh, -Dh]`` of
    radius r, from ``f(x0)`` and ``f(x0 +- d^i)``: with the odd part
    ``(f+ - f-) / 2`` and the even part ``f+ + f- - 2 f(x0)``,
    ``g = pinv(Dbar_h^T) odd / r`` and
    ``H = pinv(Dbar_h^T) diag(even / ||dbar^i||^2) Dbar_h^T / r^2``.

    This is :func:`build_qs` on the centred preset in closed form: its
    gradient terms average to the odd part, and ``gsh`` row i, on the one
    direction ``-d^i``, is ``even_i d^i / ||d^i||^2``.
    """
    sym = Y.symmetric_factors
    p, r = sym.Dh.shape[1], Y.radius
    shifted = delta_f(f, Y.x0, Y.D)
    plus, minus = shifted[:p], shifted[p:]
    g = sym.pinv @ (0.5 * (plus - minus)) / r
    curvature = (plus + minus) / (sym.Dh ** 2).sum(axis=0)
    H = (sym.pinv * curvature) @ sym.Dh.T / r ** 2
    return QuadraticModel(Y.x0, f(Y.x0), g, H)


def build(family, f, st: StructuredSet, Y: SampleSet | None = None, tol=None):
    """The ``family`` model (mn | mfn | qs:<preset>) of f on the structured set ``st``.

    mn and mfn solve on ``Y``, by default the symmetric set ``st.expand()``.
    qs ignores ``Y``.  qs:centred solves on ``st.expand()`` in closed form;
    a half frame holding some d and -d has no symmetric set, and there, as
    for every other preset, qs applies the preset's recipe to the half frame
    and its set is the recipe's points.  Returns a :class:`BuiltModel`.
    """
    kind, preset = parse_family(family)
    f = as_oracle(f)
    if kind != "qs":
        Y = st.expand() if Y is None else Y
        model, diag = (solve_mn if kind == "mn" else solve_mfn)(f, Y, tol=tol)
        return BuiltModel(model, Y, diag, kind)
    if preset == "centred":
        try:
            Y = st.expand()
        except InvalidInputError:
            pass  # the half frame holds some d and -d: the recipe's merged set
        else:
            model = _centred_qs(f, Y)
            return BuiltModel(model, Y, interpolation_check(model, f, Y, tol=tol), kind)
    spec = qs_preset(preset, st)
    model = build_qs(f, st.x0, spec)
    Y = SampleSet.from_points(st.x0, spec.points(st.x0))
    return BuiltModel(model, Y, interpolation_check(model, f, Y, tol=tol), kind)
