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


def _feasibility_tol(tol, delta):
    base = linalg.DEFAULT_RESIDUAL_TOL if tol is None else float(tol)
    return base * (1.0 + float(np.linalg.norm(delta)))


def _hessian_from_multipliers(D, lam):
    H = 0.5 * (D * lam) @ D.T
    return 0.5 * (H + H.T)  # kill roundoff skew; exact value is symmetric


def _split_multiplier_system(Dbar, delta, r):
    """The multiplier system of :func:`solve_mn`, split and rescaled.

    The multiplier matrix D'D + (1/4)(D'D)^o2 carries gradient content at
    radius^2 and curvature content at radius^4, so solving it head-on loses
    accuracy like radius^-2.  Split along an eigenbasis of the normalized
    Gram matrix and rescale each block to O(1).  The basis change is
    orthogonal, so the minimum-norm multiplier is preserved, and feasibility
    is decided by the part of the data outside the system's range (the
    recomputed solve residual would inflate with the condition number).

    Returns ``(M, rhs, Vr, Vp)``; the m x m Gram, quadratic and eigenvector
    matrices are released before the caller factors ``M``.
    """
    gram = Dbar.T @ Dbar
    P = 0.25 * gram ** 2
    w, V = np.linalg.eigh(gram)
    hi = w > linalg.rank_tolerance(gram) * max(float(w[-1]), 0.0)
    Vr, Vp = V[:, hi], V[:, ~hi]
    VrP, VpP = Vr.T @ P, Vp.T @ P  # each left product serves two blocks
    M = np.block([
        [np.diag(w[hi]) + r ** 2 * (VrP @ Vr), r ** 2 * (VrP @ Vp)],
        [VpP @ Vr, np.diag(w[~hi]) / r ** 2 + VpP @ Vp],
    ])
    rhs = np.concatenate([Vr.T @ delta / r ** 2, Vp.T @ delta / r ** 4])
    return M, rhs, Vr, Vp


def solve_mn(f, Y: SampleSet, tol=None):
    """Quadratic minimizing ``||g||^2 + ||H||_F^2`` among interpolants of f on Y.

    Returns ``(QuadraticModel, SolveDiagnostics)``.  Raises
    :class:`InfeasibleError` when no quadratic interpolates the data.
    """
    f = as_oracle(f)
    delta = delta_f(f, Y.x0, Y.D)
    r = Y.radius
    M, rhs, Vr, Vp = _split_multiplier_system(Y.normalized(), delta, r)
    fac = linalg.Factorization(M)
    kkt_residual = fac.range_residual(rhs)
    if kkt_residual > _feasibility_tol(tol, rhs):
        raise InfeasibleError(
            f"no interpolating quadratic: multiplier system residual {kkt_residual:.3e}"
        )
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
    if kkt_residual > _feasibility_tol(tol, delta):
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

    ``Y`` is the set the model interpolates: the solve set for mn/mfn, the
    recipe's points for qs.  ``diagnostics`` is the solver's
    :class:`SolveDiagnostics` for mn/mfn and the :class:`InterpolationReport`
    on ``Y`` for qs; ``spec`` is the qs recipe, None for mn/mfn.
    """

    model: QuadraticModel
    Y: SampleSet
    diagnostics: SolveDiagnostics | InterpolationReport
    spec: QSSpec | None = None

    @property
    def poised(self):
        """The set's check verdict: ``Y.mfn_poised`` for mn/mfn, factored on
        first read (mn never needs it otherwise), the interpolation check for qs."""
        return self.Y.mfn_poised if self.spec is None else self.diagnostics.passed

    def diagnostics_json(self):
        if self.spec is None:
            return self.diagnostics.to_json_dict()
        return {
            "interpolation_max_violation": self.diagnostics.max_violation,
            "interpolation_passed": self.diagnostics.passed,
            "points": self.Y.m,
        }


def build(family, f, st: StructuredSet, Y: SampleSet | None = None, tol=None):
    """The ``family`` model (mn | mfn | qs:<preset>) of f on the structured set ``st``.

    mn and mfn solve on ``Y``, by default the symmetric set ``st.expand()``.
    qs applies the preset's recipe to the half frame of ``st`` and ignores
    ``Y``; its set is the recipe's points.  Returns a :class:`BuiltModel`.
    """
    kind, preset = parse_family(family)
    f = as_oracle(f)
    if kind != "qs":
        Y = st.expand() if Y is None else Y
        model, diag = (solve_mn if kind == "mn" else solve_mfn)(f, Y, tol=tol)
        return BuiltModel(model, Y, diag)
    spec = qs_preset(preset, st)
    model = build_qs(f, st.x0, spec)
    Y = SampleSet.from_points(st.x0, spec.points(st.x0))
    return BuiltModel(model, Y, interpolation_check(model, f, Y, tol=tol), spec)
