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
from .sample_sets import SampleSet
from .simplex import DirectionPack, as_oracle, delta_f, gsh, shifted_frame

__all__ = [
    "QuadraticModel",
    "SolveDiagnostics",
    "InterpolationReport",
    "GradTerm",
    "QSSpec",
    "QSStencil",
    "BuiltModel",
    "parse_family",
    "build",
    "solve_mn",
    "solve_mn_values",
    "solve_mfn",
    "solve_mfn_values",
    "build_qs",
    "interpolation_check",
    "interpolation_report",
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
        """Model values at the rows of ``X``, taken on a C-ordered copy: the
        row sums of an F-ordered stack round differently."""
        Dm = np.ascontiguousarray(X, dtype=float) - self.x0[None, :]
        return self.c + Dm @ self.g + 0.5 * ((Dm @ self.H) * Dm).sum(1)

    def gradient(self, x):
        d = np.asarray(x, dtype=float) - self.x0
        return self.g + 0.5 * (self.H + self.H.T) @ d

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


def _solved(values_core, f, Y, tol, alpha_unique):
    """``(model, SolveDiagnostics)`` of ``values_core`` on f read at Y."""
    f = as_oracle(f)
    model, lam, kkt_residual = values_core(Y, f.many(Y.evaluation_points()), tol)
    residual = interpolation_check(model, f, Y, tol).max_violation
    return model, SolveDiagnostics(lam, float(kkt_residual), residual, alpha_unique)


def solve_mn(f, Y: SampleSet, tol=None):
    """Quadratic minimizing ``||g||^2 + ||H||_F^2`` among interpolants of f on Y.

    Returns ``(QuadraticModel, SolveDiagnostics)``.  Raises
    :class:`InfeasibleError` when no quadratic interpolates the data.
    """
    return _solved(solve_mn_values, f, Y, tol, True)


def solve_mn_values(Y: SampleSet, fv, tol=None):
    """``(model, multipliers, kkt_residual)`` of :func:`solve_mn` from the
    values ``fv`` of f at ``Y.evaluation_points()``."""
    rhs, kkt_residual, feasible = Y.mn_residual(fv[1:] - fv[0], tol)
    if not feasible:
        raise InfeasibleError(
            f"no interpolating quadratic: multiplier system residual {kkt_residual:.3e}"
        )
    fac, Vr, Vp = Y.mn_factor
    z = fac.solve(rhs)
    lam = Vr @ z[: Vr.shape[1]] + Vp @ z[Vr.shape[1]:]
    return QuadraticModel(Y.x0, fv[0], Y.D @ lam, _hessian_from_multipliers(Y.D, lam)), lam, kkt_residual


def solve_mfn(f, Y: SampleSet, tol=None):
    """Quadratic minimizing ``||H||_F^2`` among interpolants of f on Y.

    The gradient is unique only when the bordered system is invertible; the
    returned gradient is always the minimum-norm representative and
    ``alpha_unique`` records the distinction.  The verdict is read before
    the bordered factors exist, so its own SVD adds no peak memory.
    """
    return _solved(solve_mfn_values, f, Y, tol, Y.mfn_poised)


def solve_mfn_values(Y: SampleSet, fv, tol=None):
    """``(model, multipliers, kkt_residual)`` of :func:`solve_mfn` from the
    values ``fv`` of f at ``Y.evaluation_points()``, solved on the normalized
    directions (``F_unit``, whose condition does not degrade like radius^-3)."""
    delta = fv[1:] - fv[0]
    rhs = np.concatenate([delta, np.zeros(Y.n)])
    fac = Y.F_unit_factor
    kkt_residual = fac.range_residual(rhs)
    if kkt_residual > linalg.feasibility_tol(tol, delta):
        raise InfeasibleError(
            f"no interpolating quadratic: bordered system residual {kkt_residual:.3e}"
        )
    z = fac.solve(rhs)
    r = Y.radius
    lam, alpha = z[: Y.m] / r ** 4, z[Y.m:] / r
    return QuadraticModel(Y.x0, fv[0], alpha, _hessian_from_multipliers(Y.D, lam)), lam, kkt_residual


def interpolation_check(model: QuadraticModel, f, Y: SampleSet, tol=None):
    """Largest |model - f| over the points of Y (center included)."""
    if np.linalg.norm(model.x0 - Y.x0) > 0:
        raise InvalidInputError("model and sample set have different centers")
    pts = Y.evaluation_points()
    return interpolation_report(model, pts, as_oracle(f).many(pts), tol)


def interpolation_report(model: QuadraticModel, pts, fvals, tol=None):
    """:func:`interpolation_check` on the rows of ``pts``, where f is ``fvals``."""
    worst = float(np.max(np.abs(model.value_many(pts) - fvals)))
    scale = 1.0 + float(np.max(np.abs(fvals)))
    base = linalg.DEFAULT_RESIDUAL_TOL if tol is None else float(tol)
    return InterpolationReport(worst, bool(worst <= base * scale))


@dataclass(frozen=True)
class GradTerm:
    """One gradient contribution: ``coeff * gsg(f, x0 + shift, scale * S)``
    on the recipe's frame ``S``; without a ``shift`` the base is ``x0``."""

    coeff: float
    shift: np.ndarray | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.shift is not None:
            object.__setattr__(self, "shift", linalg.as_vector(self.shift, "shift"))
        scale = float(self.scale)
        if scale == 0.0 or not np.isfinite(scale):
            raise InvalidInputError("a gradient term's scale must be nonzero and finite")
        object.__setattr__(self, "scale", scale)

    def base(self, x0):
        """The point the term's differences start from."""
        return x0 if self.shift is None else x0 + self.shift


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


def build_qs(f, x0, spec: QSSpec):
    """Assemble the quadratic whose g and H follow the recipe in ``spec``.

    Every gradient term solves with the pack's one factor of ``S^T``: the
    minimum-norm solution on ``scale * S`` is the one on ``S`` divided by
    ``scale``.  This evaluates f where the recipe names its points; it is
    the reference for :class:`QSStencil`, which :func:`build` uses.
    """
    f = as_oracle(f)
    x0 = linalg.as_vector(x0, "x0")
    S, fac = spec.pack.S, spec.pack.factor
    g = np.zeros(x0.size)
    for term in spec.grad_terms:
        g = g + float(term.coeff) * (fac.solve(delta_f(f, term.base(x0), term.scale * S))
                                     / term.scale)
    # a sum from zeros, as over several terms, turns -0.0 entries into 0.0
    H = np.zeros((x0.size, x0.size)) + gsh(f, x0, spec.pack)
    return QuadraticModel(x0, f(x0), g, H)


class _StencilIndex(NamedTuple):
    """Where a recipe's differences read the values ``fv`` of a stencil
    (``fv[0] = f(x0)``, ``fv[k] = f(x0 + d^k)``), and the radius-free
    pseudoinverses they are solved with."""

    grads: tuple            # per term: (coeff, scale, index of base + scale s^i, of base)
    at_s: np.ndarray        # per Hessian-table entry (i, j): index of x0 + s^i,
    at_t: np.ndarray        # of x0 + t^j
    at_st: np.ndarray       # and of x0 + s^i + t^j, rows T_1, T_2, ... in turn
    pinv_S: np.ndarray      # pinv(S^T), n x p
    pinv_T: np.ndarray      # pinv(T) of a shared frame, else every pinv(T_i) stacked
    starts: np.ndarray | None  # where each pinv(T_i)'s rows start; None when shared


@dataclass(frozen=True)
class QSStencil:
    """A QS recipe's evaluation points as one merged set ``Y``, with an
    index from every gradient-term and Hessian-table entry into it.

    Each point is listed as its offset from ``x0``, computed without ``x0``,
    and the offsets are merged by :meth:`SampleSet.from_offsets`, so the set
    does not depend on the radius.  The recipe scales with its frame: on the
    half frame scaled by t every offset is t times its unit one, every
    difference quotient divides by t and the Hessian by t^2, so one merge,
    index and set of pseudoinverses serve every scaling (:meth:`model`).
    ``spec`` is the recipe on the half frame the stencil was built on.
    """

    spec: QSSpec
    Y: SampleSet
    index: _StencilIndex

    @classmethod
    def of(cls, spec: QSSpec, x0):
        """The stencil of ``spec`` around ``x0`` at t = 1."""
        x0 = linalg.as_vector(x0, "x0")
        pack = spec.pack
        S, p = pack.S, pack.p
        chunks = []
        for term in spec.grad_terms:
            heads = (term.scale * S).T
            if term.shift is not None:
                chunks.append(term.shift[None, :])
                heads = term.shift[None, :] + heads
            chunks.append(heads)
        T = np.hstack(pack.Ts).T
        shared = pack.shared_T
        owner = np.repeat(np.arange(p), [Ti.shape[1] for Ti in pack.Ts])
        chunks += [S.T, T if shared is None else shared.T, S.T[owner] + T]
        Y, index = SampleSet.from_offsets(x0, np.vstack(chunks))

        grads, k = [], 0
        for term in spec.grad_terms:
            base = 0
            if term.shift is not None:
                base, k = index[k], k + 1
            grads.append((float(term.coeff), term.scale, index[k:k + p], base))
            k += p
        at_s, k = index[k:k + p][owner], k + p
        if shared is None:
            at_t, pinv_T = index[k:k + len(T)], np.vstack([linalg.pinv(Ti) for Ti in pack.Ts])
            starts = np.searchsorted(owner, np.arange(p))
        else:
            at_t, pinv_T = np.tile(index[k:k + shared.shape[1]], p), linalg.pinv(shared)
            starts = None
        at_st = index[len(index) - len(T):]
        return cls(spec, Y, _StencilIndex(tuple(grads), at_s, at_t, at_st,
                                               pack.factor.pinv(), pinv_T, starts))

    def model(self, fv, t=1.0):
        """The recipe's quadratic on the half frame scaled by t, from the
        values ``fv`` of f at ``Y.scale(t).evaluation_points()``.

        ``g = sum coeff pinv(S^T) (f[head] - f[base]) / (t scale)`` and
        ``H = pinv(S^T) R / t^2``, where row i of R is the table row
        ``f[s^i + t^j] - f[s^i] - f[t^j] + f(x0)`` times ``pinv(T_i)``.
        """
        Y, ix = self.Y, self.index
        g = np.zeros(Y.n)
        for coeff, scale, heads, base in ix.grads:
            g = g + coeff * (ix.pinv_S @ (fv[heads] - fv[base])) / (t * scale)
        table = fv[ix.at_st] - fv[ix.at_s] - fv[ix.at_t] + fv[0]
        if ix.starts is None:
            rows = table.reshape(ix.pinv_S.shape[1], -1) @ ix.pinv_T
        else:
            rows = np.add.reduceat(table[:, None] * ix.pinv_T, ix.starts, axis=0)
        return QuadraticModel(Y.x0, fv[0], g, ix.pinv_S @ rows / t ** 2)


def qs_preset(name, half: SampleSet):
    """Named recipes on a half frame: centred | forward | adapted-<ell>.
    centred takes the Hessian on the pack ``(S, T_i = [-s^i])``."""
    S = half.D
    if name == "centred":
        return QSSpec((GradTerm(0.5), GradTerm(0.5, None, -1.0)),
                      DirectionPack(S, tuple(-S[:, i:i + 1] for i in range(S.shape[1]))))
    if name == "forward":
        return QSSpec((GradTerm(1.0),), DirectionPack.shared(S, S))
    if name.startswith("adapted-"):
        try:
            ell = int(name.split("-", 1)[1])
        except ValueError:
            raise InvalidInputError(f"bad preset name {name!r}")
        if not (0 <= ell <= S.shape[1]):
            raise InvalidInputError(f"adapted preset index out of range: {ell}")
        if ell == 0:
            grads = (GradTerm(2.0), GradTerm(-1.0, None, 2.0))
        else:
            shift = -S[:, ell - 1]
            grads = (GradTerm(1.0), GradTerm(1.0, shift), GradTerm(-1.0, shift, 2.0))
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
    interpolates: the solve set for mn/mfn, the stencil's merged points for
    qs.  ``diagnostics`` is the solver's :class:`SolveDiagnostics` for
    mn/mfn and the :class:`InterpolationReport` on ``Y`` for qs.
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


def build(family, f, half: SampleSet, Y: SampleSet | None = None, tol=None):
    """The ``family`` model (mn | mfn | qs:<preset>) of f on the half frame ``half``.

    mn and mfn solve on ``Y``, by default the symmetric set ``half.expand()``;
    qs ignores ``Y`` and takes the :class:`QSStencil` of the preset's recipe
    on ``half``.  Returns a :class:`BuiltModel`.
    """
    kind, preset = parse_family(family)
    f = as_oracle(f)
    if kind != "qs":
        Y = half.expand() if Y is None else Y
        model, diag = (solve_mn if kind == "mn" else solve_mfn)(f, Y, tol=tol)
        return BuiltModel(model, Y, diag, kind)
    stencil = QSStencil.of(qs_preset(preset, half), half.x0)
    model = stencil.model(f.many(stencil.Y.evaluation_points()))
    return BuiltModel(model, stencil.Y, interpolation_check(model, f, stencil.Y, tol=tol), kind)
