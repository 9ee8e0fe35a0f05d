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
from .sample_sets import SampleSet, ScaledRows, _mn_residual, _split_factors
from .simplex import DirectionPack, as_oracle, delta_f, gsh, shifted_frame

__all__ = [
    "QuadraticModel",
    "ModelStack",
    "SolveDiagnostics",
    "InterpolationReport",
    "GradTerm",
    "QSSpec",
    "QSStencil",
    "BuiltModel",
    "parse_family",
    "build",
    "check_radius",
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

_TINY = float(np.finfo(float).tiny)


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
        """Model values at the rows of ``X``: :meth:`ModelStack.values` of
        the one-row stack."""
        return ModelStack.of(self).values(np.asarray(X, dtype=float)[None])[0]

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


class ModelStack(NamedTuple):
    """Quadratic models around one center ``x0``, one per row: row i is
    ``c[i] + g[i].(x - x0) + 0.5 (x - x0).H[i].(x - x0)``, with ``c``
    (rows,), ``g`` (rows, n) and ``H`` (rows, n, n).

    The solvers build a stack of every row they are given; a one-row call
    is the one-row stack, and :meth:`model` is a row as a
    :class:`QuadraticModel`.
    """

    x0: np.ndarray
    c: np.ndarray
    g: np.ndarray
    H: np.ndarray

    @classmethod
    def of(cls, model: QuadraticModel):
        """The one-row stack of ``model``."""
        return cls(model.x0, np.array([model.c]), model.g[None], model.H[None])

    def rows(self, index):
        """The stack of the rows ``index`` picks (a slice or index array)."""
        return ModelStack(self.x0, self.c[index], self.g[index], self.H[index])

    def model(self, i):
        return QuadraticModel(self.x0, self.c[i], self.g[i], self.H[i])

    def values(self, X):
        """Row i's model at the points ``X[i]`` ((rows, k, n) in all),
        taken on a C-ordered copy: the row sums of an F-ordered stack round
        differently."""
        return self.at_offsets(np.ascontiguousarray(X, dtype=float) - self.x0)

    def at_offsets(self, Dm):
        """Row i's model at ``x0 + Dm[i, j]``: one matrix-vector and one
        matrix product per row, so each row equals its one-row stack bit for
        bit."""
        quadratic = np.matmul(Dm, self.H)
        quadratic *= Dm
        return self.c[:, None] + linalg.matvec(Dm, self.g) + 0.5 * quadratic.sum(-1)


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


def _multiplier_models(rows, fv, lam, g=None):
    """:class:`ModelStack` of the multipliers ``lam`` (rows, m) on each row
    of the :class:`ScaledRows` ``rows``: ``c = f(x0)``,
    ``H = D diag(lam) D^T / 2`` symmetrized and, when ``g`` is None,
    ``g = D lam``; one product per row."""
    D = rows.D
    if g is None:
        g = linalg.matvec(D, lam)
    half = np.matmul(0.5 * (D * lam[:, None, :]), D.transpose(0, 2, 1))
    H = 0.5 * (half + half.transpose(0, 2, 1))  # kill roundoff skew; exact value is symmetric
    return ModelStack(rows.unit.x0, fv[:, 0].copy(), g, H)


def check_radius(radius):
    """Refuse an mn or mfn radius whose fourth power is not a normal float,
    below about 1.22e-77: the solves would give non-finite models."""
    if radius ** 4 < _TINY:
        raise InvalidInputError(f"radius {radius:g} is too small for mn and mfn (limit "
                                f"{_TINY ** 0.25:.3g}): its fourth power is not a normal float")


def _solved(values_core, f, Y, alpha_unique):
    """``(model, SolveDiagnostics)`` of ``values_core`` on f read at Y: the
    core's one-row stack, checked on the values it was built from."""
    pts = Y.evaluation_points()[None]
    fv = as_oracle(f).many(pts[0])[None]
    stack, lam, kkt_residual = values_core(Y.scaled([1.0]), fv)
    residual = float(interpolation_report(stack, pts, fv).max_violation[0])
    return stack.model(0), SolveDiagnostics(lam[0], float(kkt_residual[0]), residual, alpha_unique)


def solve_mn(f, Y: SampleSet):
    """Quadratic minimizing ``||g||^2 + ||H||_F^2`` among interpolants of f on Y.

    Returns ``(QuadraticModel, SolveDiagnostics)``.  Raises
    :class:`InfeasibleError` when no quadratic interpolates the data.
    """
    return _solved(solve_mn_values, f, Y, True)


def solve_mn_values(rows: ScaledRows, fv):
    """``(ModelStack, multipliers, kkt_residuals)`` of :func:`solve_mn` on
    each row of ``rows``, from the values ``fv[i]`` of f at row i's
    evaluation points.

    Each row solves its own split system, which depends on its radius, in
    the chunks of :func:`sample_sets._split_factors` (one stacked SVD each,
    radius-free parts shared by rows of equal normalized directions); a
    chunk's factors go once its rows are solved.  A one-row call at t = 1
    reads its set's cached factor, which :func:`sample_sets.poisedness`
    shares.  The models are formed as one stack.
    """
    radius = rows.radius.tolist()
    for r in radius:
        check_radius(r)
    chunks = [[rows.unit.mn_factor]] if rows.t.tolist() == [1.0] else _split_factors(rows.D, radius)
    lam, kkt, i = np.empty((len(radius), rows.unit.m)), np.empty(len(radius)), 0
    for factors in chunks:
        for fac, Vr, Vp in factors:
            rhs, kkt[i], feasible = _mn_residual(fac, Vr, Vp, radius[i], fv[i, 1:] - fv[i, 0])
            if not feasible:
                raise InfeasibleError(f"no interpolating quadratic: multiplier system residual {kkt[i]:.3e}")
            z = fac.solve(rhs)
            lam[i] = Vr @ z[: Vr.shape[1]] + Vp @ z[Vr.shape[1]:]
            i += 1
        del factors, fac, Vr, Vp  # before the next chunk's SVD
    return _multiplier_models(rows, fv, lam), lam, kkt


def solve_mfn(f, Y: SampleSet):
    """Quadratic minimizing ``||H||_F^2`` among interpolants of f on Y.

    The gradient is unique only when the bordered system is invertible; the
    returned gradient is always the minimum-norm representative and
    ``alpha_unique`` records the distinction.  The verdict is read before
    the bordered factors exist, so its own eigenvalues add no peak memory.
    """
    return _solved(solve_mfn_values, f, Y, Y.mfn_poised)


def solve_mfn_values(rows: ScaledRows, fv):
    """``(ModelStack, multipliers, kkt_residuals)`` of :func:`solve_mfn` on
    each row of ``rows``, from the values ``fv[i]`` of f at row i's
    evaluation points, solved on the normalized directions (``F_unit``,
    whose condition does not degrade like radius^-3).

    Every row solves with the unit set's ``F_unit`` factor at once: one
    matrix-vector product per row and factor.  The radius powers are
    Python's, row by row: numpy's array power rounds differently on some
    radii.
    """
    radius = rows.radius.tolist()
    for r in radius:
        check_radius(r)
    fac, (m, n) = rows.unit.F_unit_factor, (rows.unit.m, rows.unit.n)
    delta = fv[:, 1:] - fv[:, :1]
    rhs = np.zeros((len(radius), m + n))
    rhs[:, :m] = delta
    kkt = fac.range_residual(rhs)
    bad = np.flatnonzero(kkt > linalg.feasibility_tol(delta))
    if bad.size:
        raise InfeasibleError(
            f"no interpolating quadratic: bordered system residual {kkt[bad[0]]:.3e}"
        )
    z = fac.solve(rhs)
    lam = z[:, :m] / np.array([x ** 4 for x in radius])[:, None]
    return _multiplier_models(rows, fv, lam, z[:, m:] / rows.radius[:, None]), lam, kkt


def interpolation_check(model: QuadraticModel, f, Y: SampleSet):
    """Largest |model - f| over the points of Y (center included): the
    one-row :func:`interpolation_report`."""
    if np.linalg.norm(model.x0 - Y.x0) > 0:
        raise InvalidInputError("model and sample set have different centers")
    pts = Y.evaluation_points()
    report = interpolation_report(ModelStack.of(model), pts[None], as_oracle(f).many(pts)[None])
    return InterpolationReport(float(report.max_violation[0]), bool(report.passed[0]))


def interpolation_report(models: ModelStack, pts, fvals):
    """:func:`interpolation_check` of each row's model on the points
    ``pts[i]``, where f is ``fvals[i]``: an :class:`InterpolationReport` of
    (rows,) arrays."""
    worst = np.max(np.abs(models.values(pts) - fvals), axis=-1)
    scale = 1.0 + np.max(np.abs(fvals), axis=-1)
    return InterpolationReport(worst, worst <= linalg.DEFAULT_RESIDUAL_TOL * scale)


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
    index and set of pseudoinverses serve every scaling: the rows
    ``Y.scaled(t)`` (:meth:`stack`).  ``spec`` is the recipe on the half
    frame the stencil was built on.
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
        values ``fv`` of f at ``Y.scaled([t]).evaluation_points()[0]``: the
        one-row :meth:`stack`."""
        return self.stack(np.asarray(fv, dtype=float)[None], self.Y.scaled([t])).model(0)

    def stack(self, fv, rows: ScaledRows):
        """:class:`ModelStack` of the recipe on the half frame scaled by each
        ``t[i]`` of the rows ``Y.scaled(t)``, from the values ``fv[i]`` of f
        at ``rows.evaluation_points()[i]``.

        ``g = sum coeff pinv(S^T) (f[head] - f[base]) / (t scale)`` and
        ``H = pinv(S^T) R / t^2``, where row i of R is the table row
        ``f[s^i + t^j] - f[s^i] - f[t^j] + f(x0)`` times ``pinv(T_i)``.
        Every product is taken row by row and ``t^2`` is Python's power, so
        each row equals its one-row stack bit for bit.
        """
        Y, ix, t = self.Y, self.index, rows.t
        p = ix.pinv_S.shape[1]
        g = np.zeros((len(fv), Y.n))
        for coeff, scale, heads, base in ix.grads:
            diff = fv[:, heads] - fv[:, base, None]
            g = g + coeff * linalg.matvec(ix.pinv_S, diff) / (t * scale)[:, None]
        t2 = np.array([x ** 2 for x in t.tolist()])
        table = fv[:, ix.at_st] - fv[:, ix.at_s] - fv[:, ix.at_t] + fv[:, :1]
        if ix.starts is None:
            R = np.matmul(table.reshape(len(table), p, -1), ix.pinv_T)
        else:
            R = np.add.reduceat(table[:, :, None] * ix.pinv_T, ix.starts, axis=1)
        H = np.matmul(ix.pinv_S, R) / t2[:, None, None]
        return ModelStack(Y.x0, fv[:, 0].copy(), g, H)


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


def build(family, f, half: SampleSet, Y: SampleSet | None = None):
    """The ``family`` model (mn | mfn | qs:<preset>) of f on the half frame ``half``.

    mn and mfn solve on ``Y``, by default the symmetric set ``half.expand()``;
    qs ignores ``Y`` and takes the :class:`QSStencil` of the preset's recipe
    on ``half``.  Returns a :class:`BuiltModel`.
    """
    kind, preset = parse_family(family)
    f = as_oracle(f)
    if kind != "qs":
        Y = half.expand() if Y is None else Y
        model, diag = (solve_mn if kind == "mn" else solve_mfn)(f, Y)
        return BuiltModel(model, Y, diag, kind)
    stencil = QSStencil.of(qs_preset(preset, half), half.x0)
    model = stencil.model(f.many(stencil.Y.evaluation_points()))
    return BuiltModel(model, stencil.Y, interpolation_check(model, f, stencil.Y), kind)
