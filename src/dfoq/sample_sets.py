"""Sample sets around a center point, and their poisedness diagnostics.

A sample set stores the center ``x0`` and the nonzero displacement directions
``D`` (one column per interpolation point ``x0 + d^i``).  A structured set
stores only the half frame of a plus-minus symmetric set.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import InvalidInputError

__all__ = [
    "SampleSet",
    "StructuredSet",
    "PoisednessReport",
    "KKTMatrices",
    "kkt_matrices",
    "poisedness",
]

# Relative separation below which two directions count as duplicates.
_DUP_RTOL = 1e-12


def _validate_directions(D):
    if D.shape[1] < 1:
        raise InvalidInputError("a sample set needs at least one direction")
    norms = np.linalg.norm(D, axis=0)
    if np.any(norms == 0.0):
        raise InvalidInputError("zero direction in sample set")
    # One pass per column against every later column.  The gaps are direct
    # differences: a Gram-matrix distance cancels to ~1e-8 ||d||, far above
    # the duplicate threshold, and an all-pairs difference tensor is m*m*n.
    for i in range(D.shape[1] - 1):
        gaps = np.linalg.norm(D[:, i + 1:] - D[:, i:i + 1], axis=0)
        dup = gaps <= _DUP_RTOL * np.maximum(norms[i], norms[i + 1:])
        if dup.any():
            j = i + 1 + int(np.argmax(dup))
            raise InvalidInputError(f"duplicate directions at columns {i} and {j}")


def _validate_antipodes(Dhalf):
    """Duplicate check of ``[Dhalf, -Dhalf]`` for a half frame that passed
    :func:`_validate_directions`, reporting the pair that check would.

    ``fl(-a - (-b)) = -fl(a - b)``, so only a pair ``d^i, -d^k`` can be a
    new duplicate, at gap ``||d^i + d^k||``.  The gap is symmetric in i and
    k, so the first pair in the full check's order has ``k >= i``.
    """
    p = Dhalf.shape[1]
    norms = np.linalg.norm(Dhalf, axis=0)
    for i in range(p):
        gaps = np.linalg.norm(Dhalf[:, i:] + Dhalf[:, i:i + 1], axis=0)
        dup = gaps <= _DUP_RTOL * np.maximum(norms[i], norms[i:])
        if dup.any():
            j = p + i + int(np.argmax(dup))
            raise InvalidInputError(f"duplicate directions at columns {i} and {j}")


@dataclass(frozen=True)
class SampleSet:
    """Center ``x0`` and direction matrix ``D`` (n x m, one point per column)."""

    x0: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        x0 = linalg.as_vector(self.x0, "x0")
        D = linalg.as_matrix(self.D, "D")
        if D.shape[0] != x0.size:
            raise InvalidInputError(f"D has {D.shape[0]} rows but x0 has length {x0.size}")
        _validate_directions(D)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "D", D)

    @property
    def n(self):
        return self.x0.size

    @property
    def m(self):
        return self.D.shape[1]

    @property
    def radius(self):
        """Largest direction length (the set radius Delta)."""
        return float(np.max(np.linalg.norm(self.D, axis=0)))

    def normalized(self):
        """Directions divided by the set radius."""
        return self.D / self.radius

    # The set caches verdicts, norms and one factor: that of F_unit, which
    # solve_mfn and kappa_mH_mfn both read.  It lives as long as the set
    # (5.6 MB at m + n = 592), but the solve applies it without forming the
    # pseudoinverse, so holding it does not raise the peak: the fullquad
    # benchmark (m up to 560) peaks at 137 MB with the cache as without it.
    # Every other system is factored by the function that reads it.

    @functools.cached_property
    def mfn_poised(self):
        """Whether the bordered system ``F_scaled`` is nonsingular at the rank
        tolerance; the minimum-Frobenius gradient is unique exactly then."""
        return linalg.numerical_rank(kkt_matrices(self).F_scaled) == self.m + self.n

    @functools.cached_property
    def F_unit_factor(self):
        """:meth:`linalg.Factorization.symmetric` of the bordered system ``F_unit``."""
        return linalg.Factorization.symmetric(kkt_matrices(self).F_unit)

    @functools.cached_property
    def normalized_rank_and_pinv_norm(self):
        """``(rank, ||pinv(Dbar)||_1)`` of the normalized directions, from one SVD."""
        fac = linalg.Factorization(self.normalized())
        return fac.rank, linalg.matrix_norm(fac.pinv(), "op1")

    def scale(self, t):
        """Same geometry with every direction multiplied by ``t > 0``."""
        t = float(t)
        if not (t > 0) or not np.isfinite(t):
            raise InvalidInputError("scale factor must be positive and finite")
        return SampleSet(self.x0, t * self.D)

    def points(self):
        """Interpolation points ``x0 + d^i`` as rows (m x n); excludes x0."""
        return self.x0[None, :] + self.D.T

    def to_json_dict(self):
        return {"x0": self.x0.tolist(), "directions": self.D.T.tolist()}

    @classmethod
    def from_points(cls, x0, points):
        """Set whose directions are ``point - x0`` with near-duplicates merged.

        Offsets indistinguishable at relative 1e-10 collapse to one direction
        and offsets of relative length below 1e-14 (the center) are dropped.
        """
        x0 = linalg.as_vector(x0, "x0")
        offsets = np.asarray(points, dtype=float) - x0[None, :]
        if offsets.ndim != 2 or offsets.shape[1] != x0.size:
            raise InvalidInputError("points must be rows of the same dimension as x0")
        lengths = np.linalg.norm(offsets, axis=1)
        scale = float(np.max(lengths, initial=0.0))
        if scale == 0.0:
            raise InvalidInputError("no nonzero offsets among the points")
        offsets = offsets[lengths > 1e-14 * scale]
        kept = np.empty_like(offsets)
        count = 0
        for off in offsets:
            if count and np.min(np.linalg.norm(kept[:count] - off, axis=1)) <= 1e-10 * scale:
                continue
            kept[count] = off
            count += 1
        return cls(x0, kept[:count].T)

    @classmethod
    def from_json_dict(cls, doc):
        try:
            x0 = doc["x0"]
            directions = doc["directions"]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError("sample set JSON needs 'x0' and 'directions'") from exc
        D = np.asarray(directions, dtype=float)
        if D.ndim != 2:
            raise InvalidInputError("'directions' must be a list of equal-length rows")
        return cls(np.asarray(x0, dtype=float), D.T)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class StructuredSet:
    """Half frame of a plus-minus symmetric set: points ``x0 +- d^i``."""

    x0: np.ndarray
    Dhalf: np.ndarray

    def __post_init__(self):
        x0 = linalg.as_vector(self.x0, "x0")
        Dhalf = linalg.as_matrix(self.Dhalf, "Dhalf")
        if Dhalf.shape[0] != x0.size:
            raise InvalidInputError("Dhalf row count must match len(x0)")
        _validate_directions(Dhalf)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "Dhalf", Dhalf)

    @property
    def n(self):
        return self.x0.size

    @property
    def p(self):
        return self.Dhalf.shape[1]

    @property
    def radius(self):
        return float(np.max(np.linalg.norm(self.Dhalf, axis=0)))

    def scale(self, t):
        t = float(t)
        if not (t > 0) or not np.isfinite(t):
            raise InvalidInputError("scale factor must be positive and finite")
        return StructuredSet(self.x0, t * self.Dhalf)

    def expand(self):
        """Full symmetric SampleSet with directions ``[Dhalf, -Dhalf]``."""
        _validate_antipodes(self.Dhalf)
        # the half frame is valid, so the full check of SampleSet would
        # repeat every pair within Dhalf and within -Dhalf
        Y = object.__new__(SampleSet)
        object.__setattr__(Y, "x0", self.x0)
        object.__setattr__(Y, "D", np.hstack([self.Dhalf, -self.Dhalf]))
        return Y

    def as_gsh_pack(self):
        """Direction pack ``(S, T_i = [-d^i])`` for the centred simplex Hessian."""
        from .simplex import DirectionPack

        Ts = [-self.Dhalf[:, i:i + 1].copy() for i in range(self.p)]
        return DirectionPack(self.Dhalf, tuple(Ts))


class KKTMatrices(NamedTuple):
    """Blocks of the minimum-Frobenius interpolation system.

    P        : m x m quadratic-term Gram block on normalized directions,
               P_ij = ((dbar^i . dbar^j)^2) / 4.
    F_scaled : (m+n) x (m+n) system matrix on raw directions,
               [[radius^4 * P, D^T], [D, 0]].
    F_unit   : same bordered matrix built from normalized directions.
    """

    P: np.ndarray
    F_scaled: np.ndarray
    F_unit: np.ndarray


def kkt_matrices(Y: SampleSet) -> KKTMatrices:
    """Build the quadratic Gram block and both bordered system matrices."""
    Dbar = Y.normalized()
    P = 0.25 * (Dbar.T @ Dbar) ** 2
    n, m = Y.n, Y.m

    def bordered(Dmat, Pblock):
        F = np.zeros((m + n, m + n))
        F[:m, :m] = Pblock
        F[:m, m:] = Dmat.T
        F[m:, :m] = Dmat
        return F

    F_unit = bordered(Dbar, P)
    F_scaled = bordered(Y.D, Y.radius ** 4 * P)
    return KKTMatrices(P, F_scaled, F_unit)


@dataclass(frozen=True)
class PoisednessReport:
    mn_feasible: bool
    mfn_poised: bool
    F_cond: float
    rank_D: int
    residual: float = field(default=0.0)


def poisedness(Y: SampleSet, fvals, tol=None) -> PoisednessReport:
    """Feasibility / poisedness diagnostics for the set with values ``fvals``.

    ``fvals`` are the shifted values ``f(x0 + d^i) - f(x0)``.
    """
    delta = linalg.as_vector(fvals, "fvals")
    if delta.size != Y.m:
        raise InvalidInputError("fvals length must equal the number of directions")

    # Consistency of the multiplier system, judged on radius-normalized
    # directions so the verdict does not degrade with the set radius.
    r = Y.radius
    Dbar = Y.normalized()
    gram = Dbar.T @ Dbar
    rhs = delta / r ** 2
    residual = linalg.Factorization.symmetric(gram + 0.25 * r ** 2 * gram ** 2).range_residual(rhs)
    feas_tol = (linalg.DEFAULT_RESIDUAL_TOL if tol is None else float(tol)) * (
        1.0 + np.linalg.norm(rhs)
    )
    mn_feasible = residual <= feas_tol

    mfn_poised = Y.mfn_poised
    if mfn_poised:
        F_scaled = kkt_matrices(Y).F_scaled
        F_cond = float(
            np.linalg.norm(F_scaled, np.inf) * np.linalg.norm(np.linalg.inv(F_scaled), np.inf)
        )
    else:
        F_cond = float("inf")

    return PoisednessReport(
        mn_feasible=bool(mn_feasible),
        mfn_poised=mfn_poised,
        F_cond=F_cond,
        rank_D=linalg.numerical_rank(Y.D),
        residual=float(residual),
    )
