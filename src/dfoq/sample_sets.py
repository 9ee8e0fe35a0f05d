"""Sample sets around a center point, and their poisedness diagnostics.

A sample set stores the center ``x0`` and the nonzero displacement directions
``D`` (one column per interpolation point ``x0 + d^i``).  Read as a half
frame, a set gives its plus-minus symmetric set ``[D, -D]`` by
:meth:`SampleSet.expand`.  The rows of a sweep, one set scaled by several
factors, are one :class:`ScaledRows` geometry.
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
    "ScaledRows",
    "SymmetricFactors",
    "PoisednessReport",
    "poisedness",
]

# Relative separation below which two directions count as duplicates.
_DUP_RTOL = 1e-12
# Squared gap, relative to the squared length, within which the Gram screen
# hands a pair to the direct check: a gap within 1e-5 relative, far above the
# duplicate and merge thresholds and far above the Gram form's rounding.
_SCREEN_RTOL2 = 1e-10
_TINY = float(np.finfo(float).tiny)
# Lengths below 2^-511 square to subnormal numbers.
_MIN_LENGTH = float(np.sqrt(_TINY))


def _direction_lengths(D):
    """Column norms of ``D``, after refusing an empty set, a zero direction
    and a direction whose squared length overflows or underflows."""
    if D.shape[1] < 1:
        raise InvalidInputError("a sample set needs at least one direction")
    if not D.any(axis=0).all():
        raise InvalidInputError("zero direction in sample set")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(D, axis=0)
    for bad, what in ((norms == np.inf, "long: its squared length overflows"),
                      (norms < _MIN_LENGTH, "short: its squared length underflows")):
        if bad.any():
            raise InvalidInputError(f"direction {int(np.argmax(bad))} is too {what}")
    return norms


def _gram_gaps(D):
    """``(gaps2, sq)``: the squared gaps ``||d_i - d_j||^2`` between the
    columns of ``D`` in Gram form, from one product, and the squared lengths.

    Both are taken on ``D`` divided by its largest entry, so no square
    overflows.  Each gap is off by about ``n eps`` times the larger squared
    length, plus subnormal rounding far below the smallest normal number.
    """
    Ds = D / np.abs(D).max()
    gaps2 = Ds.T @ Ds
    sq = gaps2.diagonal().copy()
    gaps2 *= -2.0
    gaps2 += sq[:, None]
    gaps2 += sq[None, :]
    return gaps2, sq


def _screen(gaps2, bound2):
    """Pairs ``(i, j)``, ``i < j`` in row-major order, whose squared Gram gap
    is within ``1e-10 bound2`` plus the smallest normal number.

    The Gram form is off by about ``n eps bound2`` plus subnormal rounding,
    so every pair whose true gap is within ``1e-6 sqrt(bound2)`` is among
    them: every duplicate (1e-12) and every merge (1e-10).
    """
    return np.nonzero(np.triu(gaps2 <= _SCREEN_RTOL2 * bound2 + _TINY, 1))


def _validate_directions(D):
    """Refuse a bad length (:func:`_direction_lengths`) or a pair ``i < j``
    at direct gap ``||d_j - d_i|| <= 1e-12 max(||d_i||, ||d_j||)``, reported
    as columns ``i`` and ``j``; the first such pair in row-major order.

    One Gram product screens every pair and only the candidates take the
    direct difference.
    """
    norms = _direction_lengths(D)
    gaps2, sq = _gram_gaps(D)
    I, J = _screen(gaps2, np.maximum(sq[:, None], sq[None, :]))
    gaps = np.linalg.norm(D[:, J] - D[:, I], axis=0)
    dup = gaps <= _DUP_RTOL * np.maximum(norms[I], norms[J])
    if dup.any():
        k = int(np.argmax(dup))
        raise InvalidInputError(f"duplicate directions at columns {I[k]} and {J[k]}")


def _unchecked(cls, **fields):
    """Instance of a frozen set class from fields that are already valid."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class SymmetricFactors(NamedTuple):
    """Radius-free factors of a symmetric set ``[Dh, -Dh]`` of radius r.

    With ``Dbar_h = Dh / r``, ``F_scaled`` is orthogonally similar to
    ``blockdiag(r^4 Qbar / 2, [[0, sqrt(2) r Dbar_h^T], [sqrt(2) r Dbar_h, 0]])``
    with ``Qbar = (Dbar_h^T Dbar_h)^o2``, so its rank reads off the two
    factors' spectra.
    """

    Dh: np.ndarray                  # normalized half frame Dbar_h (n x p)
    half: linalg.Factorization      # of Dbar_h^T
    quartic: linalg.Factorization   # symmetric, of Qbar


def _symmetric_bordered_rank(sym, r, n):
    """:func:`linalg.numerical_rank` of ``F_scaled`` on a symmetric set in
    R^n of each radius ``r[i]``: its singular values are
    ``r^4 eig(Qbar) / 2``, each ``sqrt(2) r sigma(Dbar_h)`` twice and
    ``|n - p|`` zeros.  The powers are Python's, radius by radius."""
    p, r = sym.Dh.shape[1], np.asarray(r, dtype=float)[:, None]
    r4 = np.array([x ** 4 for x in r.ravel().tolist()])[:, None]
    s = np.hstack([r4 * sym.quartic.s / 2, np.repeat(np.sqrt(2.0) * r * sym.half.s, 2, axis=1)])
    return linalg.spectrum_rank(s, (2 * p + n, 2 * p + n))


@dataclass(frozen=True)
class SampleSet:
    """Center ``x0`` and direction matrix ``D`` (n x m, one point per column).

    Read as a half frame, the set gives its plus-minus symmetric set by
    :meth:`expand`; scaled by several factors at once, it gives the rows of
    a sweep as one :class:`ScaledRows` by :meth:`scaled`.
    """

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

    @functools.cached_property
    def radius(self):
        """Largest direction length (the set radius Delta)."""
        return float(np.max(np.linalg.norm(self.D, axis=0)))

    def normalized(self):
        """Directions divided by the set radius."""
        return self.D / self.radius

    # The set caches verdicts, norms and the factors of the systems it is
    # solved with.  F_unit, the normalized directions and the half-frame
    # factors of a symmetric set do not depend on the radius, so the rows of
    # a sweep (:class:`ScaledRows`) read them from the unit set.  The solves
    # apply a factor without forming its pseudoinverse, so holding one does
    # not raise the peak (fullquad, m up to 560: 67.5 MB).

    @functools.cached_property
    def mfn_poised(self):
        """Whether the bordered system ``F_scaled`` is nonsingular at the rank
        tolerance; the minimum-Frobenius gradient is unique exactly then.

        On a symmetric set ``[Dh, -Dh]`` the rank comes from the spectra of
        :attr:`symmetric_factors`, without forming ``F_scaled``; on any other
        set from the eigenvalues of ``F_scaled``.
        """
        return bool(self.scaled([1.0]).mfn_poised()[0])

    @functools.cached_property
    def symmetric_factors(self):
        """:class:`SymmetricFactors` of the normalized half frame when the
        directions are exactly ``[Dh, -Dh]``, else None.

        The check reads the set's own values, so the verdict does not depend
        on how the set was made.
        """
        p, odd = divmod(self.m, 2)
        if odd or not np.array_equal(self.D[:, p:], -self.D[:, :p]):
            return None
        Dh = np.ascontiguousarray(self.normalized()[:, :p])
        return SymmetricFactors(Dh, linalg.Factorization(Dh.T),
                                linalg.Factorization.symmetric((Dh.T @ Dh) ** 2))

    @functools.cached_property
    def F_unit_factor(self):
        """:meth:`linalg.Factorization.symmetric` of the bordered system
        ``F_unit = [[P, Dbar^T], [Dbar, 0]]`` on the normalized directions."""
        Dbar = self.normalized()
        return linalg.Factorization.symmetric(_bordered(Dbar, Dbar, 1.0))

    @functools.cached_property
    def F_unit_pinv_norm(self):
        """``||pinv(F_unit)||_inf``, from :attr:`F_unit_factor`."""
        return float(np.linalg.norm(self.F_unit_factor.pinv(), np.inf))

    @functools.cached_property
    def mn_factor(self):
        """``(Factorization(M), Vr, Vp)`` of the split multiplier system of
        the minimum-norm model (:func:`_split_factors`), which depends on the
        radius."""
        return next(_split_factors(self.D[None], [self.radius]))[0]

    @functools.cached_property
    def normalized_rank_and_pinv_norm(self):
        """``(rank, ||pinv(Dbar)||_1)`` of the normalized directions, from one SVD."""
        fac = linalg.Factorization(self.normalized())
        return fac.rank, linalg.matrix_norm(fac.pinv(), "op1")

    def scale(self, t):
        """Same geometry with every direction multiplied by ``t > 0``, as a
        new set, checked."""
        return SampleSet(self.x0, self.scaled([t]).D[0])

    def scaled(self, t, *checks):
        """:class:`ScaledRows` of this set at the scales ``t``, each row
        checked as a set of its own would be, then by every
        ``check(radius)``, which raises to refuse it: the first row that
        fails raises its first failure.  A one-row call is ``scaled([1.0])``.
        """
        t = np.array(t, dtype=float)
        if not ((t > 0) & np.isfinite(t)).all():
            raise InvalidInputError("scale factor must be positive and finite")
        D = t[:, None, None] * self.D  # each row keeps this set's layout
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(D, axis=1)
        bad = (~(D.any(axis=1) & (norms < np.inf) & (norms >= _MIN_LENGTH)).all(-1)).tolist()
        radius = norms.max(-1)
        for i, r in enumerate(radius.tolist()):
            if bad[i]:
                _direction_lengths(D[i])  # raises the row's own message
            for check in checks:
                check(r)
        return ScaledRows(self, t, D, radius)

    @functools.cached_property
    def _expanded(self):
        return SampleSet(self.x0, np.hstack([self.D, -self.D]))

    def expand(self):
        """The plus-minus symmetric set ``[D, -D]``, checked once and cached."""
        return self._expanded

    def points(self):
        """Interpolation points ``x0 + d^i`` as C-ordered rows (m x n);
        excludes x0."""
        return self.evaluation_points()[1:]

    def evaluation_points(self):
        """``x0`` and each point ``x0 + d^i`` as C-ordered rows: where a model
        on Y reads f; the one-row :meth:`ScaledRows.evaluation_points`."""
        return self.scaled([1.0]).evaluation_points()[0]

    def to_json_dict(self):
        return {"x0": self.x0.tolist(), "directions": self.D.T.tolist()}

    @classmethod
    def from_points(cls, x0, points):
        """Set whose directions are ``point - x0`` with near-duplicates merged
        by the rules of :meth:`from_offsets`."""
        x0 = linalg.as_vector(x0, "x0")
        return cls.from_offsets(x0, np.asarray(points, dtype=float) - x0[None, :])[0]

    @classmethod
    def from_offsets(cls, x0, offsets):
        """``(set, index)``: the set whose directions are the rows of
        ``offsets`` with near-duplicates merged, and where each row went.

        Offsets indistinguishable at relative 1e-10 collapse to one direction
        and offsets of relative length below 1e-14 (the center) are dropped.
        ``index[r]`` is 0 when row r is the center, else one more than the
        column of ``set.D`` that row r merged into.
        """
        x0 = linalg.as_vector(x0, "x0")
        offsets = np.asarray(offsets, dtype=float)
        if offsets.ndim != 2 or offsets.shape[1] != x0.size:
            raise InvalidInputError("points and offsets must be rows of the same dimension as x0")
        if not np.isfinite(offsets).all():
            raise InvalidInputError("offsets of the points from x0 are not all finite")
        if not offsets.any():
            raise InvalidInputError("no nonzero offsets among the points")
        # An offset whose bytes repeat an earlier one is always merged into
        # it (or into what it was merged into), so it is dropped up front.
        seen, firsts, repeat_of = {}, [], np.empty(len(offsets), dtype=np.intp)
        for i, row in enumerate(offsets):
            repeat_of[i] = seen.setdefault(row.tobytes(), len(firsts))
            if repeat_of[i] == len(firsts):
                firsts.append(i)
        offsets = offsets[firsts]
        with np.errstate(over="ignore"):
            lengths = np.linalg.norm(offsets, axis=1)
        scale = float(np.max(lengths))
        if not _MIN_LENGTH <= scale < np.inf:
            raise InvalidInputError(
                f"largest offset length {scale:g} squares outside the double range"
            )
        long = np.flatnonzero(lengths > 1e-14 * scale)
        offsets = offsets[long]
        # Greedy merge in row order: an offset is dropped when it lies within
        # 1e-10 * scale of an earlier kept one, and merges into the first
        # such one.  Pairs are screened by the Gram form against the scale
        # and decided by the direct gap; in row-major order keep[i] is final
        # before any pair (i, j) is read.
        gaps2, sq = _gram_gaps(offsets.T)
        I, J = _screen(gaps2, sq.max())
        close = np.linalg.norm(offsets[I] - offsets[J], axis=1) <= 1e-10 * scale
        keep = np.ones(len(offsets), dtype=bool)
        into = np.arange(len(offsets))
        for i, j in zip(I[close], J[close]):
            if keep[i] and keep[j]:
                keep[j] = False
                into[j] = i
        # every kept pair is more than 1e-10 * scale apart, so none is a
        # duplicate (1e-12 of the longer one) and only the lengths are checked
        D = offsets[keep].T
        _direction_lengths(D)
        column = np.cumsum(keep)  # one more than each kept row's column
        where = np.zeros(len(lengths), dtype=np.intp)
        where[long] = column[into]
        return _unchecked(cls, x0=x0, D=D), where[repeat_of]

    @classmethod
    def from_json_dict(cls, doc):
        x0, D = _json_arrays(doc)
        return cls(x0, D.T)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        """The set :meth:`save` wrote to ``path``.  A file that cannot be read
        or parsed raises :class:`InvalidInputError` naming the path."""
        try:
            with open(path) as fh:
                x0, D = _json_arrays(json.load(fh))
        except (OSError, ValueError) as exc:  # decode errors and InvalidInputError are ValueErrors
            raise InvalidInputError(f"cannot read sample set {path}: {exc}") from None
        return cls(x0, D.T)


class ScaledRows(NamedTuple):
    """The rows of a sweep as one scaled geometry: row i has the directions
    ``D[i] = t[i] unit.D`` and radius ``radius[i]``, bit for bit what the set
    ``unit.scale(t[i])`` holds, and reads the ``unit`` set's radius-free
    factors.  Made by :meth:`SampleSet.scaled`.  Each ``D[i]`` keeps the
    unit's memory layout, as ``np.stack`` of the rows' sets would: the
    stacked norms and products then round as the rows' own."""

    unit: SampleSet
    t: np.ndarray
    D: np.ndarray
    radius: np.ndarray

    def evaluation_points(self):
        """``x0`` and each row's points ``x0 + d^i`` as one C-ordered
        ``(rows, m + 1, n)`` table.  ``x0 + D^T`` alone would keep the
        transpose's layout, and F-ordered rows sum in another order."""
        x0, (rows, n, m) = self.unit.x0, self.D.shape
        out = np.empty((rows, m + 1, n))
        out[:, 0] = x0
        np.add(x0, self.D.transpose(0, 2, 1), out=out[:, 1:])
        return out

    def mfn_poised(self):
        """Each row's :attr:`SampleSet.mfn_poised` as a (rows,) array: on a
        symmetric unit set from its half-frame spectra at every radius in one
        call, on any other set from each row's ``F_scaled``."""
        unit = self.unit
        if unit.symmetric_factors is not None:
            return _symmetric_bordered_rank(unit.symmetric_factors, self.radius, unit.n) == unit.m + unit.n
        # the moduli of the eigenvalues of F_scaled are its singular values
        Dbar = self.D / self.radius[:, None, None]
        F = np.stack([_bordered(Dbar[i], self.D[i], r ** 4) for i, r in enumerate(self.radius.tolist())])
        return linalg.spectrum_rank(np.abs(np.linalg.eigvalsh(F)), F.shape[1:]) == F.shape[1]


def _json_arrays(doc):
    """``(x0, directions)`` of a set's JSON document as float arrays, the
    directions one per row."""
    try:
        x0, directions = doc["x0"], doc["directions"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError("sample set JSON needs 'x0' and 'directions'") from exc
    try:
        x0, D = np.asarray(x0, dtype=float), np.asarray(directions, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"'x0' and 'directions' must be numbers in equal-length rows: {exc}") from None
    if D.ndim != 2:
        raise InvalidInputError("'directions' must be a list of equal-length rows")
    return x0, D


def _bordered(Dbar, Dmat, weight):
    """``[[weight P, Dmat^T], [Dmat, 0]]`` with the quadratic-term Gram block
    ``P_ij = (dbar^i . dbar^j)^2 / 4`` of the normalized directions ``Dbar``."""
    P = 0.25 * (Dbar.T @ Dbar) ** 2
    n, m = Dbar.shape
    F = np.zeros((m + n, m + n))
    F[:m, :m] = weight * P
    F[:m, m:] = Dmat.T
    F[m:, :m] = Dmat
    return F


def _split_parts(Dbar):
    """``(Vr, Vp, w_r, w_p, P_rr, P_rp, P_pr, P_pp)``, the radius-free parts
    of :func:`_split_factors` on ``Dbar``, the Gram eigenvalues as vectors;
    ``P`` reuses the Gram matrix's buffer, and each temporary goes once used."""
    P = Dbar.T @ Dbar
    w, V = np.linalg.eigh(P)
    hi = w > linalg.rank_tolerance(P) * max(float(w[-1]), 0.0)
    Vr, Vp = V[:, hi], V[:, ~hi]
    del V
    np.multiply(0.25, np.square(P, out=P), out=P)
    VrP = Vr.T @ P  # each left product serves two blocks
    P_rr, P_rp, VrP = VrP @ Vr, VrP @ Vp, None
    VpP, P = Vp.T @ P, None
    return Vr, Vp, w[hi], w[~hi], P_rr, P_rp, VpP @ Vr, VpP @ Vp


def _split_matrix(M, r, Vr, Vp, w_r, w_p, P_rr, P_rp, P_pr, P_pp):
    """Write the split system of :func:`_split_parts` at radius ``r`` into
    ``M``; return ``(Vr, Vp)``.  Off their diagonals the diagonal blocks take
    ``+ 0.0``, as from a dense diagonal matrix: a -0.0 of ``P`` reads +0.0."""
    k, r2 = Vr.shape[1], r ** 2
    np.add(r2 * P_rr, 0.0, out=M[:k, :k])
    np.fill_diagonal(M[:k, :k], r2 * P_rr.diagonal() + w_r)
    np.multiply(r2, P_rp, out=M[:k, k:])
    M[k:, :k] = P_pr
    np.add(P_pp, 0.0, out=M[k:, k:])
    np.fill_diagonal(M[k:, k:], w_p / r2 + P_pp.diagonal())
    return Vr, Vp


def _split_factors(D, radius):
    """Yield, chunk by chunk, the ``(Factorization(M), Vr, Vp)`` of the
    minimum-norm model's split multiplier system on each row of the
    directions ``D`` (rows, n, m), normalized by the row's radius r.

    The multiplier matrix D'D + (1/4)(D'D)^o2 carries gradient content at
    radius^2 and curvature content at radius^4, so solving it head-on loses
    accuracy like radius^-2.  ``M`` splits it along an eigenbasis
    ``[Vr, Vp]`` of the normalized Gram matrix (range and null part) and
    rescales each block to O(1): ``[[w_r + r^2 P_rr, r^2 P_rp], [P_pr,
    w_p / r^2 + P_pp]]``, with ``w_r``, ``w_p`` the Gram eigenvalues on each
    part and ``P_rp = Vr^T P Vp`` and so on for ``P = (D'D)^o2 / 4``.  The
    basis change is orthogonal, so the minimum-norm multiplier is preserved.
    A chunk is :func:`linalg.batches` at 3 m^2 floats a row (``M``, ``U``,
    ``Vt``), factored by one stacked SVD.  The parts are taken again only
    where a row's normalized directions differ from the previous row's, bit
    for bit, across chunks too, and are dropped before an SVD unless the
    next row reads them; each ``M`` is written with Python's radius powers.
    """
    m, parts = D.shape[2], None
    for chunk in linalg.batches(len(radius), 3 * m * m):
        M, bases = np.empty((len(D[chunk]), m, m)), []
        for j, i in enumerate(range(len(radius))[chunk]):
            parts = parts or _split_parts(D[i] / radius[i])
            bases.append(_split_matrix(M[j], radius[i], *parts))
            if i + 1 == len(radius) or not np.array_equal(D[i + 1] / radius[i + 1], D[i] / radius[i]):
                parts = None
        yield [(fac, Vr, Vp) for fac, (Vr, Vp) in zip(linalg.Factorization.each(M), bases)]


def _mn_residual(fac, Vr, Vp, r, delta):
    """``(rhs, residual, feasible)`` of the split system ``(fac, Vr, Vp)``
    at radius ``r`` for the shifted values ``delta``: its rescaled
    right-hand side, the norm of the part outside the system's range and
    whether that is within :func:`linalg.feasibility_tol`.  Some quadratic
    interpolates the data exactly when it is; the recomputed solve residual
    would inflate with the condition number instead.  A tolerance or
    residual that overflows (just above the mn/mfn radius limit) checks
    nothing and raises :class:`InvalidInputError`.
    """
    with np.errstate(over="ignore"):
        rhs = np.concatenate([Vr.T @ delta / r ** 2, Vp.T @ delta / r ** 4])
        tol = linalg.feasibility_tol(rhs)
        residual = fac.range_residual(rhs) if np.isfinite(tol) else np.inf
    if not np.isfinite(residual):
        raise InvalidInputError(f"radius {r:g} is too small for mn: the consistency check "
                                "of its split system overflows")
    return rhs, residual, residual <= tol


@dataclass(frozen=True)
class PoisednessReport:
    """``mn_feasible`` and ``residual`` are those of :func:`models.solve_mn`
    on the same data, ``rank_D`` the rank of the normalized directions."""

    mn_feasible: bool
    mfn_poised: bool
    rank_D: int
    residual: float = field(default=0.0)


def poisedness(Y: SampleSet, fvals) -> PoisednessReport:
    """Feasibility / poisedness diagnostics for the set with values ``fvals``.

    ``fvals`` are the shifted values ``f(x0 + d^i) - f(x0)``.  Every verdict
    reads a factor the set caches, shared with the solvers.
    """
    delta = linalg.as_vector(fvals, "fvals")
    if delta.size != Y.m:
        raise InvalidInputError("fvals length must equal the number of directions")
    _, residual, feasible = _mn_residual(*Y.mn_factor, Y.radius, delta)
    return PoisednessReport(
        mn_feasible=bool(feasible),
        mfn_poised=Y.mfn_poised,
        rank_D=Y.normalized_rank_and_pinv_norm[0],
        residual=float(residual),
    )
