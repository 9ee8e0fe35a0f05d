"""Worst-case error constants, directional Hessian bounds, and the
measurement side that checks them.

Constant conventions: ``kappa_ef`` bounds ``|f - m|`` by ``kappa_ef * Delta^2``
and ``kappa_eg`` bounds ``||grad f - grad m||`` by ``kappa_eg * Delta`` over
the ball ``B(x0, Delta)`` whose radius is the sample-set radius.  Hessian-side
constants ``kappa_mH`` bound the model curvature along unit directions.

The constants and the sweep's directional bounds take floats or, elementwise,
arrays that broadcast against each other: one call bounds every row of a
sweep, and each entry equals the call on its own floats bit for bit.  Powers
of a radius are Python's, entry by entry (:func:`_power`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DirectionDomainError, InvalidInputError, NotPoisedError
from .models import ModelStack
from .sample_sets import SampleSet, ScaledRows
from .simplex import Oracle

__all__ = [
    "LipschitzData",
    "BoundConstants",
    "ErrorMeasurement",
    "kappa_mH_mfn",
    "kappa_mH_mn",
    "kappa_mH_qs",
    "kappa_generic",
    "directional_bound_aligned",
    "directional_bound_cross",
    "directional_bound_general",
    "hess_error_bound_global",
    "directional_bound_gsh_cross",
    "directional_bound_gsh_general",
    "gsh_error_bound_global",
    "ball_points",
    "measure_errors",
    "measure_rows",
    "fit_slope",
    "roundoff_floor",
]

# Frozen scramble seed: the ball sample is part of the reproducible surface.
_HALTON_SEED = 54709
DEFAULT_SAMPLES = 512

# Measured errors at or below this multiple of eps*|f| are roundoff, not signal.
ROUNDOFF_FLOOR = 1e3 * float(np.finfo(float).eps)

# Relative residual under which a direction lies in the span of a frame.
_SPAN_RTOL = 1e-8


@dataclass(frozen=True)
class LipschitzData:
    """Derivative bounds valid on a ball of ``region_radius`` around a center."""

    L_grad: float
    L_hess: float
    kappa_g: float
    region_radius: float

    def __post_init__(self):
        for name in ("L_grad", "L_hess", "kappa_g", "region_radius"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0:
                raise InvalidInputError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class BoundConstants:
    """Constants of :func:`kappa_generic`: floats, or arrays over stacked
    inputs."""

    kappa_mH: float
    kappa_ef: float
    kappa_eg: float


def _unwrapped(a):
    """A 0-d result as a float; an array as it is."""
    return float(a) if np.ndim(a) == 0 else a


def _checked(x, name, what, ok):
    """``x`` as a float, or elementwise as an array, refused unless finite
    and ``ok``."""
    if isinstance(x, (int, float)):
        a = float(x)
        valid = math.isfinite(a) and ok(a)
    else:
        a = _unwrapped(np.asarray(x, dtype=float))
        valid = bool(np.all(np.isfinite(a) & ok(a)))
    if not valid:
        raise InvalidInputError(f"{name} must be {what} and finite")
    return a


def _positive(x, name):
    return _checked(x, name, "positive", lambda a: a > 0)


def _nonnegative(x, name):
    return _checked(x, name, "nonnegative", lambda a: a >= 0)


def _power(x, k):
    """``x ** k`` as Python takes it on floats, entry by entry.  numpy's
    array power is not Python's: over 2e5 log-uniform radii in [1e-9, 10],
    ``**3`` differs in the last bit in about 5 % of them."""
    if np.ndim(x) == 0:
        return x ** k
    return np.array([v ** k for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def kappa_mH_mfn(L_grad, Y: SampleSet):
    """Curvature constant of the minimum-Frobenius model: (L/4) m ||F^-1||_inf.

    ``F`` is the bordered system on normalized directions, so the value is
    invariant under scaling of the set.  Raises NotPoisedError when F is
    singular at the rank tolerance.
    """
    L = _nonnegative(L_grad, "L_grad")
    fac = Y.F_unit_factor
    if fac.s[-1] <= fac.cutoff:
        raise NotPoisedError("bordered system singular: set not poised")
    return 0.25 * L * Y.m * Y.F_unit_pinv_norm


def kappa_mH_mn(kappa_g, kappa_eg_mfn, delta_bar, kappa_mH_mfn_value, Y: SampleSet | None = None):
    """Curvature constant of the minimum-norm model.

    ``delta_bar`` must dominate the set radius; asserted when Y is supplied.
    """
    kg = _nonnegative(kappa_g, "kappa_g")
    keg = _nonnegative(kappa_eg_mfn, "kappa_eg_mfn")
    db = _positive(delta_bar, "delta_bar")
    kmh = _nonnegative(kappa_mH_mfn_value, "kappa_mH_mfn_value")
    if Y is not None and np.any(db < Y.radius * (1.0 - 1e-12)):
        raise InvalidInputError("delta_bar must be at least the sample-set radius")
    return _unwrapped(np.hypot(kg + keg * db, kmh))


def _pinv_spectral_norm(M):
    """``||pinv(M)||_2``: one over the smallest singular value above the
    cutoff, read from one factorization; 0 for a zero matrix."""
    fac = linalg.Factorization(M)
    return 1.0 / float(fac.s[fac.rank - 1]) if fac.rank else 0.0


def kappa_mH_qs(L_grad, spec):
    """Curvature constant of a simplex-derivative model:
    ``L ||pinv(Sbar)|| * sqrt(sum_i q_i ||pinv(Tbar_i)||^2)`` on the recipe's
    pack, each frame normalized by its own radius.
    """
    L = _nonnegative(L_grad, "L_grad")
    pack = spec.pack
    Sbar = pack.S / np.max(np.linalg.norm(pack.S, axis=0))
    inner = 0.0
    for T, norm in zip(pack.Ts, _frame_pinv_norms(pack.Ts)):
        inner += T.shape[1] * norm ** 2
    return L * (_pinv_spectral_norm(Sbar) * np.sqrt(inner))


def _frame_pinv_norms(Ts):
    """``||pinv(Tbar_i)||`` of each frame ``T_i`` divided by its radius, as
    floats: one factorization each, or, when every frame is one column, the
    closed forms of :func:`linalg.column_pinvs` in one pass, each column's
    norm taken as the column's own (a unit-stride reduction)."""
    if any(T.shape[1] > 1 for T in Ts):
        return [_pinv_spectral_norm(T / np.max(np.linalg.norm(T, axis=0))) for T in Ts]
    A = np.hstack(Ts)
    return linalg.column_pinvs(A / np.linalg.norm(np.ascontiguousarray(A.T), axis=1))[1].tolist()


def kappa_generic(L_grad, kappa_mH, Y: SampleSet):
    """Value/gradient constants shared by every interpolating model family.

    kappa_ef = (L + kappa_mH)/2 * (sqrt(n) ||pinv(Dbar)||_1 + 1)
    kappa_eg = 2 kappa_ef + 2 kappa_mH

    Raises NotPoisedError when the directions do not span R^n: no model
    interpolating on them carries gradient information off their span.
    """
    L = _nonnegative(L_grad, "L_grad")
    kmh = _nonnegative(kappa_mH, "kappa_mH")
    rank, pinv_norm = Y.normalized_rank_and_pinv_norm
    if rank < Y.n:
        raise NotPoisedError(f"directions span {rank} of {Y.n} dimensions: set not poised")
    kappa_ef = 0.5 * (L + kmh) * np.sqrt(Y.n) * pinv_norm + 0.5 * (L + kmh)
    kappa_eg = 2.0 * kappa_ef + 2.0 * kmh
    return BoundConstants(kappa_mH=kmh, kappa_ef=_unwrapped(kappa_ef),
                          kappa_eg=_unwrapped(kappa_eg))


def directional_bound_aligned(L_hess, delta):
    """Bound along a sampled direction of a plus-minus symmetric set: L Delta / 3.

    This is an upper bound, not a rate.  Its order Delta is reached only when
    the Hessian is Lipschitz (constant ``L_hess``) without a third derivative.
    On a symmetric set the diagonal curvature is a centred second difference,
    whose odd third-order term cancels, so on a C^4 function the aligned
    error decays as Delta^2 (exactly ``2 Delta^2`` on ``sum x_i^4``) and sits
    well below the bound at small radii.
    """
    return _nonnegative(L_hess, "L_hess") * _positive(delta, "delta") / 3.0


def directional_bound_cross(kappa_ef, L_hess, delta, norm_di, norm_dj):
    """Bound between two distinct sampled directions of a symmetric set.

    The arguments broadcast against each other, and each entry equals the
    scalar call on its own arguments exactly: a sweep bounds every row in
    one call, at the norms of the row's pair with the largest error.
    Scalars give a float.
    """
    kef = _nonnegative(kappa_ef, "kappa_ef")
    L = _nonnegative(L_hess, "L_hess")
    d = _positive(delta, "delta")
    ni = _positive(norm_di, "norm_di")
    nj = _positive(norm_dj, "norm_dj")
    bound = (4.0 * kef * _power(d, 2) / (ni * nj)
             + (2.0 * L / 3.0) * _power(d, 3) / (ni * nj))
    return _unwrapped(bound)


def _coefficient_ratio(v):
    """(||v||_1^2 - ||v||_inf^2) / ||v||_2^2 for the expansion coefficients."""
    nrm2 = float(np.dot(v, v))
    if nrm2 == 0.0:
        raise InvalidInputError("direction expands to the zero coefficient vector")
    n1 = float(np.sum(np.abs(v)))
    ninf = float(np.max(np.abs(v)))
    return (n1 ** 2 - ninf ** 2) / nrm2


def _require_full_row_rank(rank, D):
    if rank < D.shape[0]:
        raise DirectionDomainError("half frame must have full row rank")


def _directional_bound(lead, w, L, frame, v=None):
    """``ratio lead ||pinv(Fbar)||^2 + (L/3) ||pinv(Fbar)||^2 (w ratio + 1) Delta_F``.

    ``Fbar`` is the frame divided by its radius ``Delta_F`` and ``ratio`` the
    coefficient ratio of the direction's expansion ``v``; without ``v`` it is
    the worst ratio over all directions, ``p - 1/p`` (the uniform expansion).
    The interpolation bounds take ``lead = 4 kappa_ef, w = 2``, the centred
    simplex-Hessian bounds ``lead = ||hess f||, w = 1``.
    """
    p = frame.shape[1]
    ratio = p - 1.0 / p if v is None else _coefficient_ratio(v)
    radius = float(np.max(np.linalg.norm(frame, axis=0)))
    pinv_sq = linalg.matrix_norm(linalg.pinv(frame / radius), "spectral") ** 2
    return ratio * lead * pinv_sq + (L / 3.0) * pinv_sq * (w * ratio + 1.0) * radius


def directional_bound_general(kappa_ef, L_hess, Dhalf, d):
    """Interpolation-model bound along an arbitrary nonzero direction ``d``.

    ``Dhalf`` is the half frame of the symmetric set and must have full row
    rank so that every direction expands as ``d = Dhalf v``.
    """
    kef = _nonnegative(kappa_ef, "kappa_ef")
    L = _nonnegative(L_hess, "L_hess")
    D = linalg.as_matrix(Dhalf, "Dhalf")
    dvec = linalg.as_vector(d, "d")
    fac = linalg.Factorization(D)
    _require_full_row_rank(fac.rank, D)
    return _directional_bound(4.0 * kef, 2.0, L, D, fac.pinv() @ dvec)


def hess_error_bound_global(kappa_ef, L_hess, Dhalf):
    """Worst case of :func:`directional_bound_general` over all directions,
    a direction-free bound."""
    kef = _nonnegative(kappa_ef, "kappa_ef")
    L = _nonnegative(L_hess, "L_hess")
    D = linalg.as_matrix(Dhalf, "Dhalf")
    _require_full_row_rank(linalg.numerical_rank(D), D)
    return _directional_bound(4.0 * kef, 2.0, L, D)


def directional_bound_gsh_cross(hess_norm, L_hess, delta):
    """Centred simplex-Hessian bound between distinct directions."""
    return _nonnegative(hess_norm, "hess_norm") + _nonnegative(L_hess, "L_hess") * _positive(delta, "delta") / 3.0


def directional_bound_gsh_general(hess_norm, L_hess, S, d):
    """Centred simplex-Hessian bound along ``d`` in the span of the frame."""
    hn = _nonnegative(hess_norm, "hess_norm")
    L = _nonnegative(L_hess, "L_hess")
    frame = linalg.as_matrix(S, "S")
    dvec = linalg.as_vector(d, "d")
    v = linalg.pinv(frame) @ dvec
    if np.linalg.norm(frame @ v - dvec) > _SPAN_RTOL * np.linalg.norm(dvec):
        raise DirectionDomainError("direction lies outside the span of the frame")
    return _directional_bound(hn, 1.0, L, frame, v)


def gsh_error_bound_global(hess_norm, L_hess, S):
    """Worst case of the centred simplex-Hessian bound over the frame's span."""
    hn = _nonnegative(hess_norm, "hess_norm")
    L = _nonnegative(L_hess, "L_hess")
    frame = linalg.as_matrix(S, "S")
    return _directional_bound(hn, 1.0, L, frame)


def _first_primes(d):
    primes = []
    c = 2
    while len(primes) < d:
        if all(c % p for p in primes if p * p <= c):
            primes.append(c)
        c += 1
    return primes


def _scrambled_halton(d, k, seed):
    """First ``k`` points of the scrambled Halton sequence in ``[0, 1)^d``.

    Owen's digit-permutation scrambling (arXiv:1706.02808) with one
    permutation per digit, drawn base by base from ``default_rng(seed)``.
    Equal bit for bit, strides included, to scipy's
    ``qmc.Halton(d, scramble=True, seed=seed).random(k)``: the same
    permutation stream and the same digit accumulation order.
    """
    rng = np.random.default_rng(seed)
    u = np.zeros((d, k))
    for row, b in zip(u, _first_primes(d)):
        # one permutation per digit that 1 - b**-j < 1 can still resolve
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        i = np.arange(k)
        b2r = 1.0 / b
        for perm in perms:
            i, digit = np.divmod(i, b)
            row += perm[digit] * b2r
            b2r /= b
    # F-ordered like scipy's: the row norms of the draw depend on its layout
    return u.T


# Cephes ndtri: rational approximations in y - 1/2 on the central range and in
# 1/sqrt(-2 log y) on the tails (below and above 8 for that root).
_EXPM2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Horner's rule, highest power first; a leading 1.0 gives Cephes'
    ``p1evl`` bit for bit, as ``1.0 * x == x``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _log(a):
    # libm's log, as Cephes calls it; numpy's SIMD log differs in the last bit
    return np.fromiter(map(math.log, a.tolist()), float, a.size)


def _ndtri(u):
    """Inverse of the standard normal CDF for ``0 < u < 1``, equal bit for
    bit to ``scipy.special.ndtri`` (the Cephes algorithm, step by step)."""
    upper = u > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - u, u)
    out = np.empty_like(u)
    mid = y > _EXPM2
    ym = y[mid] - 0.5
    y2 = ym * ym
    out[mid] = (ym + ym * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    tail = ~mid
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1),
                  z * _polevl(z, _P2) / _polevl(z, _Q2))
    out[tail] = np.where(upper[tail], x0 - x1, -(x0 - x1))
    return out


@functools.lru_cache(maxsize=32)
def _unit_ball_draw(n, k):
    """Unit directions and radial factors of the first ``k`` Halton points.

    Built once per ``(n, k)`` and shared by every caller, so both arrays are
    read-only.  Only the radius-free factors are cached: scaling happens per
    call, in the same operation order as an uncached draw.
    """
    u = np.clip(_scrambled_halton(n + 1, k, _HALTON_SEED), 1e-12, 1.0 - 1e-12)
    z = _ndtri(u[:, :n])
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    unit = z / norms[:, None]
    rad = u[:, n] ** (1.0 / n)
    unit.flags.writeable = False
    rad.flags.writeable = False
    return unit, rad


def ball_points(x0, delta, n_samples=DEFAULT_SAMPLES):
    """Deterministic low-discrepancy sample of the closed ball B(x0, delta).

    A scrambled Halton stream with a frozen seed feeds a normal-direction /
    power-radius map; the center is always included as the first row.
    """
    x0 = linalg.as_vector(x0, "x0")
    delta = _positive(delta, "delta")
    k = int(n_samples)
    if k < 1:
        raise InvalidInputError("n_samples must be at least 1")
    return np.vstack([x0[None, :], _drawn_points(x0, [delta], k)[0]])


def _drawn_points(x0, radii, k):
    """The ``k`` drawn points of ``B(x0, r)`` for each radius r, as a
    ``(len(radii), k, n)`` view; each point is ``x0 + unit * (r * rad)``."""
    unit, rad = _unit_ball_draw(x0.size, k)
    scaled = np.asarray(radii, dtype=float)[:, None] * rad
    # formed along the draw's contiguous axis
    return (x0[:, None, None] + unit.T[:, None, :] * scaled).transpose(1, 2, 0)


@dataclass(frozen=True)
class ErrorMeasurement:
    """Measured worst-case errors of one model against one function, or of
    a stack of models row by row: then ``err_f`` and ``err_g`` are (rows,)
    arrays and ``aligned`` and ``cross`` carry a leading axis of rows, and
    :meth:`row` is one row's measurement."""

    err_f: float
    err_g: float
    aligned: np.ndarray        # per sampled direction
    cross: np.ndarray          # (i, j) entries for i != j, nan on the diagonal

    def row(self, i):
        return ErrorMeasurement(float(self.err_f[i]), float(self.err_g[i]),
                                self.aligned[i], self.cross[i])

    @property
    def aligned_max(self):
        return _unwrapped(np.max(self.aligned, axis=-1))

    @property
    def cross_max(self):
        """Largest off-diagonal entry of each row's ``cross``, nan for m < 2:
        a masked reduction, which copies no entry."""
        m = self.cross.shape[-1]
        out = np.max(self.cross, axis=(-2, -1), where=~np.eye(m, dtype=bool), initial=-np.inf)
        return _unwrapped(out if m > 1 else np.full_like(out, np.nan))


def measure_errors(tf, model, Y: SampleSet, n_samples=DEFAULT_SAMPLES, f=None):
    """The one-row :func:`measure_rows` on ``Y.scaled([1.0])``, reading f at
    ``x0`` and the set's points through the oracle ``f``, by default a
    vectorized one of ``tf.f``."""
    f = Oracle(tf.f, vectorized=True) if f is None else f
    fv = f.many(Y.evaluation_points())[None]
    return measure_rows(tf, ModelStack.of(model), Y.scaled([1.0]), fv, n_samples).row(0)


def measure_rows(tf, models: ModelStack, rows: ScaledRows, fv, n_samples=DEFAULT_SAMPLES):
    """Sup-style errors of each row's model in ``models`` over
    ``B(x0, radius)`` plus the points of its row of ``rows``, where ``fv[i]``
    holds f at row i's evaluation points.  Returns one stacked
    :class:`ErrorMeasurement`.

    The rows are taken in batches of :func:`linalg.batches`, whose stacked
    arrays hold at most 2^16 floats each (a whole n = 64 sweep in one batch
    raised peak memory by 14 %).  A batch stacks, C-ordered, each row's
    ball (the cached Halton draw scaled to its radius), ``x0`` and its row's
    points, so every value is the pointwise one and a batch equals its
    one-row calls bit for bit.  f at ``x0`` and at the set's points is the
    row's ``fv``, the values its model was built from; ``tf.f`` takes the
    balls in one call per batch and ``tf.grad`` every point.  Directional
    errors compare each model's curvature with ``tf.hess(x0)``, taken once,
    along and across its directions, one product per row.
    """
    k, x0 = int(n_samples), models.x0
    if k < 1:
        raise InvalidInputError("n_samples must be at least 1")
    if x0 is not rows.unit.x0 and not np.array_equal(x0, rows.unit.x0):
        raise InvalidInputError("the models and the rows have different centers")
    count, n, m = rows.D.shape
    err_f, err_g, cross = np.empty(count), np.empty(count), np.empty((count, m, m))
    hess = tf.hess(x0)
    for batch in linalg.batches(count, (k + 1 + m) * n):
        err_f[batch], err_g[batch] = _measure_batch(tf, models.rows(batch), rows.D[batch],
                                                    rows.radius[batch], fv[batch], k, hess,
                                                    cross[batch])
    diagonal = np.arange(m)
    aligned = cross[:, diagonal, diagonal]
    cross[:, diagonal, diagonal] = np.nan
    return ErrorMeasurement(err_f, err_g, aligned, cross)


def _measure_batch(tf, stack, D, radius, fv, k, hess, cross):
    """``(err_f, err_g)`` of one batch of :func:`measure_rows`, the rows of
    directions ``D`` and radii ``radius``, and each row's
    ``|u_i . (H - hess) u_j|`` table written into ``cross``.  Its
    temporaries are released when it returns, before the next batch."""
    x0, n, m = stack.x0, stack.x0.size, D.shape[-1]
    X = np.empty((len(D), k + 1 + m, n))
    X[:, :k] = _drawn_points(x0, radius, k)
    X[:, k] = x0
    np.add(x0, D.transpose(0, 2, 1), out=X[:, k + 1:])
    fvals = np.empty(X.shape[:2])
    fvals[:, :k] = tf.f(X[:, :k])
    fvals[:, k:] = fv
    Dm = X - x0
    err_f = np.abs(fvals - stack.at_offsets(Dm)).max(-1)
    grads = np.matmul(Dm, 0.5 * (stack.H + stack.H.transpose(0, 2, 1)))
    grads += stack.g[:, None, :]
    err_g = np.linalg.norm(np.subtract(tf.grad(X), grads, out=grads), axis=-1).max(-1)
    U = D / np.linalg.norm(D, axis=1)[:, None, :]  # unit directions
    np.abs(np.matmul(np.matmul(U.transpose(0, 2, 1), stack.H - hess), U), out=cross)
    return err_f, err_g


def roundoff_floor(f_scale, delta, order):
    """``ROUNDOFF_FLOOR * f_scale / delta**order``, elementwise over an array
    ``delta`` with Python's powers (:func:`_power`): the level at or below
    which an error of a quantity taking ``order`` derivatives of ``f`` (0 for
    values, 1 for gradients, 2 for curvature) is roundoff.  Each difference
    quotient divides the eps-level noise of ``f`` by ``delta`` once more."""
    return ROUNDOFF_FLOOR * f_scale / _power(delta, order)


def fit_slope(deltas, errors, f_scale=1.0, order=0):
    """Least-squares slope of log(error) against log(delta).

    Points at or below :func:`roundoff_floor` of ``max(f_scale, 1)`` are
    dropped.  Returns nan when fewer than two informative points remain.
    """
    d = np.asarray(deltas, dtype=float)
    e = np.asarray(errors, dtype=float)
    if d.shape != e.shape or d.ndim != 1:
        raise InvalidInputError("deltas and errors must be 1-d arrays of equal length")
    with np.errstate(divide="ignore"):
        floor = roundoff_floor(max(float(f_scale), 1.0), d, order)
    keep = (d > 0) & (e > floor)
    if np.count_nonzero(keep) < 2:
        return float("nan")
    slope, _ = np.polyfit(np.log(d[keep]), np.log(e[keep]), 1)
    return float(slope)
