"""Generalized simplex derivatives from function differences.

The gradient estimate solves ``S^T g = delta_f`` in the least-squares
minimum-norm sense; the Hessian estimate stacks rows of gradient-estimate
differences.  All function access goes through :class:`Oracle` so repeated
points cost one evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import EvaluationError, InvalidInputError

__all__ = [
    "Oracle",
    "DirectionPack",
    "delta_f",
    "gsg",
    "delta_delta_f",
    "gsh",
    "centred_gsg",
    "shifted_frame",
]


class Oracle:
    """Caching wrapper around a scalar function of an n-vector.

    The cache key is the exact byte image of the point, so only bit-identical
    points share an evaluation.  ``calls`` counts underlying evaluations.
    ``vectorized=True`` states that ``fn`` broadcasts over leading axes, as
    the testbed functions do: :meth:`many` then evaluates a batch of points
    in one call.
    """

    def __init__(self, fn, vectorized=False):
        if isinstance(fn, Oracle):
            fn = fn._fn
        self._fn = fn
        self.vectorized = bool(vectorized)
        self._cache = {}
        self.calls = 0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        try:
            return self._cache[key]
        except KeyError:
            value = self._evaluate(x)
            self._cache[key] = value
            return value

    def _evaluate(self, x):
        value = float(self._fn(x))
        self.calls += 1
        if not np.isfinite(value):
            raise EvaluationError(x, value)
        return value

    def many(self, X):
        """Values at the rows of ``X``, each distinct uncached row evaluated
        once and cached as :meth:`__call__` would.

        A vectorized oracle evaluates those rows in one call, on a C-ordered
        copy: NumPy reduces a row pairwise only along a contiguous last axis,
        so only then does a row's value equal its pointwise value bit for
        bit.  Any other oracle evaluates them one by one.  A non-finite value
        raises :class:`EvaluationError` for the first bad row.
        """
        X = np.ascontiguousarray(X, dtype=float)
        if not self.vectorized:
            return np.array([self(x) for x in X])
        keys = [x.tobytes() for x in X]
        cache = self._cache
        new = {}
        for i, key in enumerate(keys):
            if key not in cache and key not in new:
                new[key] = i
        if new:
            rows = list(new.values())
            values = np.asarray(self._fn(X if len(rows) == len(X) else X[rows]), dtype=float)
            self.calls += len(rows)
            finite = np.isfinite(values)
            # like the pointwise loop, cache the rows before the first bad one
            k = len(rows) if finite.all() else int(np.argmin(finite))
            cache.update(zip(new, values[:k].tolist()))
            if k < len(rows):
                raise EvaluationError(X[rows[k]], float(values[k]))
        return np.array([cache[key] for key in keys])

    @property
    def cache_size(self):
        return len(self._cache)


def as_oracle(f):
    return f if isinstance(f, Oracle) else Oracle(f)


@dataclass(frozen=True)
class DirectionPack:
    """Directions ``S`` (n x p) with one frame ``T_i`` (n x q_i) per column of S.

    A single shared frame is the special case where every ``T_i`` is the same
    matrix; :meth:`shared` builds that directly.  The pack caches one
    factorization of ``S^T``, which every simplex derivative on ``S`` reads.
    """

    S: np.ndarray
    Ts: tuple

    def __post_init__(self):
        S = linalg.as_matrix(self.S, "S")
        if not isinstance(self.Ts, tuple):
            object.__setattr__(self, "Ts", tuple(self.Ts))
        Ts = tuple(linalg.as_matrix(T, "T") for T in self.Ts)
        if len(Ts) != S.shape[1]:
            raise InvalidInputError(f"need one T per column of S ({S.shape[1]}), got {len(Ts)}")
        for T in Ts:
            if T.shape[0] != S.shape[0]:
                raise InvalidInputError("every T must have the same row count as S")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "Ts", Ts)

    @classmethod
    def shared(cls, S, T):
        S = linalg.as_matrix(S, "S")
        T = linalg.as_matrix(T, "T")
        return cls(S, tuple([T] * S.shape[1]))

    @property
    def n(self):
        return self.S.shape[0]

    @property
    def p(self):
        return self.S.shape[1]

    @functools.cached_property
    def factor(self):
        """:class:`linalg.Factorization` of ``S^T`` (factored on first read)."""
        return linalg.Factorization(self.S.T)

    @property
    def shared_T(self):
        """The common frame if all ``T_i`` coincide, else None."""
        first = self.Ts[0]
        for T in self.Ts[1:]:
            if T.shape != first.shape or not np.array_equal(T, first):
                return None
        return first

    def points(self, x0):
        """Every evaluation point the simplex Hessian touches (rows), center
        included: ``x0``, each ``x0 + s^i``, and per column ``t^j`` of ``T_i``
        the points ``x0 + t^j`` and ``(x0 + s^i) + t^j``.  The rows are not
        sorted and may repeat a point, except that a frame shared by every
        direction lists its points ``x0 + t^j`` once, not p times."""
        x0 = linalg.as_vector(x0, "x0")
        T = np.hstack(self.Ts).T
        shared = self.shared_T
        xs = x0[None, :] + self.S.T
        owner = np.repeat(np.arange(self.p), [Ti.shape[1] for Ti in self.Ts])
        heads = x0[None, :] + (T if shared is None else shared.T)
        return np.vstack([x0[None, :], xs, heads, xs[owner] + T])


def delta_f(f, x0, S):
    """Forward differences ``f(x0 + s^i) - f(x0)`` over the columns of S,
    from one :meth:`Oracle.many` read of ``x0`` and the points."""
    f = as_oracle(f)
    x0 = linalg.as_vector(x0, "x0")
    S = linalg.as_matrix(S, "S")
    values = f.many(np.vstack([x0[None, :], x0[None, :] + S.T]))
    return values[1:] - values[0]


def gsg(f, x0, S):
    """Generalized simplex gradient: minimum-norm solution of ``S^T g = delta_f``."""
    S = linalg.as_matrix(S, "S")
    g, _ = linalg.solve_min_norm(S.T, delta_f(f, x0, S))
    return g


def delta_delta_f(f, x0, S, T):
    """Second-difference table, entry (i, j) built from the four-point stencil
    ``x0, x0+s^i, x0+t^j, x0+s^i+t^j``."""
    f = as_oracle(f)
    x0 = linalg.as_vector(x0, "x0")
    S = linalg.as_matrix(S, "S")
    T = linalg.as_matrix(T, "T")
    base = f(x0)
    fs = [f(x0 + S[:, i]) for i in range(S.shape[1])]
    ft = [f(x0 + T[:, j]) for j in range(T.shape[1])]
    table = np.empty((S.shape[1], T.shape[1]))
    for i in range(S.shape[1]):
        for j in range(T.shape[1]):
            table[i, j] = f(x0 + S[:, i] + T[:, j]) - fs[i] - ft[j] + base
    return table


def gsh(f, x0, pack: DirectionPack):
    """Generalized simplex Hessian for the direction pack.

    With a shared frame the product form ``pinv(S^T) @ ddf @ pinv(T)`` is
    used; otherwise row i holds the gradient-estimate difference along
    ``T_i`` and the stack is premultiplied by ``pinv(S^T)``.  Both gradient
    estimates of row i solve with ``T_i``, so it is factored once, and they
    read the oracle at the points ``delta_f`` would, ``(x0 + s^i) + t^j`` and
    ``x0 + t^j``.  ``pinv(S^T)`` comes from the pack's cached factor.
    """
    f = as_oracle(f)
    x0 = linalg.as_vector(x0, "x0")
    T = pack.shared_T
    if T is not None:
        ddf = delta_delta_f(f, x0, pack.S, T)
        return pack.factor.pinv() @ ddf @ linalg.pinv(T)
    base = f(x0)
    rows = np.empty((pack.p, pack.n))
    for i in range(pack.p):
        Ti = pack.Ts[i]
        xs = x0 + pack.S[:, i]
        fs = f(xs)
        at_s = np.array([f(xs + Ti[:, j]) - fs for j in range(Ti.shape[1])])
        at_0 = np.array([f(x0 + Ti[:, j]) - base for j in range(Ti.shape[1])])
        fac = linalg.Factorization(Ti.T)
        rows[i] = fac.solve(at_s) - fac.solve(at_0)
    return pack.factor.pinv() @ rows


def centred_gsg(f, x0, S):
    """Average of the forward and backward simplex gradients."""
    f = as_oracle(f)
    return 0.5 * (gsg(f, x0, S) + gsg(f, x0, -np.asarray(S, dtype=float)))


def shifted_frame(S, ell):
    """Frame ``U^ell``: column ell becomes ``-s^ell``, column j becomes
    ``s^j - s^ell`` (1-based ``ell``; ``ell = 0`` returns S unchanged).

    Requires S to have full column rank, which makes the result full rank too.
    """
    S = linalg.as_matrix(S, "S")
    p = S.shape[1]
    if not (0 <= int(ell) <= p):
        raise InvalidInputError(f"ell must be in [0, {p}], got {ell}")
    if linalg.numerical_rank(S) < p:
        raise InvalidInputError("shifted_frame requires S with full column rank")
    if ell == 0:
        return S.copy()
    k = int(ell) - 1
    U = S - S[:, k:k + 1]
    U[:, k] = -S[:, k]
    return U
