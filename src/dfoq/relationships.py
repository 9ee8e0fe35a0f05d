"""Closed-form constructions that reproduce the interpolation solvers, plus
the bilinear least-Frobenius problem connecting them to simplex Hessians.

These exist so the two routes to the same object (dense solve vs difference
formulas) can be checked against each other; nothing here calls the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import InfeasibleError, InvalidInputError
from .models import QuadraticModel, build_qs, qs_preset
from .sample_sets import SampleSet
from .simplex import DirectionPack, Oracle, as_oracle, centred_gsg, delta_delta_f, delta_f

__all__ = [
    "BilinearProblem",
    "BilinearSolution",
    "solve_bilinear_min_frobenius",
    "gsh_sample_set",
    "mn_from_gsh",
    "mfn_from_gsh",
    "mn_shifted_frame",
    "mn_coordinate_centred",
    "transform_instance",
]

# Relative Frobenius gap under which two column-space projectors are equal.
_COLSPACE_RTOL = 1e-10


@dataclass(frozen=True)
class BilinearProblem:
    """Minimize ``||H||_F`` subject to ``S^T H T = rhs`` (optionally H = H^T)."""

    S: np.ndarray
    T: np.ndarray
    rhs: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        S = linalg.as_matrix(self.S, "S")
        T = linalg.as_matrix(self.T, "T")
        rhs = linalg.as_matrix(self.rhs, "rhs")
        if S.shape[0] != T.shape[0]:
            raise InvalidInputError("S and T must share the ambient dimension")
        if rhs.shape != (S.shape[1], T.shape[1]):
            raise InvalidInputError("rhs must be p x q for S n x p, T n x q")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "rhs", rhs)


class BilinearSolution(NamedTuple):
    H: np.ndarray
    residual: float


def solve_bilinear_min_frobenius(problem: BilinearProblem) -> BilinearSolution:
    """Least-Frobenius solution of the (possibly symmetric) bilinear system.

    Unconstrained case: the pseudoinverse product.  Symmetric case: the
    least-norm solve over the distinct entries of H (diagonal, then the upper
    triangle row by row) with each off-diagonal entry weighted by 2, so that
    the objective stays ``||H||_F^2``; scaling each column by ``1/sqrt(w)``
    makes that one minimum-norm solve.  Both refuse an inconsistent system.
    """
    S, T, rhs = problem.S, problem.T, problem.rhs
    n = S.shape[0]

    if not problem.symmetric:
        H = linalg.pinv(S.T) @ rhs @ linalg.pinv(T)
    else:
        # P[i, j, a, b] = S[a, i] T[b, j]; row (i, j) of the system holds
        # P[i, j, a, a] per diagonal entry and P[i, j, a, b] + P[i, j, b, a]
        # per upper entry (a, b)
        P = S.T[:, None, :, None] * T.T[None, :, None, :]
        diag = np.arange(n)
        upper = np.triu_indices(n, 1)
        A = np.concatenate([P[:, :, diag, diag], P[:, :, upper[0], upper[1]] + P[:, :, upper[1], upper[0]]],
                           axis=2).reshape(rhs.size, -1)
        root_w = np.sqrt(np.where(np.arange(A.shape[1]) < n, 1.0, 2.0))
        z = linalg.Factorization(A / root_w).solve(rhs.ravel()) / root_w
        H = np.zeros((n, n))
        H[diag, diag] = z[:n]
        H[upper] = H[upper[::-1]] = z[n:]
    residual = float(np.linalg.norm(S.T @ H @ T - rhs, "fro"))
    # the tolerance of the whole matrix, as np.linalg.norm ravels it
    if residual > linalg.feasibility_tol(rhs.ravel(order="K")):
        raise InfeasibleError(f"bilinear system inconsistent: residual {residual:.3e}")
    return BilinearSolution(H, residual)


def gsh_sample_set(x0, pack: DirectionPack) -> SampleSet:
    """Sample set induced by a simplex-Hessian stencil (its evaluation points)."""
    return SampleSet.from_points(x0, pack.points(x0))


def _colspaces_equal(S, T):
    Ps = S @ linalg.pinv(S)
    Pt = T @ linalg.pinv(T)
    return float(np.linalg.norm(Ps - Pt, "fro")) <= _COLSPACE_RTOL * max(1.0, float(np.linalg.norm(Ps, "fro")))


def _require_equal_colspaces(S, T):
    if not _colspaces_equal(S, T):
        raise InvalidInputError("construction requires col(S) == col(T)")


def _gsh_model(f, x0, S, T):
    f = as_oracle(f)
    x0 = linalg.as_vector(x0, "x0")
    S = linalg.as_matrix(S, "S")
    T = linalg.as_matrix(T, "T")
    _require_equal_colspaces(S, T)
    ddf = delta_delta_f(f, x0, S, T)
    fac_s = linalg.Factorization(S.T)
    pinv_s, pinv_t = fac_s.pinv(), linalg.pinv(T)
    H = pinv_s @ ddf @ pinv_t
    correction = np.diag(ddf @ pinv_t @ S)
    alpha = fac_s.solve(delta_f(f, x0, S)) - 0.5 * (pinv_s @ correction)
    return QuadraticModel(x0, f(x0), alpha, H)


def mn_from_gsh(f, x0, S, T):
    """Minimum-norm model from differences alone, valid when col(S) == col(T)."""
    return _gsh_model(f, x0, S, T)


def mfn_from_gsh(f, x0, S, T):
    """Minimum-Frobenius model from differences alone (col(S) == col(T)).

    Returns ``(model, alpha_trusted)``: the Hessian is always right, but the
    gradient formula picks one representative, trustworthy only when the
    induced sample set is poised.
    """
    f = as_oracle(f)
    model = _gsh_model(f, x0, S, T)
    S = linalg.as_matrix(S, "S")
    T = linalg.as_matrix(T, "T")
    pack = DirectionPack.shared(S, T)
    return model, gsh_sample_set(model.x0, pack).mfn_poised


def mn_shifted_frame(f, x0, S, ell):
    """Minimum-norm model on the stencil of frame S shifted through column ell:
    the ``adapted-<ell>`` recipe on S.

    Works for every function: the shifted frame keeps the symmetric system
    feasible by construction.
    """
    return build_qs(f, x0, qs_preset(f"adapted-{ell}", SampleSet(x0, S)))


def mn_coordinate_centred(f, x0, p):
    """Minimum-norm model on the centred coordinate stencil ``x0 +- e^i``.

    The Hessian is the diagonal of centred second differences padded with
    zeros; the gradient averages the forward and backward simplex gradients.
    """
    f = as_oracle(f)
    x0 = linalg.as_vector(x0, "x0")
    n = x0.size
    p = int(p)
    if not (1 <= p <= n):
        raise InvalidInputError(f"p must be in [1, {n}], got {p}")
    S = np.eye(n)[:, :p]
    alpha = centred_gsg(f, x0, S)
    H = np.zeros((n, n))
    base = f(x0)
    for i in range(p):
        e = np.eye(n)[:, i]
        H[i, i] = f(x0 + e) + f(x0 - e) - 2.0 * base
    return QuadraticModel(x0, base, alpha, H)


def _check_permutation(P, name):
    P = linalg.as_matrix(P, name)
    if P.shape[0] != P.shape[1]:
        raise InvalidInputError(f"{name} must be square")
    is01 = np.all((P == 0.0) | (P == 1.0))
    if not (is01 and np.all(P.sum(axis=0) == 1.0) and np.all(P.sum(axis=1) == 1.0)):
        raise InvalidInputError(f"{name} must be a permutation matrix")
    return P


def transform_instance(S, T, N, P1, P2, f, x0):
    """Rotate/reflect by orthogonal ``N`` and permute columns by ``P1``/``P2``.

    Returns ``(S_new, T_new, f_new)`` with ``f_new(x) = f(x0 + N^T (x - x0))``
    so that difference tables transform by permutation and simplex Hessians
    conjugate by N.
    """
    S = linalg.as_matrix(S, "S")
    T = linalg.as_matrix(T, "T")
    N = linalg.as_matrix(N, "N")
    if N.shape != (S.shape[0], S.shape[0]):
        raise InvalidInputError("N must be square of the ambient dimension")
    if np.linalg.norm(N.T @ N - np.eye(N.shape[0]), "fro") > 1e-10:
        raise InvalidInputError("N must be orthogonal")
    P1 = _check_permutation(P1, "P1")
    P2 = _check_permutation(P2, "P2")
    if P1.shape[0] != S.shape[1] or P2.shape[0] != T.shape[1]:
        raise InvalidInputError("permutation sizes must match the column counts")
    f = as_oracle(f)
    x0 = linalg.as_vector(x0, "x0")
    Nt = N.T.copy()

    def f_new(x):
        return f(x0 + Nt @ (np.asarray(x, dtype=float) - x0))

    return N @ S @ P1, N @ T @ P2, Oracle(f_new)
