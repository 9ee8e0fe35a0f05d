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
from .simplex import DirectionPack, Oracle, as_oracle, centred_gsg, delta_delta_f, gsg

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
    unique: bool
    residual: float


def _vech_layout(n):
    diag = [(a, a) for a in range(n)]
    upper = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return diag + upper


def solve_bilinear_min_frobenius(problem: BilinearProblem, tol=None) -> BilinearSolution:
    """Least-Frobenius solution of the (possibly symmetric) bilinear system.

    Unconstrained case: the pseudoinverse product, unique whenever feasible.
    Symmetric case: weighted least-norm over the distinct entries of H, with
    off-diagonal weight 2 so the objective stays ``||H||_F^2``.
    """
    S, T, rhs = problem.S, problem.T, problem.rhs
    n = S.shape[0]

    if not problem.symmetric:
        H = linalg.pinv(S.T) @ rhs @ linalg.pinv(T)
        residual = float(np.linalg.norm(S.T @ H @ T - rhs, "fro"))
        if residual > linalg.feasibility_tol(tol, rhs):
            raise InfeasibleError(f"bilinear system inconsistent: residual {residual:.3e}")
        return BilinearSolution(H, True, residual)

    slots = _vech_layout(n)
    A = np.empty((rhs.size, len(slots)))
    row = 0
    for i in range(S.shape[1]):
        for j in range(T.shape[1]):
            for col, (a, b) in enumerate(slots):
                if a == b:
                    A[row, col] = S[a, i] * T[a, j]
                else:
                    A[row, col] = S[a, i] * T[b, j] + S[b, i] * T[a, j]
            row += 1
    weights = np.array([1.0 if a == b else 2.0 for (a, b) in slots])
    z, unique = linalg.constrained_least_norm(A, rhs.ravel(), weights, tol)
    H = np.zeros((n, n))
    for col, (a, b) in enumerate(slots):
        H[a, b] = z[col]
        H[b, a] = z[col]
    residual = float(np.linalg.norm(S.T @ H @ T - rhs, "fro"))
    return BilinearSolution(H, unique, residual)


def gsh_sample_set(x0, pack: DirectionPack) -> SampleSet:
    """Sample set induced by a simplex-Hessian stencil (its evaluation points)."""
    return SampleSet.from_points(x0, pack.points(x0))


def _colspaces_equal(S, T, rtol=1e-10):
    Ps = S @ linalg.pinv(S)
    Pt = T @ linalg.pinv(T)
    return float(np.linalg.norm(Ps - Pt, "fro")) <= rtol * max(1.0, float(np.linalg.norm(Ps, "fro")))


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
    H = linalg.pinv(S.T) @ ddf @ linalg.pinv(T)
    correction = np.diag(ddf @ linalg.pinv(T) @ S)
    alpha = gsg(f, x0, S) - 0.5 * (linalg.pinv(S.T) @ correction)
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
