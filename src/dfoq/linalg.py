"""Dense linear-algebra kernel: pseudoinverse, norms, minimum-norm solves.

Everything downstream funnels its matrix work through this module so that
rank decisions are made with one consistent tolerance rule.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InfeasibleError, InvalidInputError

__all__ = [
    "DEFAULT_RESIDUAL_TOL",
    "Factorization",
    "pinv",
    "matrix_norm",
    "solve_min_norm",
    "constrained_least_norm",
    "numerical_rank",
    "spectrum_rank",
    "rank_tolerance",
]

# Residual acceptance threshold of every solver and interpolation check, with
# no per-call override: whether some quadratic interpolates the data is a
# property of the data.
DEFAULT_RESIDUAL_TOL = 1e-9

_EPS = float(np.finfo(float).eps)

# Floats that the temporaries of one chunk of rows hold together.  Two
# passes over a sweep's rows take them in chunks of this size (one row at
# least): the measurement (bounds.measure_rows: each row's ball, its model
# values and gradients there) and the bounds pass's m x m cross tables
# (sweep._bound_rows).  Their temporaries would otherwise set a sweep's
# peak; the value table and every other stacked pass grow with the rows.
BATCH_FLOATS = 2 ** 16


def batches(rows, floats_per_row):
    """Slices of ``range(rows)`` in order, each of as many rows as hold
    :data:`BATCH_FLOATS` floats at ``floats_per_row`` each, one at least."""
    step = max(1, BATCH_FLOATS // floats_per_row)
    return [slice(start, start + step) for start in range(0, rows, step)]


def norms(V):
    """2-norm of each vector along the last axis of ``V``, as a float for one
    vector.  Each is ``sqrt(v . v)`` from one dot product, a ``1 x k`` by
    ``k x 1`` product per vector, and so equals ``np.linalg.norm(v)`` bit for
    bit."""
    V = np.asarray(V, dtype=float)
    out = np.sqrt(np.matmul(V[..., None, :], V[..., :, None])[..., 0, 0])
    return float(out) if out.ndim == 0 else out


def feasibility_tol(b):
    """Residual a solver accepts for data ``b``,
    ``DEFAULT_RESIDUAL_TOL (1 + ||b||)``; one per row of a stack ``b``."""
    return DEFAULT_RESIDUAL_TOL * (1.0 + norms(b))


def as_matrix(M, name="matrix"):
    """Validate and return a 2-d float array with finite entries."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 2-d array, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return A


def as_vector(v, name="vector"):
    """Validate and return a 1-d float array with finite entries."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 1-d array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return x


def _right_hand_sides(b, rows):
    """``b`` as one finite right-hand side of length ``rows``, or a stack of
    them (the rows of a 2-d ``b``)."""
    B = np.asarray(b, dtype=float)
    if B.ndim not in (1, 2) or B.shape[-1] != rows or not np.isfinite(B).all():
        raise InvalidInputError(f"b must be finite vectors of length {rows}, got shape {B.shape}")
    return B


def matvec(M, v):
    """``M @ v`` for each vector along the last axis of ``v``, ``M`` one
    matrix or a stack of them: one matrix-vector product per vector, so each
    equals its own ``M @ v`` bit for bit.  One matrix product over the stack
    would round its sums differently."""
    return np.matmul(M, v[..., None])[..., 0]


def rank_tolerance(M):
    """Relative singular-value cutoff for ``M``, ``eps * max(rows, cols)``:
    singular values at or below ``cutoff * sigma_max`` are treated as zero."""
    return _EPS * max(as_matrix(M).shape)


def _scaled_norm(v):
    """``(||v||_2, v / ||v||_2)`` of a vector, from ``v`` divided by its largest
    entry, so that squaring entries near 1e-160 or 1e200 neither underflows nor
    overflows.  A zero vector gives ``(0.0, e_1)``."""
    peak = float(np.abs(v).max())
    if peak == 0.0:
        unit = np.zeros(v.size)
        unit[0] = 1.0
        return 0.0, unit
    w = v / peak
    length = float(np.sqrt(w @ w))
    return peak * length, w / length


def _vector_svd(A):
    """Thin SVD of a matrix with one row or one column, in closed form:
    ``A = norm * unit`` as a column is ``U = unit``, ``s = [norm]``,
    ``Vt = [[1]]``; as a row, ``U = [[1]]`` and ``Vt = unit^T``."""
    norm, unit = _scaled_norm(A.ravel())
    if A.shape[1] == 1:
        return unit[:, None], np.array([norm]), np.ones((1, 1))
    return np.ones((1, 1)), np.array([norm]), unit[None, :]


class Factorization:
    """One SVD of a matrix, read by every consumer that needs it.

    ``rank`` counts the singular values above ``cutoff``, the relative
    tolerance of :func:`rank_tolerance` times the largest singular value, and
    :meth:`pinv` and :meth:`solve` drop the same values.  The SVD is thin,
    which for a square matrix is the full SVD.  A matrix with one row or one
    column takes it in closed form, from one norm of the vector.
    :meth:`symmetric` builds the SVD of a symmetric matrix from its
    eigendecomposition.
    """

    def __init__(self, M):
        A = as_matrix(M)
        if min(A.shape) == 1:
            self._store(A.shape, *_vector_svd(A))
        else:
            self._store(A.shape, *np.linalg.svd(A, full_matrices=False))

    def _store(self, shape, U, s, Vt):
        self.shape = shape
        self.U, self.s, self.Vt = U, s, Vt
        self.cutoff = _EPS * max(shape) * s[0]

    @classmethod
    def _of(cls, shape, U, s, Vt):
        """Factorization from an SVD already taken, thin or full."""
        fac = cls.__new__(cls)
        fac._store(shape, U, s, Vt)
        return fac

    @classmethod
    def each(cls, M):
        """The :class:`Factorization` of each matrix of a stack ``M``
        (rows, p, q), bit for bit ``Factorization(M[i])``: one stacked SVD,
        which takes each matrix as its own call would."""
        if min(M.shape[1:]) == 1 or not np.isfinite(M).all():
            return [cls(A) for A in M]  # the closed form, or the refusal
        return [cls._of(M.shape[1:], *usv) for usv in zip(*np.linalg.svd(M, full_matrices=False))]

    @classmethod
    def symmetric(cls, M):
        """Factorization of a symmetric, possibly indefinite, matrix by ``eigh``.

        With ``M = V diag(w) V^T`` and the pairs sorted by decreasing
        ``|w|``, ``U = V``, ``s = |w|`` and ``Vt = (sign(w) V)^T`` is an SVD
        of ``M``; the sign carries the negative eigenvalues of a saddle-point
        matrix.  ``eigh`` reads one triangle only, so ``M`` must be exactly
        symmetric.
        """
        A = as_matrix(M)
        if A.shape[0] != A.shape[1] or not np.array_equal(A, A.T):
            raise InvalidInputError("a symmetric factorization needs an exactly symmetric matrix")
        w, V = np.linalg.eigh(A)
        order = np.argsort(-np.abs(w), kind="stable")
        w, V = w[order], V[:, order]
        return cls._of(A.shape, V, np.abs(w), (V * np.where(w < 0.0, -1.0, 1.0)).T)

    @functools.cached_property
    def rank(self):
        """Number of singular values above the cutoff (counted on first read);
        a zero matrix has cutoff 0 and so counts none."""
        return int(np.count_nonzero(self.s > self.cutoff))

    @functools.cached_property
    def _inv_s(self):
        """Reciprocal singular values, zero at or below the cutoff (computed on
        first read)."""
        s = self.s
        keep = s > self.cutoff
        inv_s = np.zeros_like(s)
        inv_s[keep] = 1.0 / s[keep]
        return inv_s

    def pinv(self):
        """Moore-Penrose pseudoinverse, truncated at the cutoff."""
        if self.s[0] == 0.0:
            return np.zeros((self.shape[1], self.shape[0]))
        k = self.s.size
        return (self.Vt[:k].T * self._inv_s) @ self.U[:, :k].T

    def solve(self, b):
        """``pinv() @ b``, applied factor by factor without forming ``pinv()``.

        A 2-d ``b`` is a stack of right-hand sides, one per row, each solved
        as :func:`matvec` products: bit for bit the call on that row alone.
        """
        rhs = _right_hand_sides(b, self.shape[0])
        k = self.s.size
        return matvec(self.Vt[:k].T, self._inv_s * matvec(self.U[:, :k].T, rhs))

    def range_residual(self, b):
        """Norm of the component of ``b`` orthogonal to the numerical range,
        one per row of a 2-d ``b``.

        This is the right consistency measure for ill-conditioned systems: it
        is O(eps ||b||) whenever ``A x = b`` is solvable, independent of
        cond(A), while the recomputed residual of a computed solution grows
        with cond(A).
        """
        rhs = _right_hand_sides(b, self.shape[0])
        if self.U.shape[1] < self.shape[0]:
            raise InvalidInputError("the thin SVD of a tall matrix gives no range residual")
        if self.rank >= self.U.shape[1]:
            return 0.0 if rhs.ndim == 1 else np.zeros(len(rhs))
        return norms(matvec(self.U[:, self.rank:].T, rhs))


def pinv(M):
    """Moore-Penrose pseudoinverse via SVD, truncated at the relative cutoff."""
    return Factorization(M).pinv()


def numerical_rank(M):
    """Number of singular values above the relative cutoff."""
    A = as_matrix(M)
    if min(A.shape) == 1:
        s = np.array([_scaled_norm(A.ravel())[0]])
    else:
        s = np.linalg.svd(A, compute_uv=False)
    return spectrum_rank(s, A.shape)


def spectrum_rank(s, shape):
    """:func:`numerical_rank` of a matrix of ``shape`` whose singular values,
    zeros included or not and in any order, are ``s``; one rank per vector
    along the last axis of ``s``."""
    s = np.asarray(s, dtype=float)
    ranks = np.count_nonzero(s > _EPS * max(shape) * s.max(-1, keepdims=True), axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def matrix_norm(M, kind="spectral"):
    """Matrix norm of the requested kind: op1 | opInf | spectral | frobenius."""
    A = as_matrix(M)
    key = str(kind).lower()
    if key == "op1":
        return float(np.linalg.norm(A, 1))
    if key == "opinf":
        return float(np.linalg.norm(A, np.inf))
    if key == "spectral":
        return _scaled_norm(A.ravel())[0] if min(A.shape) == 1 else float(np.linalg.norm(A, 2))
    if key == "frobenius":
        return float(np.linalg.norm(A, "fro"))
    raise InvalidInputError(f"unknown norm kind {kind!r}")


def solve_min_norm(A, b):
    """Minimum-norm least-squares solution of ``A x = b``.

    Returns ``(x, residual)`` where ``residual = ||A x - b||_2``.
    """
    M = as_matrix(A, "A")
    rhs = as_vector(b, "b")
    x = Factorization(M).solve(rhs)
    residual = float(np.linalg.norm(M @ x - rhs))
    return x, residual


def constrained_least_norm(A, b, weights):
    """Minimize ``sum_i w_i z_i^2`` subject to ``A z = b`` (null-space method).

    Parameters
    ----------
    weights : nonnegative per-coordinate weights; zero entries leave the
        coordinate free (they only enter through the constraints).

    Returns
    -------
    (z, unique) : the minimizer and whether it is the unique one.  When a
        zero-weight subspace makes the reduced problem singular, ``z`` is the
        minimum-norm representative and ``unique`` is False.

    Raises
    ------
    InfeasibleError : if ``A z = b`` has no solution at the tolerance.
    """
    M = as_matrix(A, "A")
    rhs = as_vector(b, "b")
    w = as_vector(weights, "weights")
    if w.size != M.shape[1]:
        raise InvalidInputError("weights length must match the number of unknowns")
    if np.any(w < 0):
        raise InvalidInputError("weights must be nonnegative")

    # One full SVD of A gives z0, its residual and the null-space basis.
    fac = Factorization._of(M.shape, *np.linalg.svd(M))
    z0 = fac.solve(rhs)
    residual = float(np.linalg.norm(M @ z0 - rhs))
    feas_tol = feasibility_tol(rhs)
    if residual > feas_tol:
        raise InfeasibleError(f"constraints inconsistent: residual {residual:.3e} > {feas_tol:.3e}")

    N = fac.Vt[fac.rank:].T.copy()
    if N.shape[1] == 0:
        return z0, True

    # Reduced normal equations over y with z = z0 + N y; N has orthonormal
    # columns, so a minimum-norm y gives the minimum-norm optimal z.
    WN = N * w[:, None]
    red = Factorization(N.T @ WN)
    y = red.solve(-(WN.T @ z0))
    return z0 + N @ y, red.rank == red.shape[0]
