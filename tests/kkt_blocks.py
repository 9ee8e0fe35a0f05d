"""Reference linear algebra shared by the tests: the eagerly built
minimum-Frobenius KKT blocks and a null-space basis."""

from typing import NamedTuple

import numpy as np

from dfoq import linalg


class KKTBlocks(NamedTuple):
    P: np.ndarray
    F_scaled: np.ndarray
    F_unit: np.ndarray


def kkt_blocks(Y):
    """:class:`KKTBlocks` of the set Y, each block built outright.

    P        : m x m quadratic-term Gram block on normalized directions,
               P_ij = ((dbar^i . dbar^j)^2) / 4.
    F_scaled : (m+n) x (m+n) bordered matrix on raw directions,
               [[radius^4 * P, D^T], [D, 0]].
    F_unit   : the same bordered matrix on normalized directions.
    """
    Dbar = Y.normalized()
    P = 0.25 * (Dbar.T @ Dbar) ** 2
    n, m = Y.n, Y.m

    def bordered(Dmat, Pblock):
        F = np.zeros((m + n, m + n))
        F[:m, :m] = Pblock
        F[:m, m:] = Dmat.T
        F[m:, :m] = Dmat
        return F

    return KKTBlocks(P, bordered(Y.D, Y.radius ** 4 * P), bordered(Dbar, P))


def null_space_basis(A):
    """Orthonormal basis of the null space of ``A``, one column per direction,
    at :func:`dfoq.linalg.numerical_rank`'s cutoff."""
    _, _, Vt = np.linalg.svd(A)
    return Vt[linalg.numerical_rank(A):].T.copy()
