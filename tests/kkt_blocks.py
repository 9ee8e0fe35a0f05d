"""Eager reference builder of the minimum-Frobenius KKT blocks, shared by the tests."""

from typing import NamedTuple

import numpy as np


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
