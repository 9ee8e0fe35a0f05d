"""Exact-arithmetic reference for the interpolation solvers, shared by the
tests.

A set's directions and the f values a solver reads are floats, so they are
exact rationals.  :func:`exact_mn` and :func:`exact_mfn` solve the
minimum-norm (MN) and minimum-Frobenius-norm (MFN) systems on
``fractions.Fraction``s of those floats by Gauss-Jordan elimination, with no
rounding, so they give the models the data define.  With ``G = D^T D``,
``G2`` its entrywise square and ``delta_i = f(x0 + d^i) - f(x0)``:

- MN:  ``(G + G2/4) lam = delta``, ``g = D lam``, ``H = D diag(lam) D^T / 2``;
- MFN: ``[[G2/4, D^T], [D, 0]] [lam; g] = [delta; 0]``,
  ``H = D diag(lam) D^T / 2``.
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from dfoq.simplex import as_oracle


class ExactModel(NamedTuple):
    """Gradient (n Fractions) and Hessian (n x n Fractions) of a model."""

    g: list
    H: list


def solve_exact(A, b):
    """Solution of the square nonsingular system ``A x = b`` over the
    rationals, by Gauss-Jordan elimination with the first nonzero pivot."""
    size = len(A)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if M[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular system")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(size):
            factor = M[r][col]
            if r != col and factor != 0:
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
    return [row[size] for row in M]


def exact_data(f, Y):
    """``(D, delta)`` as Fractions: the columns of ``Y.D`` (a list of m
    directions, n entries each) and each ``f(x0 + d^i) - f(x0)`` from the
    values a solver reads, ``as_oracle(f).many(Y.evaluation_points())``."""
    fv = [Fraction(v) for v in as_oracle(f).many(Y.evaluation_points()).tolist()]
    D = [[Fraction(x) for x in column] for column in Y.D.T.tolist()]
    return D, [v - fv[0] for v in fv[1:]]


def _gram(D):
    return [[sum(a * b for a, b in zip(di, dj)) for dj in D] for di in D]


def _model(D, lam, g):
    n = len(D[0])
    H = [[sum(l * d[a] * d[b] for l, d in zip(lam, D)) / 2 for b in range(n)] for a in range(n)]
    return ExactModel(g, H)


def exact_mn(f, Y):
    """The exact MN model of f on the set Y."""
    D, delta = exact_data(f, Y)
    G = _gram(D)
    lam = solve_exact([[x + x * x / 4 for x in row] for row in G], delta)
    g = [sum(l * d[a] for l, d in zip(lam, D)) for a in range(len(D[0]))]
    return _model(D, lam, g)


def exact_mfn(f, Y):
    """The exact MFN model of f on the set Y (its bordered matrix must be
    nonsingular)."""
    D, delta = exact_data(f, Y)
    m, n = len(D), len(D[0])
    top = [[x * x / 4 for x in row] + list(d) for row, d in zip(_gram(D), D)]
    bottom = [[d[a] for d in D] + [Fraction(0)] * n for a in range(n)]
    z = solve_exact(top + bottom, delta + [Fraction(0)] * n)
    return _model(D, z[:m], z[m:])


def distance(got, exact):
    """``||got - exact||_F / ||exact||_F`` of a float array against a list
    (or nested list) of Fractions, the difference taken exactly; the
    absolute distance when ``exact`` is zero."""
    want = np.array(exact, dtype=object).ravel().tolist()
    diff = [Fraction(x) - w for x, w in zip(np.ravel(got).tolist(), want, strict=True)]
    gap = float(sum(d * d for d in diff)) ** 0.5
    scale = float(sum(w * w for w in want)) ** 0.5
    return gap / scale if scale else gap
