"""The float solvers against the exact-arithmetic models of their data.

On a plus-minus symmetric set with p = n directions the exact MN and MFN
models coincide (PAPER.md's coincidence results), and so they do on a set
of full-quadratic size, where one quadratic interpolates the data.
`solve_mfn` stays within a bound set from measurement; `solve_mn`'s split
system drifts from the exact model as the radius shrinks (its Hessian is off
by O(1) at radius 1e-8 on random frames), so it is guarded only loosely.
"""

import numpy as np
import pytest

from dfoq import testbed
from dfoq.models import solve_mfn, solve_mn
from dfoq.sample_sets import SampleSet
from dfoq.sweep import resolve_frame

from exact_models import distance, exact_mfn, exact_mn

EPS = float(np.finfo(float).eps)
DELTAS = (1.0, 1e-2, 1e-4, 1e-6, 1e-8)
# (set spec, n) of the plus-minus symmetric sets [delta F, -delta F]
SYMMETRIC_FRAMES = (("structured:3", 3), ("random:3:2", 3), ("random:4:1", 4))


def _full_quadratic_frame(n, seed):
    """n(n+3)/2 unit directions drawn from a seeded normal."""
    U = np.random.default_rng(seed).standard_normal((n, n * (n + 3) // 2))
    return U / np.linalg.norm(U, axis=0)


def _cases():
    for spec, n in SYMMETRIC_FRAMES:
        for name in ("quartic", "trigonometric"):
            yield pytest.param(name, n, spec, id=f"{name}-{spec}")
    for name in ("quartic", "trigonometric"):
        yield pytest.param(name, 3, "fullquad", id=f"{name}-fullquad:3")


def _set(spec, n, x0, delta):
    if spec == "fullquad":
        return SampleSet(x0, delta * _full_quadratic_frame(n, 5))
    return SampleSet(x0, delta * resolve_frame(spec, n)).expand()


@pytest.mark.parametrize("name, n, spec", _cases())
def test_solvers_against_the_exact_models(name, n, spec):
    tf = testbed.get(name, dim=n, x0=[0.4] * n)
    for delta in DELTAS:
        Y = _set(spec, n, tf.x0, delta)
        mn, mfn = exact_mn(tf.f, Y), exact_mfn(tf.f, Y)
        assert mn == mfn, delta
        # measured on these cases: g within 3.4e-15 relative, H within
        # 1.6e-12 at radius 1e-2 and 5.4e-8 at 1e-8
        model, _ = solve_mfn(tf.f, Y)
        assert distance(model.g, mfn.g) <= 64 * EPS, delta
        assert distance(model.H, mfn.H) <= 300 * EPS / delta, delta
        # measured: g within 2.9e-6 and H within 4.2 at radius 1e-8
        model, _ = solve_mn(tf.f, Y)
        assert distance(model.g, mn.g) <= 1e-12 / delta, delta
        assert distance(model.H, mn.H) <= 1e-6 / delta, delta
