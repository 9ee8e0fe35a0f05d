"""Benchmark function registry: derivative consistency and Lipschitz data."""

import numpy as np
import pytest

from dfoq import testbed
from dfoq.errors import InvalidInputError

FD_GRAD_TOL = 1e-6
FD_HESS_TOL = 1e-4


def _fd_check(tf, x, step=1e-6):
    """Central-difference errors of ``grad`` and ``hess`` at x, each divided
    by 1 + the norm of the true derivative."""
    eye = np.eye(x.size)
    g_fd = np.array([(tf.f(x + step * e) - tf.f(x - step * e)) / (2 * step) for e in eye])
    g_true = tf.grad(x)
    grad_err = float(np.linalg.norm(g_fd - g_true) / (1.0 + np.linalg.norm(g_true)))
    hstep = np.sqrt(step)
    H_fd = np.column_stack([(tf.grad(x + hstep * e) - tf.grad(x - hstep * e)) / (2 * hstep)
                            for e in eye])
    H_true = tf.hess(x)
    hess_err = float(np.linalg.norm(H_fd - H_true) / (1.0 + np.linalg.norm(H_true)))
    return grad_err, hess_err


def test_registry_contents():
    funcs = testbed.registry()
    assert len(funcs) == 7
    names = [tf.name for tf in funcs]
    assert len(set(names)) == len(names)
    for tf in funcs:
        assert tf.dim >= 1
        assert tf.region_radius > 0
        assert tf.x0.shape == (tf.dim,)


def test_finite_difference_agreement():
    rng = np.random.default_rng(11)
    for tf in testbed.registry():
        grad_err, hess_err = _fd_check(tf, tf.x0)
        assert grad_err <= FD_GRAD_TOL, tf.name
        assert hess_err <= FD_HESS_TOL, tf.name
        for _ in range(10):
            u = rng.standard_normal(tf.dim)
            u *= rng.uniform(0, tf.region_radius) / np.linalg.norm(u)
            grad_err, hess_err = _fd_check(tf, tf.x0 + u)
            assert grad_err <= FD_GRAD_TOL, tf.name
            assert hess_err <= FD_HESS_TOL, tf.name


def test_lipschitz_constants_dominate_sampled_differences():
    rng = np.random.default_rng(29)
    for tf in testbed.registry():
        lip = tf.lipschitz_on(tf.x0, tf.region_radius)
        for _ in range(1000):
            u, v = rng.standard_normal((2, tf.dim))
            u *= rng.uniform(0, tf.region_radius) / np.linalg.norm(u)
            v *= rng.uniform(0, tf.region_radius) / np.linalg.norm(v)
            x, y = tf.x0 + u, tf.x0 + v
            gap = np.linalg.norm(x - y)
            assert np.linalg.norm(tf.grad(x) - tf.grad(y)) <= lip.L_grad * gap * (1 + 1e-9)
            assert (
                np.linalg.norm(tf.hess(x) - tf.hess(y), 2) <= lip.L_hess * gap * (1 + 1e-9)
            )
            assert np.linalg.norm(tf.grad(x)) <= lip.kappa_g * (1 + 1e-9)


def test_quartic_hessian_constant_tracks_box():
    tf = testbed.get("quartic", dim=2, x0=np.zeros(2))
    for r in (0.5, 1.0, 2.0):
        assert tf.lipschitz_on(np.zeros(2), r).L_hess == pytest.approx(24 * r)


def test_lipschitz_region_recorded():
    tf = testbed.get("sphere", dim=3)
    lip = tf.lipschitz_on(tf.x0, 1.5)
    assert lip.region_radius == 1.5
    # sphere: gradient 2x is 2-Lipschitz, Hessian constant
    assert lip.L_grad == pytest.approx(2.0)
    assert lip.L_hess == 0.0


def test_get_plumbing():
    with pytest.raises(InvalidInputError):
        testbed.get("nosuch")
    tf = testbed.get("sphere", dim=5)
    assert tf.dim == 5
    x0 = np.array([1.0, 2.0])
    tf = testbed.get("sphere", x0=x0)
    assert tf.dim == 2
    assert np.array_equal(tf.x0, x0)
    with pytest.raises(InvalidInputError):
        testbed.get("rosenbrock", dim=5)


def test_values_at_reference_points():
    assert testbed.get("sphere", dim=2).f(np.array([3.0, 4.0])) == 25.0
    rb = testbed.get("rosenbrock")
    assert rb.f(np.array([1.0, 1.0])) == 0.0
    assert np.allclose(rb.grad(np.array([1.0, 1.0])), np.zeros(2))
    q = testbed.get("quartic", dim=2, x0=np.zeros(2))
    assert q.f(np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_scalar_float_contract():
    for tf in testbed.registry():
        val = tf.f(tf.x0)
        assert isinstance(val, float)
        assert tf.grad(tf.x0).shape == (tf.dim,)
        assert tf.hess(tf.x0).shape == (tf.dim, tf.dim)
        assert np.allclose(tf.hess(tf.x0), tf.hess(tf.x0).T)
