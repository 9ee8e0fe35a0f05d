"""Smooth test functions with closed-form derivative and Lipschitz data.

Every function carries conservative constants valid on a stated ball
``B(x0, region_radius)``:

* ``kappa_g``  >= sup ||grad f||        on the ball
* ``L_grad``   >= Lipschitz constant of grad f (== sup ||hess f||)
* ``L_hess``   >= Lipschitz constant of hess f

The derivations live next to each factory; they use coordinate-wise sups
(|x_i| <= |x0_i| + r) or norm sups (||x|| <= ||x0|| + r), so the constants
dominate every sampled difference quotient on the ball.

Evaluation and gradient callables broadcast over leading axes; the Hessian
callable is pointwise.  On a C-ordered batch, ``f`` gives each row the value
it gives that point alone, bit for bit, except ``convex_quadratic`` at
n != 3, whose einsum (n = 2) and matmul (n >= 4) take other paths on a batch
and move some values by an ulp.
"""

from __future__ import annotations

import numpy as np

from .bounds import LipschitzData
from .errors import InvalidInputError

__all__ = ["TestFunction", "registry", "get"]


class TestFunction:
    """Named smooth function with analytic derivatives and ball constants."""

    def __init__(self, name, dim, f, grad, hess, x0, region_radius, lipschitz_on):
        self.name = name
        self.dim = int(dim)
        self.f = f
        self.grad = grad
        self.hess = hess
        self.x0 = np.asarray(x0, dtype=float)
        if self.x0.shape != (self.dim,):
            raise InvalidInputError(
                f"{name}: x0 has shape {self.x0.shape}, expected ({self.dim},)"
            )
        self.region_radius = float(region_radius)
        self._lipschitz_on = lipschitz_on

    def lipschitz_on(self, x0, radius):
        """Constants valid on the ball ``B(x0, radius)``."""
        return self._lipschitz_on(np.asarray(x0, dtype=float), float(radius))

    def __repr__(self):
        return f"TestFunction({self.name!r}, dim={self.dim})"


def sphere(n, x0=None):
    # f = ||x||^2: grad 2x, hess 2I. Third derivative vanishes, so L_hess = 0;
    # sup ||grad|| = 2(||x0|| + r).
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)

    def lip(c, r):
        return LipschitzData(
            L_grad=2.0, L_hess=0.0, kappa_g=2.0 * (np.linalg.norm(c) + r), region_radius=r
        )

    return TestFunction(
        "sphere", n,
        f=lambda x: (np.asarray(x, dtype=float) ** 2).sum(-1),
        grad=lambda x: 2.0 * np.asarray(x, dtype=float),
        hess=lambda x: 2.0 * np.eye(n),
        x0=x0, region_radius=2.5, lipschitz_on=lip,
    )


def rank_one(n, x0=None):
    # f = (sum x)^2: grad 2(sum x)*ones, hess 2*ones*ones^T with norm 2n.
    # |sum x| <= |sum x0| + sqrt(n) r on the ball.
    x0 = np.full(n, 0.3) * np.array([1.0, -1.0] * ((n + 1) // 2))[:n] if x0 is None else np.asarray(x0, dtype=float)

    def lip(c, r):
        s = abs(float(np.sum(c))) + np.sqrt(n) * r
        return LipschitzData(L_grad=2.0 * n, L_hess=0.0, kappa_g=2.0 * np.sqrt(n) * s, region_radius=r)

    def grad(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x.sum(-1, keepdims=True) * np.ones_like(x)

    return TestFunction(
        "rank_one", n,
        # np.square, not ** 2: a 0-d power goes to libm pow, an array power to
        # square, and the two differ in the last bit on some points
        f=lambda x: np.square(np.asarray(x, dtype=float).sum(-1)),
        grad=grad,
        hess=lambda x: 2.0 * np.ones((n, n)),
        x0=x0, region_radius=2.5, lipschitz_on=lip,
    )


def convex_quadratic(n, x0=None):
    # f = 0.5 x^T A x + b^T x with a fixed diagonally dominant SPD A:
    # A_ij = 2*delta_ij + 1/(1+|i-j|).  grad = A x + b, hess = A, L_hess = 0.
    idx = np.arange(n)
    A = 2.0 * np.eye(n) + 1.0 / (1.0 + np.abs(idx[:, None] - idx[None, :]))
    b = (-1.0) ** idx / (idx + 1.0)
    x0 = np.array([0.2, -0.1, 0.3][:n] + [0.0] * max(0, n - 3)) if x0 is None else np.asarray(x0, dtype=float)
    opnorm = float(np.linalg.norm(A, 2))

    def lip(c, r):
        return LipschitzData(
            L_grad=opnorm, L_hess=0.0,
            kappa_g=float(np.linalg.norm(A @ c + b)) + opnorm * r, region_radius=r,
        )

    def f(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, A, x) + x @ b

    return TestFunction(
        "convex_quadratic", n,
        f=f,
        grad=lambda x: np.asarray(x, dtype=float) @ A + b,
        hess=lambda x: A.copy(),
        x0=x0, region_radius=2.5, lipschitz_on=lip,
    )


def quartic(n, x0=None):
    # f = sum x_i^4: grad 4x^3, hess Diag(12 x_i^2).  With a = max|x0_i| + r:
    # sup||hess|| = 12a^2; |12x^2 - 12y^2| <= 24a|x-y| gives L_hess = 24a;
    # ||grad|| <= 4 sqrt(n) a^3.
    x0 = np.array([1.0, 0.5][:n] + [0.8] * max(0, n - 2)) if x0 is None else np.asarray(x0, dtype=float)

    def lip(c, r):
        a = float(np.max(np.abs(c))) + r
        return LipschitzData(
            L_grad=12.0 * a ** 2, L_hess=24.0 * a,
            kappa_g=4.0 * np.sqrt(n) * a ** 3, region_radius=r,
        )

    return TestFunction(
        "quartic", n,
        f=lambda x: (np.asarray(x, dtype=float) ** 4).sum(-1),
        grad=lambda x: 4.0 * np.asarray(x, dtype=float) ** 3,
        hess=lambda x: np.diag(12.0 * np.asarray(x, dtype=float) ** 2),
        x0=x0, region_radius=2.5, lipschitz_on=lip,
    )


def rosenbrock(x0=None):
    # f = 100(y - x^2)^2 + (1 - x)^2 on R^2.  With a = |x0_1| + r, b = |x0_2| + r:
    # |f_x|  <= 400 a (b + a^2) + 2(1 + a),   |f_y| <= 200 (b + a^2)
    # hess = [[1200x^2 - 400y + 2, -400x], [-400x, 200]], row sums bound L_grad;
    # d(hess)/dx has norm <= 2400a + 400, d(hess)/dy has norm 400, combined in
    # quadrature for L_hess.
    x0 = np.array([-1.2, 1.0]) if x0 is None else np.asarray(x0, dtype=float)

    def lip(c, r):
        a = abs(float(c[0])) + r
        b = abs(float(c[1])) + r
        gx = 400.0 * a * (b + a ** 2) + 2.0 * (1.0 + a)
        gy = 200.0 * (b + a ** 2)
        L_grad = max(400.0 * b + 1200.0 * a ** 2 + 2.0 + 400.0 * a, 400.0 * a + 200.0)
        L_hess = float(np.hypot(2400.0 * a + 400.0, 400.0))
        return LipschitzData(L_grad=L_grad, L_hess=L_hess, kappa_g=float(np.hypot(gx, gy)), region_radius=r)

    def f(x):
        # np.square, as in rank_one: at one point x[..., 0] is 0-d
        x = np.asarray(x, dtype=float)
        return 100.0 * np.square(x[..., 1] - np.square(x[..., 0])) + np.square(1.0 - x[..., 0])

    def grad(x):
        x = np.asarray(x, dtype=float)
        gap = x[..., 1] - x[..., 0] ** 2
        return np.stack(
            [-400.0 * x[..., 0] * gap - 2.0 * (1.0 - x[..., 0]), 200.0 * gap], axis=-1
        )

    def hess(x):
        x = np.asarray(x, dtype=float)
        return np.array(
            [
                [1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0, -400.0 * x[0]],
                [-400.0 * x[0], 200.0],
            ]
        )

    return TestFunction("rosenbrock", 2, f=f, grad=grad, hess=hess, x0=x0, region_radius=2.5, lipschitz_on=lip)


def trigonometric(n, x0=None):
    # f = sum sin(x_i): grad cos, hess Diag(-sin).  |sin|, |cos| <= 1 and
    # |sin a - sin b| <= |a - b| give kappa_g = sqrt(n), L_grad = L_hess = 1.
    x0 = np.array([0.5, -0.3, 0.8][:n] + [0.4] * max(0, n - 3)) if x0 is None else np.asarray(x0, dtype=float)

    def lip(c, r):
        return LipschitzData(L_grad=1.0, L_hess=1.0, kappa_g=float(np.sqrt(n)), region_radius=r)

    return TestFunction(
        "trigonometric", n,
        f=lambda x: np.sin(np.asarray(x, dtype=float)).sum(-1),
        grad=lambda x: np.cos(np.asarray(x, dtype=float)),
        hess=lambda x: np.diag(-np.sin(np.asarray(x, dtype=float))),
        x0=x0, region_radius=2.5, lipschitz_on=lip,
    )


def exponential(n, x0=None):
    # f = exp(sum x): every derivative is f times a ones tensor.  With
    # M = exp(sum x0 + sqrt(n) r): kappa_g = sqrt(n) M, L_grad = n M (norm of
    # M * ones*ones^T), L_hess = n^{3/2} M (n * Lipschitz constant of f).
    x0 = np.array([0.1, -0.2][:n] + [0.0] * max(0, n - 2)) if x0 is None else np.asarray(x0, dtype=float)

    def lip(c, r):
        M = float(np.exp(np.sum(c) + np.sqrt(n) * r))
        return LipschitzData(
            L_grad=n * M, L_hess=n ** 1.5 * M, kappa_g=np.sqrt(n) * M, region_radius=r
        )

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.exp(x.sum(-1, keepdims=True)) * np.ones_like(x)

    return TestFunction(
        "exponential", n,
        f=lambda x: np.exp(np.asarray(x, dtype=float).sum(-1)),
        grad=grad,
        hess=lambda x: float(np.exp(np.sum(x))) * np.ones((n, n)),
        x0=x0, region_radius=2.5, lipschitz_on=lip,
    )


def registry():
    """The standard instances exercised by the verification harness."""
    return [
        sphere(3),
        rank_one(2),
        convex_quadratic(3),
        quartic(2),
        rosenbrock(),
        trigonometric(3),
        exponential(2),
    ]


def get(name, dim=None, x0=None):
    """Instantiate a registered family by name (default dims as in registry)."""
    if dim is None and x0 is not None:
        dim = np.asarray(x0, dtype=float).shape[0]
    makers = {
        "sphere": lambda: sphere(dim or 3, x0),
        "rank_one": lambda: rank_one(dim or 2, x0),
        "convex_quadratic": lambda: convex_quadratic(dim or 3, x0),
        "quartic": lambda: quartic(dim or 2, x0),
        "rosenbrock": lambda: rosenbrock(x0),
        "trigonometric": lambda: trigonometric(dim or 3, x0),
        "exponential": lambda: exponential(dim or 2, x0),
    }
    try:
        maker = makers[name]
    except KeyError:
        raise InvalidInputError(f"unknown test function {name!r}") from None
    tf = maker()
    if dim is not None and tf.dim != dim:
        raise InvalidInputError(f"{name} is fixed to dimension {tf.dim}, requested {dim}")
    return tf
