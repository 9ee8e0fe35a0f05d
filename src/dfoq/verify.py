"""Named self-check suites behind ``dfoq verify``.

Each check runs a small deterministic fixture and reports the measured
residual next to its limit, so a failure message carries the evidence.
The suites are smoke-sized; the full property suite lives in the tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import testbed
from .models import build, build_qs, qs_preset, solve_mfn, solve_mn
from .relationships import (
    BilinearProblem,
    gsh_sample_set,
    mn_coordinate_centred,
    mn_from_gsh,
    mn_shifted_frame,
    solve_bilinear_min_frobenius,
    transform_instance,
)
from .sample_sets import SampleSet, poisedness
from .simplex import (
    DirectionPack,
    Oracle,
    delta_delta_f,
    delta_f,
    gsh,
    shifted_frame,
)
from .sweep import SweepConfig, parse_deltas, run_sweep

SUITES = ("examples", "relationships", "bounds", "all")


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def _gap_check(name, gap, limit):
    return Check(name, bool(gap <= limit), f"residual={gap:.3e}, limit={limit:.0e}")


def random_quadratic(rng, n):
    """f, with symmetric curvature; always interpolable by a quadratic."""
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)

    def f(x):
        x = np.asarray(x, dtype=float)
        return float(b @ x + 0.5 * x @ A @ x)

    return f


def random_cubic(rng, n):
    """Quadratic plus a rank-one cubic ridge; generic third derivatives."""
    base = random_quadratic(rng, n)
    v = rng.standard_normal(n) * 0.3

    def f(x):
        x = np.asarray(x, dtype=float)
        return base(x) + float(v @ x) ** 3

    return f


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def recorded_oracle(f):
    """Wrap f so every evaluation point is kept; returns (wrapper, points list)."""
    seen = []

    def wrapper(x):
        seen.append(np.array(x, dtype=float))
        return f(x)

    return wrapper, seen


def model_gap(a, b):
    """Worst entry difference between two models over (c, g, H)."""
    return max(
        abs(a.c - b.c),
        float(np.max(np.abs(a.g - b.g))),
        float(np.max(np.abs(a.H - b.H))),
    )


def _examples_suite():
    checks = []
    sq = lambda x: float(np.asarray(x) @ np.asarray(x))

    Y2 = SampleSet(np.zeros(2), np.array([[1.0, 0.0, 2.0, 1.0], [0.0, 1.0, 0.0, 1.0]]))
    mn, _ = solve_mn(Oracle(sq), Y2)
    gap = max(
        float(np.max(np.abs(mn.g - [0.0, 0.8]))),
        float(np.max(np.abs(mn.H - np.diag([2.0, 0.4])))),
    )
    checks.append(_gap_check("plane-min-norm", gap, 1e-10))

    mfn, dmfn = solve_mfn(Oracle(sq), Y2)
    gap = max(
        float(np.max(np.abs(mfn.g - [0.0, 1.0]))),
        float(np.max(np.abs(mfn.H - np.diag([2.0, 0.0])))),
        0.0 if dmfn.alpha_unique else 1.0,
    )
    checks.append(_gap_check("plane-min-frobenius", gap, 1e-10))

    D3 = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0]])
    Y3 = SampleSet(np.zeros(3), D3)
    H_star = np.diag([2.0, 2.0, 0.0])
    mn3, _ = solve_mn(Oracle(sq), Y3)
    mfn3, d3 = solve_mfn(Oracle(sq), Y3)
    st3 = SampleSet(np.zeros(3), np.eye(3)[:, :2])
    qs3 = build_qs(Oracle(sq), np.zeros(3), qs_preset("centred", st3))
    rep = poisedness(Y3, delta_f(Oracle(sq), Y3.x0, Y3.D))
    gap = max(
        float(np.max(np.abs(mn3.g))), float(np.max(np.abs(mn3.H - H_star))),
        float(np.max(np.abs(mfn3.g))), float(np.max(np.abs(mfn3.H - H_star))),
        float(np.max(np.abs(qs3.g))), float(np.max(np.abs(qs3.H - H_star))),
        0.0 if (rep.mn_feasible and not rep.mfn_poised and not d3.alpha_unique) else 1.0,
    )
    checks.append(_gap_check("degenerate-axes", gap, 1e-10))

    # the merged stencil that build evaluates against the recipe evaluated
    # where it names its points
    rng = np.random.default_rng(20261019)
    cubic = random_cubic(rng, 3)
    half = SampleSet(np.array([0.3, -0.2, 0.5]), 0.1 * random_orthogonal(rng, 3))
    gap = 0.0
    for preset in ("centred", "forward", "adapted-0", "adapted-1"):
        stencil = build(f"qs:{preset}", cubic, half).model
        recipe = build_qs(Oracle(cubic), half.x0, qs_preset(preset, half))
        gap = max(gap, model_gap(stencil, recipe))
    checks.append(_gap_check("qs-stencil-vs-recipe", gap, 1e-10))

    rank1 = lambda x: float(np.asarray(x).sum()) ** 2
    pack = DirectionPack(np.eye(2), (np.eye(2)[:, :1], np.eye(2)[:, :1]))
    H = gsh(Oracle(rank1), np.zeros(2), pack)
    gap = float(np.max(np.abs(H - np.array([[2.0, 0.0], [2.0, 0.0]]))))
    checks.append(_gap_check("asymmetric-stencil", gap, 1e-12))
    return checks


def _relationships_suite():
    checks = []
    rng = np.random.default_rng(20260817)
    limit = 1e-9

    gap = 0.0
    for _ in range(5):
        S = rng.standard_normal((3, 2))
        T = S @ (rng.standard_normal((2, 2)) + 2.0 * np.eye(2))
        f = random_quadratic(rng, 3)
        x0 = rng.standard_normal(3) * 0.2
        closed = mn_from_gsh(f, x0, S, T)
        Y = gsh_sample_set(x0, DirectionPack.shared(S, T))
        solved, _ = solve_mn(f, Y)
        gap = max(gap, model_gap(closed, solved))
    checks.append(_gap_check("equal-colspace-min-norm", gap, limit))

    gap = 0.0
    for ell in (0, 2):
        f = random_cubic(rng, 3)
        S = random_orthogonal(rng, 3) * 0.7
        x0 = rng.standard_normal(3) * 0.2
        rec, seen = recorded_oracle(f)
        closed = mn_shifted_frame(rec, x0, S, ell)
        Y = SampleSet.from_points(x0, np.array(seen))
        solved, _ = solve_mn(f, Y)
        gap = max(gap, model_gap(closed, solved))
    checks.append(_gap_check("shifted-frame", gap, limit))

    gap = 0.0
    for p in (2, 4):
        f = random_cubic(rng, 4)
        x0 = rng.standard_normal(4) * 0.2
        rec, seen = recorded_oracle(f)
        closed = mn_coordinate_centred(rec, x0, p)
        Y = SampleSet.from_points(x0, np.array(seen))
        solved, _ = solve_mn(f, Y)
        gap = max(gap, model_gap(closed, solved))
    checks.append(_gap_check("coordinate-centred", gap, limit))

    # symmetric feasibility needs quadratic data or a shifted frame; a cubic
    # with an arbitrary second frame admits no symmetric solution
    gap = 0.0
    for k in range(5):
        S = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        if k % 2 == 0:
            T = shifted_frame(S, 1 + k % 3)
            f = random_cubic(rng, 3)
        else:
            T = S @ (rng.standard_normal((3, 3)) + 2.0 * np.eye(3))
            f = random_quadratic(rng, 3)
        x0 = rng.standard_normal(3) * 0.2
        rhs = delta_delta_f(Oracle(f), x0, S, T)
        sol = solve_bilinear_min_frobenius(BilinearProblem(S, T, rhs, symmetric=True))
        H = gsh(Oracle(f), x0, DirectionPack.shared(S, T))
        gap = max(gap, float(np.max(np.abs(sol.H - H))))
    checks.append(_gap_check("bilinear-symmetric-vs-stencil", gap, limit))

    gap = 0.0
    for _ in range(5):
        n = 3
        S = rng.standard_normal((n, n)) * 0.6
        T = S @ (rng.standard_normal((n, n)) + 2.0 * np.eye(n))
        f = random_cubic(rng, n)
        x0 = rng.standard_normal(n) * 0.2
        N = random_orthogonal(rng, n)
        P1 = np.eye(n)[rng.permutation(n)]
        P2 = np.eye(n)[rng.permutation(n)]
        Sn, Tn, fn = transform_instance(S, T, N, P1, P2, f, x0)
        H = gsh(Oracle(f), x0, DirectionPack.shared(S, T))
        Hn = gsh(Oracle(fn), x0, DirectionPack.shared(Sn, Tn))
        gap = max(gap, float(np.max(np.abs(Hn - N @ H @ N.T))))
    checks.append(_gap_check("transform-conjugation", gap, limit))
    return checks


def _bounds_suite():
    checks = []
    runs = (
        SweepConfig("rosenbrock", "structured:2", "mfn", parse_deltas("0.5:0.5:7")),
        SweepConfig("quartic", "structured:1", "mn", parse_deltas("1:0.5:7"), x0=(0.0,)),
        SweepConfig("exponential", "structured:2", "qs:centred", parse_deltas("0.5:0.5:7")),
        SweepConfig("trigonometric", "structured:3", "qs:adapted-1", parse_deltas("0.5:0.5:7")),
    )
    for cfg in runs:
        rows, summary = run_sweep(cfg)
        n_viol = len(summary["violations"])
        name = f"bounds-{cfg.function}-{cfg.model.replace(':', '-')}"
        checks.append(Check(name, n_viol == 0, f"violations={n_viol} of {len(rows)} rows"))
    return checks


def run_suite(suite):
    """Run one named suite (or 'all'); returns the list of checks."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, want one of {', '.join(SUITES)}")
    checks = []
    if suite in ("examples", "all"):
        checks += _examples_suite()
    if suite in ("relationships", "all"):
        checks += _relationships_suite()
    if suite in ("bounds", "all"):
        checks += _bounds_suite()
    return checks


def format_report(checks):
    lines = [
        f"{'PASS' if c.passed else 'FAIL'} {c.name} ({c.detail})" for c in checks
    ]
    n_fail = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines)
