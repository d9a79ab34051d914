"""Distances between the lattice law of W and the Beta(a,b) target.

Three quantities are reported:

* the exact test-function gap |E h(W) - E h(Z)| for h(x) = x(1-x)/2, a
  rational closed form and a certified lower bound on the smooth-test
  distance (h extends to a periodic function g with |g'|, |g''| <= 1);
* the Wasserstein distance, via the one-dimensional identity
  integral |F_W - F_Z| over [0,1];
* the Kolmogorov distance sup |F_W - F_Z|, attained at the atoms because
  F_W is a step function and F_Z is continuous and monotone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import beta as beta_dist
from .beta import BetaParams
from .model import LatticeDistribution, ModelParams
from .special import ConvergenceError, Tolerance

__all__ = [
    "DEFAULT_QUAD_TOL",
    "gap_h",
    "expected_h_lattice",
    "periodic_extension_g",
    "membership_check_g",
    "wasserstein",
    "kolmogorov",
]

DEFAULT_QUAD_TOL = Tolerance(abs_eps=1e-11, rel_eps=1e-11, max_iter=48)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def expected_h_lattice(params: ModelParams) -> Fraction:
    """E[h(W)] = ab(2n-1) / (2(a+b)(2n + (a+b)(2n-1))), exact."""
    a, b, n = params.a, params.b, params.n
    s = a + b
    return a * b * (2 * n - 1) / (2 * s * (2 * n + s * (2 * n - 1)))


def gap_h(params: ModelParams) -> Fraction:
    """Exact |E h(W) - E h(Z)| for h(x) = x(1-x)/2.

    Equals ab / (2(a+b)(1+a+b)(2n + (2n-1)(a+b))); the Beta side always
    dominates the lattice side for finite n.
    """
    ehz = beta_dist.expected_h(BetaParams(params.a, params.b))
    ehw = expected_h_lattice(params)
    return abs(ehz - ehw)


def periodic_extension_g(x: float) -> float:
    """The 2-periodic alternating extension of h(x) = x(1-x)/2.

    Equals h on [0,1], -h(x-1) on [1,2], and so on; continuously
    differentiable with |g'| <= 1/2 and |g''| = 1 almost everywhere, hence a
    valid smooth test function witnessing the lower bound.
    """
    k = math.floor(x)
    t = x - k
    h = 0.5 * t * (1.0 - t)
    return h if k % 2 == 0 else -h


def membership_check_g(grid_resolution: int) -> bool:
    """Check |g'| <= 1 and |g''| <= 1 on a dense grid over [-3,3].

    Uses central finite differences plus continuity of g and g' at the
    integer junctions; everything must hold within 1e-8.
    """
    if grid_resolution < 100:
        raise ValueError("grid_resolution must be at least 100")
    slack = 1e-8
    h = 1.0 / grid_resolution
    xs = np.arange(-3 * grid_resolution, 3 * grid_resolution + 1) * h
    g = np.array([periodic_extension_g(x) for x in xs])
    d1 = (g[2:] - g[:-2]) / (2.0 * h)
    d2 = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (h * h)
    if np.abs(d1).max() > 1.0 + slack or np.abs(d2).max() > 1.0 + slack:
        return False
    eps_cont = 1e-9
    eps_slope = 1e-5  # secant slopes; the curvature flip cancels the O(eps) term
    for k in range(-2, 3):
        mid = periodic_extension_g(float(k))
        left = periodic_extension_g(k - eps_cont)
        right = periodic_extension_g(k + eps_cont)
        if abs(left - mid) > slack or abs(right - mid) > slack:
            return False
        slope_left = (mid - periodic_extension_g(k - eps_slope)) / eps_slope
        slope_right = (periodic_extension_g(k + eps_slope) - mid) / eps_slope
        if abs(slope_left - slope_right) > slack:
            return False
    return True


def _gauss(f, lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * math.fsum(
        w * f(mid + half * t) for t, w in zip(_GL_NODES, _GL_WEIGHTS)
    )


def _adaptive(f, lo: float, hi: float, eps: float, depth: int) -> float:
    whole = _gauss(f, lo, hi)
    mid = 0.5 * (lo + hi)
    left = _gauss(f, lo, mid)
    right = _gauss(f, mid, hi)
    if abs(left + right - whole) <= eps or hi - lo < 1e-14:
        return left + right
    if depth <= 0:
        raise ConvergenceError(
            f"quadrature refinement exhausted on [{lo}, {hi}]"
        )
    return _adaptive(f, lo, mid, eps / 2, depth - 1) + _adaptive(
        f, mid, hi, eps / 2, depth - 1
    )


def _crossing(f, lo: float, hi: float, level: float) -> float:
    # f is increasing with f(lo) < level < f(hi); plain bisection.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wasserstein(
    pi: LatticeDistribution,
    beta: BetaParams,
    tol: Tolerance = DEFAULT_QUAD_TOL,
) -> float:
    """Wasserstein distance: integral of |F_W - F_Z| over [0,1].

    F_W is the right-continuous step CDF of the lattice law, so between
    consecutive atoms the integrand is |F_Z - const| with F_Z monotone:
    at most one sign change per piece, located by bisection, then each
    smooth piece is integrated by 32-point Gauss rules with adaptive
    splitting as a fallback.
    """
    m = 2 * pi.n
    cum = np.cumsum(pi.probs)
    fz = lambda x: beta_dist.cdf(beta, x)
    piece_eps = tol.abs_eps / max(m, 1)
    total = 0.0
    f_lo = 0.0
    for i in range(m):
        lo = i / m
        hi = (i + 1) / m
        c = float(cum[i])
        f_hi = fz(hi)
        if c <= f_lo:
            total += _adaptive(lambda x: fz(x) - c, lo, hi, piece_eps, tol.max_iter)
        elif c >= f_hi:
            total += _adaptive(lambda x: c - fz(x), lo, hi, piece_eps, tol.max_iter)
        else:
            xs = _crossing(fz, lo, hi, c)
            total += _adaptive(lambda x: c - fz(x), lo, xs, piece_eps, tol.max_iter)
            total += _adaptive(lambda x: fz(x) - c, xs, hi, piece_eps, tol.max_iter)
        f_lo = f_hi
    return total


def kolmogorov(pi: LatticeDistribution, beta: BetaParams) -> float:
    """Kolmogorov distance sup_x |F_W(x) - F_Z(x)|.

    F_W is constant between atoms and F_Z is monotone, so the supremum is
    attained at an atom, approached from the left or from the right.
    """
    m = 2 * pi.n
    cum = np.cumsum(pi.probs)
    best = 0.0
    prev = 0.0
    for i in range(m + 1):
        fzi = beta_dist.cdf(beta, i / m)
        best = max(best, abs(cum[i] - fzi), abs(prev - fzi))
        prev = cum[i]
    return float(best)

