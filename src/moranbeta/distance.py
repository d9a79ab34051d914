"""Distances between the lattice law of W and the Beta(a,b) target.

Three quantities are reported:

* the exact test-function gap |E h(W) - E h(Z)| for h(x) = x(1-x)/2, a
  rational closed form and a certified lower bound on the smooth-test
  distance (h extends to a periodic function g with |g'|, |g''| <= 1);
* the Wasserstein distance, integral |F_W - F_Z| over [0,1], in closed
  form from an antiderivative of the Beta CDF (see `wasserstein`);
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
from .special import ConvergenceError

__all__ = [
    "gap_h",
    "expected_h_lattice",
    "periodic_extension_g",
    "membership_check_g",
    "wasserstein",
    "kolmogorov",
]

# Crossing roots stop once a step is below this share of the piece width.
_ROOT_REL_TOL = 1e-10
_ROOT_MAX_ITER = 100


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


def _cdf_integral(beta: BetaParams, x: float, fz: float, dens: float) -> float:
    # G(x) = int_0^x F_Z for 0 < x < 1 and float shapes, from F_Z(x), f_Z(x)
    # and I_x(a+1, b) = I_x(a, b) - x^a (1-x)^b / (a B(a, b)), DLMF 8.17(iv).
    a, b = beta.a, beta.b
    return (x - a / (a + b)) * fz + x * (1.0 - x) * dens / (a + b)


def _crossing(
    beta: BetaParams, lo: float, hi: float, f_lo: float, f_hi: float, c: float
) -> tuple[float, float, float]:
    """Root x of F_Z(x) = c in (lo, hi), given F_Z(lo) < c < F_Z(hi), with
    F_Z(x) and f_Z(x): Newton steps from the linear interpolant, bisecting
    when a step leaves the shrinking bracket or the slope is 0 or inf."""
    x = lo + (hi - lo) * (c - f_lo) / (f_hi - f_lo)
    tol = _ROOT_REL_TOL * (hi - lo)
    for _ in range(_ROOT_MAX_ITER):
        fz = beta_dist.cdf(beta, x)
        dens = beta_dist.pdf(beta, x)
        if fz < c:
            lo = x
        elif fz > c:
            hi = x
        step = (c - fz) / dens if 0.0 < dens < math.inf else math.inf
        if not lo <= x + step <= hi:
            step = 0.5 * (lo + hi) - x
        if abs(step) <= tol:
            return x, fz, dens
        x += step
    raise ConvergenceError(f"F_Z(x) = {c!r} not solved on [{lo}, {hi}]")


def wasserstein(pi: LatticeDistribution, beta: BetaParams) -> float:
    """Wasserstein distance: integral of |F_W - F_Z| over [0,1], in closed form.

    On each piece [lo, hi] = [i/m, (i+1)/m], m = 2n, F_W is a constant c.
    With G(x) = int_0^x F_Z = (x - mu) F_Z(x) + x(1-x) f_Z(x)/(a+b),
    mu = a/(a+b), G(0) = 0 and G(1) = 1 - mu, a piece where F_Z - c keeps
    one sign contributes +-(G(hi) - G(lo) - c (hi - lo)).  Monotone F_Z
    crosses c at most once; a crossing at x* contributes
    c (2 x* - lo - hi) + G(lo) + G(hi) - 2 G(x*), which is stationary in x*,
    so the root error enters only to second order.

    The pieces are differences of O(1) values of G, so the rounding of F_Z,
    f_Z and G does not cancel; the error grows roughly like m^1.5 eps.
    Relative error against a 30-digit mpmath oracle: 1.7e-12 at n=200,
    (1/10, 1/10); 5.6e-11 at n=1000, (1/10, 1/10); 1.5e-11 at n=1000,
    (355/113, 103/37); 7.9e-11 at n=2000, (1/2, 3/2).
    """
    fbeta = BetaParams(float(beta.a), float(beta.b))  # cdf/pdf then convert nothing
    m = 2 * pi.n
    cum = np.cumsum(pi.probs)
    total = 0.0
    g_lo = f_lo = 0.0
    for i in range(m):
        lo = i / m
        hi = (i + 1) / m
        c = float(cum[i])
        if i + 1 < m:
            f_hi = beta_dist.cdf(fbeta, hi)
            g_hi = _cdf_integral(fbeta, hi, f_hi, beta_dist.pdf(fbeta, hi))
        else:  # f_Z(1) is infinite when b < 1
            f_hi, g_hi = 1.0, float(beta.b / (beta.a + beta.b))
        # Each piece integrates |F_W - F_Z| >= 0; one that rounding takes
        # below 0 adds nothing.
        if c <= f_lo:
            total += max(g_hi - g_lo - c * (hi - lo), 0.0)
        elif c >= f_hi:
            total += max(c * (hi - lo) - (g_hi - g_lo), 0.0)
        else:
            x, fz, dens = _crossing(fbeta, lo, hi, f_lo, f_hi, c)
            rise = c * (2.0 * x - lo - hi) + g_lo + g_hi
            fall = 2.0 * _cdf_integral(fbeta, x, fz, dens)
            if rise > fall:
                # Two steps, not total += rise - fall: that rounds
                # differently and moves W1 in its last digits.
                total += rise
                total -= fall
        g_lo, f_lo = g_hi, f_hi
    return total


def kolmogorov(pi: LatticeDistribution, beta: BetaParams) -> float:
    """Kolmogorov distance sup_x |F_W(x) - F_Z(x)|.

    F_W is constant between atoms and F_Z is monotone, so the supremum is
    attained at an atom, approached from the left or from the right.
    """
    fbeta = BetaParams(float(beta.a), float(beta.b))  # cdf/pdf then convert nothing
    m = 2 * pi.n
    cum = np.cumsum(pi.probs)
    best = 0.0
    prev = 0.0
    for i in range(m + 1):
        fzi = beta_dist.cdf(fbeta, i / m)
        best = max(best, abs(cum[i] - fzi), abs(prev - fzi))
        prev = cum[i]
    return float(best)

