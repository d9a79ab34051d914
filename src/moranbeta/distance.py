"""Distances between the lattice law of W and the Beta(a,b) target.

Three quantities are reported:

* the exact test-function gap |E h(W) - E h(Z)| for h(x) = x(1-x)/2, a
  rational closed form and a lower bound on the smooth-test distance: h
  extends to the 2-periodic alternating function g (g = h on [0,1],
  g(x) = -g(x-1)), which has |g'|, |g''| <= 1 and so is a valid test
  function (the test suite checks this on a grid);
* the Wasserstein distance, integral |F_W - F_Z| over [0,1], in closed
  form from an antiderivative of the Beta CDF (see `wasserstein`);
* the Kolmogorov distance sup |F_W - F_Z|, attained at the atoms because
  F_W is a step function and F_Z is continuous and monotone.

Both distances read F_Z at the atoms i/(2n) from one vectorised pass per
point, which also yields the density and the antiderivative G for W1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import beta as beta_dist
from .beta import BetaParams
from .model import LatticeDistribution, ModelParams
from .special import ConvergenceError, _libm, _logs, _reg_inc_beta_interior, log_beta

__all__ = [
    "gap_h",
    "expected_h_lattice",
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


def _cdf_integral(beta: BetaParams, x, fz, dens):
    # G(x) = int_0^x F_Z for 0 < x < 1 and float shapes, from F_Z(x), f_Z(x)
    # and I_x(a+1, b) = I_x(a, b) - x^a (1-x)^b / (a B(a, b)), DLMF 8.17(iv).
    # Scalars or arrays alike.
    a, b = beta.a, beta.b
    return (x - a / (a + b)) * fz + x * (1.0 - x) * dens / (a + b)


def _cdf_pdf(beta: BetaParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # F_Z and f_Z at every 0 < x < 1, for float shapes.
    a, b = beta.a, beta.b
    logs = _logs(x)
    dens = _libm(math.exp, (a - 1.0) * logs[0] + (b - 1.0) * logs[1] - log_beta(a, b))
    return _reg_inc_beta_interior(x, a, b, logs), dens


@lru_cache(maxsize=1)
def _atoms(m: int, beta: BetaParams) -> tuple[np.ndarray, np.ndarray]:
    """F_Z and G at the atoms i/m, i = 0..m, computed once for the point in
    progress: both distances read them.  They depend on the lattice and the
    shapes only, so the key holds no lattice law."""
    fbeta = BetaParams(float(beta.a), float(beta.b))
    x = np.arange(1, m) / m
    fz, dens = _cdf_pdf(fbeta, x)
    if not np.isfinite(fz).all():
        raise FloatingPointError(f"Beta{fbeta.a, fbeta.b} CDF is not finite at i/{m}")
    g = _cdf_integral(fbeta, x, fz, dens)
    # f_Z is infinite at an endpoint where the adjacent shape is below 1.
    fz = np.concatenate(([0.0], fz, [1.0]))
    g = np.concatenate(([0.0], g, [float(beta.b / (beta.a + beta.b))]))
    fz.flags.writeable = g.flags.writeable = False
    return fz, g


def _crossings(
    beta: BetaParams, lo: np.ndarray, hi: np.ndarray,
    f_lo: np.ndarray, f_hi: np.ndarray, c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots x of F_Z(x) = c in (lo, hi), elementwise, given F_Z(lo) < c <
    F_Z(hi), with F_Z(x) and f_Z(x): Newton steps from the linear
    interpolant, bisecting when a step leaves the shrinking open bracket or
    the slope is 0 or inf.  An element stops once its Newton or bisection
    step is below _ROOT_REL_TOL of its piece width; a Newton step that
    small may round onto a bracket end, so it is tested first."""
    tol = _ROOT_REL_TOL * (hi - lo)
    x = lo + (hi - lo) * (c - f_lo) / (f_hi - f_lo)
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    out = np.empty((3, c.size))
    idx = np.arange(c.size)
    for _ in range(_ROOT_MAX_ITER):
        fz, dens = _cdf_pdf(beta, x)
        lo = np.where(fz < c, x, lo)
        hi = np.where(fz > c, x, hi)
        sloped = (0.0 < dens) & (dens < math.inf)
        step = np.where(sloped, (c - fz) / np.where(sloped, dens, 1.0), math.inf)
        done = np.abs(step) <= tol
        step = np.where((lo < x + step) & (x + step < hi), step, 0.5 * (lo + hi) - x)
        done |= np.abs(step) <= tol
        out[:, idx[done]] = x[done], fz[done], dens[done]
        live = ~done
        if not live.any():
            return out[0], out[1], out[2]
        idx, lo, hi, c, tol = idx[live], lo[live], hi[live], c[live], tol[live]
        x = x[live] + step[live]
    raise ConvergenceError(
        f"F_Z(x) = {float(c[0])!r} not solved on [{float(lo[0])}, {float(hi[0])}]"
    )


def wasserstein(pi: LatticeDistribution, beta: BetaParams) -> float:
    """Wasserstein distance: integral of |F_W - F_Z| over [0,1], in closed form.

    On each piece [lo, hi] = [i/m, (i+1)/m], m = 2n, F_W is a constant c.
    With G(x) = int_0^x F_Z = (x - mu) F_Z(x) + x(1-x) f_Z(x)/(a+b),
    mu = a/(a+b), G(0) = 0 and G(1) = 1 - mu, a piece where F_Z - c keeps
    one sign contributes +-(G(hi) - G(lo) - c (hi - lo)).  Monotone F_Z
    crosses c at most once; a crossing at x* contributes
    c (2 x* - lo - hi) + G(lo) + G(hi) - 2 G(x*), which is stationary in x*,
    so the root error enters only to second order.  All crossings are
    solved together, and the pieces, each >= 0, are summed by `math.fsum`.

    The pieces are differences of O(1) values of G, so the rounding of F_Z,
    f_Z and G does not cancel.  Relative error against a 30-digit mpmath
    oracle: 1.8e-12 at n=200, (1/10, 1/10); 5.4e-11 at n=1000, (1/10, 1/10);
    1.5e-11 at n=1000, (355/113, 103/37); 8.2e-11 at n=2000 and 8.9e-11 at
    n=5000, both (1/2, 3/2).
    """
    m = 2 * pi.n
    fz, g = _atoms(m, beta)
    xs = np.arange(m + 1) / m
    lo, hi, f_lo, f_hi, g_lo, g_hi = xs[:-1], xs[1:], fz[:-1], fz[1:], g[:-1], g[1:]
    c = np.cumsum(pi.probs)[:m]
    area = c * (hi - lo)
    pieces = np.where(c <= f_lo, g_hi - g_lo - area, area - (g_hi - g_lo))
    cross = (f_lo < c) & (c < f_hi)
    if cross.any():
        fbeta = BetaParams(float(beta.a), float(beta.b))
        lo, hi, c = lo[cross], hi[cross], c[cross]
        x, fzx, dens = _crossings(fbeta, lo, hi, f_lo[cross], f_hi[cross], c)
        rise = c * (2.0 * x - lo - hi) + g_lo[cross] + g_hi[cross]
        pieces[cross] = rise - 2.0 * _cdf_integral(fbeta, x, fzx, dens)
    # Each piece integrates |F_W - F_Z| >= 0; one that rounding takes below
    # 0 adds nothing.
    return math.fsum(np.maximum(pieces, 0.0).tolist())


def kolmogorov(pi: LatticeDistribution, beta: BetaParams) -> float:
    """Kolmogorov distance sup_x |F_W(x) - F_Z(x)|.

    F_W is constant between atoms and F_Z is monotone, so the supremum is
    attained at an atom, approached from the left or from the right.
    """
    fz, _ = _atoms(2 * pi.n, beta)
    cum = np.cumsum(pi.probs)
    prev = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.abs(cum - fz).max(), np.abs(prev - fz).max()))
