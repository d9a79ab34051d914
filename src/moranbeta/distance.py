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

Both distances read F_Z at the atoms i/(2n) from one pass per point, which
also yields the antiderivative G for W1.  Each is one loop on Python floats
over the lattice pieces.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import beta as beta_dist
from .beta import BetaParams
from .model import LatticeDistribution, ModelParams
from .special import ConvergenceError, _reg_inc_beta_interior, log_beta

__all__ = [
    "gap_h",
    "expected_h_lattice",
    "wasserstein",
    "kolmogorov",
]

# Crossing roots stop once a step is below this share of the piece width.
# A crossing is taken from its one evaluation instead when the error term
# |f_Z'(x0)| |delta|^3 / 3 of that estimate is below _ONE_EVAL_BOUND / 3
# (see `_crossing_gain`).
_ROOT_REL_TOL = 1e-10
_ROOT_MAX_ITER = 100
_ONE_EVAL_BOUND = 2.0**-60


def expected_h_lattice(params: ModelParams) -> Fraction:
    """E[h(W)] = ab(2n-1) / (2(a+b)(2n + (a+b)(2n-1))), exact."""
    a, b, n = params.a, params.b, params.n
    s = a + b
    return a * b * (2 * n - 1) / (2 * s * (2 * n + s * (2 * n - 1)))


def gap_h(params: ModelParams) -> Fraction:
    """Exact |E h(W) - E h(Z)| for h(x) = x(1-x)/2.

    Equals ab / (2(a+b)(1+a+b)(2n + (2n-1)(a+b))); the Beta side always
    dominates the lattice side for finite n.  As |h'| <= 1/2 on [0, 1],
    Kantorovich-Rubinstein gives 2 gap_h <= W1.
    """
    ehz = beta_dist.expected_h(BetaParams(params.a, params.b))
    ehw = expected_h_lattice(params)
    return abs(ehz - ehw)


def _cdf_integral(a: float, b: float, x: float, fz: float, dens: float) -> float:
    # G(x) = int_0^x F_Z for 0 < x < 1 and float shapes, from F_Z(x), f_Z(x)
    # and I_x(a+1, b) = I_x(a, b) - x^a (1-x)^b / (a B(a, b)), DLMF 8.17(iv).
    return (x - a / (a + b)) * fz + x * (1.0 - x) * dens / (a + b)


def _cdf_pdf(a: float, b: float, ln_beta: float, x: float) -> tuple[float, float]:
    # F_Z and f_Z at 0 < x < 1, for float shapes and ln B(a, b).
    logs = math.log(x), math.log1p(-x)
    dens = math.exp((a - 1.0) * logs[0] + (b - 1.0) * logs[1] - ln_beta)
    return _reg_inc_beta_interior(x, a, b, ln_beta, logs), dens


def _end_density(shape: float, ln_beta: float) -> float:
    # f_Z at the endpoint where `shape` is the exponent's shape: 0 above 1,
    # infinite below 1, and 1/B(a, b) at 1.
    return 0.0 if shape > 1.0 else math.inf if shape < 1.0 else math.exp(-ln_beta)


@lru_cache(maxsize=1)
def _atoms(
    m: int, beta: BetaParams
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], float]:
    """F_Z, f_Z and G at the atoms i/m, i = 0..m, and ln B(a,b), computed
    once for the point in progress: both distances read F_Z, and W1 reads
    G and, for the Hermite start of each crossing, f_Z (see
    `_crossing_gain`: one evaluation per crossing, kept when its error term
    f_Z'(x0) delta^3 / 3 has |f_Z'(x0)| |delta|^3 < 2^-60).  They depend on
    the lattice and the shapes only, so the key holds no lattice law.  f_Z
    at 0 and 1 is its limit: 0, infinite or 1/B(a,b) as the shape at that
    end is above, below or equal to 1."""
    a, b = float(beta.a), float(beta.b)
    ln_beta = log_beta(a, b)
    fz, dens, g = [0.0], [_end_density(a, ln_beta)], [0.0]
    for i in range(1, m):
        x = i / m
        f, d = _cdf_pdf(a, b, ln_beta, x)
        if not math.isfinite(f):
            raise FloatingPointError(f"Beta{a, b} CDF is not finite at i/{m}")
        fz.append(f)
        dens.append(d)
        g.append(_cdf_integral(a, b, x, f, d))
    # f_Z is infinite at an endpoint where the adjacent shape is below 1.
    fz.append(1.0)
    dens.append(_end_density(b, ln_beta))
    g.append(float(beta.b / (beta.a + beta.b)))
    return tuple(fz), tuple(dens), tuple(g), ln_beta


def _crossing(
    a: float, b: float, ln_beta: float,
    lo: float, hi: float, f_lo: float, f_hi: float, c: float,
) -> tuple[float, float, float]:
    """The root x of F_Z(x) = c in (lo, hi), given F_Z(lo) < c < F_Z(hi),
    with F_Z(x) and f_Z(x): Newton steps from the linear interpolant,
    bisecting when a step leaves the shrinking open bracket or the slope is
    0 or inf.  It stops once its Newton or bisection step is below
    _ROOT_REL_TOL of the piece width; a Newton step that small may round
    onto a bracket end, so it is tested first.  W1 calls it only for a
    crossing whose one-evaluation estimate `_crossing_gain` refuses: one
    whose Newton step leaves the piece or whose error term
    f_Z'(x0) delta^3 / 3 has |f_Z'(x0)| |delta|^3 >= 2^-60."""
    tol = _ROOT_REL_TOL * (hi - lo)
    x = lo + (hi - lo) * (c - f_lo) / (f_hi - f_lo)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(_ROOT_MAX_ITER):
        fz, dens = _cdf_pdf(a, b, ln_beta, x)
        if fz < c:
            lo = x
        elif fz > c:
            hi = x
        step = (c - fz) / dens if 0.0 < dens < math.inf else math.inf
        if abs(step) <= tol:
            return x, fz, dens
        if not lo < x + step < hi:
            step = 0.5 * (lo + hi) - x
            if abs(step) <= tol:
                return x, fz, dens
        x += step
    raise ConvergenceError(f"F_Z(x) = {c!r} not solved on [{lo}, {hi}]")


def _crossing_gain(
    a: float, b: float, ln_beta: float, lo: float, hi: float,
    f_lo: float, f_hi: float, d_lo: float, d_hi: float, c: float,
) -> float:
    """2 (c (x* - lo) - (G(x*) - G(lo))) for the root x* of F_Z(x*) = c in
    (lo, hi), given F_Z(lo) = f_lo < c < f_hi = F_Z(hi) and the densities
    d_lo, d_hi there: what the piece adds to G(hi) - G(lo) - c (hi - lo).

    With P(x) = c (2x - lo - hi) + G(lo) + G(hi) - 2 G(x), the piece is
    P(x*), and P' = 2 (c - F_Z) vanishes at x*.  From one evaluation F0, f0
    at a start x0, with e = c - F0 and delta = e / f0,

        P(x*) = P(x0) + e^2 / f0 - f_Z'(x0) delta^3 / 3 + O(delta^4),

    f_Z'(x) = f_Z(x) ((a-1)/x - (b-1)/(1-x)).  The start x0 is the inverse
    cubic Hermite interpolant through (f_lo, lo) and (f_hi, hi) with slopes
    1/d_lo and 1/d_hi, or the linear one where a density is 0 or infinite
    or the cubic leaves (lo, hi).  P(x0) + e^2 / f0 is taken when x0 + delta
    stays in (lo, hi) and |f_Z'(x0)| |delta|^3 < _ONE_EVAL_BOUND = 2^-60,
    a leading error below 2^-60 / 3.  Otherwise `_crossing` solves the
    root and P is read there, without the correction.  Either way
    G(x) - G(lo) is formed from differences of F_Z and of x(1-x) f_Z, not
    of O(1) values of G, so it does not cancel.
    """
    t = (c - f_lo) / (f_hi - f_lo)
    x = lo + t * (hi - lo)
    if 0.0 < d_lo < math.inf and 0.0 < d_hi < math.inf:
        u = 1.0 - t
        cubic = lo + t * t * (3.0 - 2.0 * t) * (hi - lo) + t * u * (f_hi - f_lo) * (
            u / d_lo - t / d_hi
        )
        if lo < cubic < hi:
            x = cubic
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    fx, dens = _cdf_pdf(a, b, ln_beta, x)
    e = c - fx
    delta = e / dens if 0.0 < dens < math.inf else math.inf
    slope = dens * ((a - 1.0) / x - (b - 1.0) / (1.0 - x))
    # A step that leaves the piece fails first, before |delta|^3 can overflow.
    if lo < x + delta < hi and abs(slope) * abs(delta) ** 3 < _ONE_EVAL_BOUND:
        correction = e * delta
    else:
        x, fx, dens = _crossing(a, b, ln_beta, lo, hi, f_lo, f_hi, c)
        correction = 0.0
    # G(x) - G(lo); at lo = 0 the x(1-x) f_Z term of G(lo) is 0 whatever f_Z(0).
    lo_term = lo * (1.0 - lo) * d_lo if lo > 0.0 else 0.0
    rise = (x - lo) * fx + (lo - a / (a + b)) * (fx - f_lo)
    rise += (x * (1.0 - x) * dens - lo_term) / (a + b)
    return 2.0 * (c * (x - lo) - rise) + correction


def wasserstein(pi: LatticeDistribution, beta: BetaParams) -> float:
    """Wasserstein distance: integral of |F_W - F_Z| over [0,1], in closed form.

    On each piece [lo, hi] = [i/m, (i+1)/m], m = 2n, F_W is a constant c.
    With G(x) = int_0^x F_Z = (x - mu) F_Z(x) + x(1-x) f_Z(x)/(a+b),
    mu = a/(a+b), G(0) = 0 and G(1) = 1 - mu, a piece where F_Z - c keeps
    one sign contributes +-(G(hi) - G(lo) - c (hi - lo)).  Monotone F_Z
    crosses c at most once; a crossing at x* contributes
    c (2 x* - lo - hi) + G(lo) + G(hi) - 2 G(x*), which is stationary in x*.
    `_crossing_gain` reads it from one evaluation of F_Z and f_Z at a
    Hermite start x0 plus the correction e^2/f0, e = c - F_Z(x0), and
    keeps that estimate when its error term f_Z'(x0) delta^3 / 3,
    delta = e/f0, has |f_Z'(x0)| |delta|^3 < 2^-60; otherwise the bracketed
    Newton of `_crossing` solves the root.  One pass over the pieces takes
    each crossing as it comes, and the pieces, each >= 0, are summed by
    `math.fsum`.

    The pieces are formed from differences of F_Z and f_Z, so the
    rounding of G does not cancel; what remains is the rounding noise of
    F_Z at the atoms and the crossing points.  Relative error against a
    30-digit mpmath oracle: 3.5e-12 at n=200, (1/10, 1/10), which the test
    suite holds to 1e-11; single measurements, too slow for the suite:
    2.2e-11 at n=1000, (1/10, 1/10); 2.6e-11 at n=1000, (355/113, 103/37);
    5.5e-11 at n=2000, 1.4e-11 at n=5000 and 3.5e-9 at n=20000, all
    (1/2, 3/2).  At n=20000, where W1 is 6.6e-6, that noise is summed over
    38,446 crossings: Newton on every crossing gave 4.0e-10 there.
    """
    m = 2 * pi.n
    fz, dens, g, ln_beta = _atoms(m, beta)
    a, b = float(beta.a), float(beta.b)
    pieces = []
    c = 0.0
    for i in range(m):
        c += pi.probs[i]
        lo, hi = i / m, (i + 1) / m
        f_lo, f_hi, g_lo, g_hi = fz[i], fz[i + 1], g[i], g[i + 1]
        if f_lo < c < f_hi:
            gain = _crossing_gain(
                a, b, ln_beta, lo, hi, f_lo, f_hi, dens[i], dens[i + 1], c
            )
            piece = g_hi - g_lo - c * (hi - lo) + gain
        elif c <= f_lo:
            piece = g_hi - g_lo - c * (hi - lo)
        else:
            piece = c * (hi - lo) - (g_hi - g_lo)
        # Each piece integrates |F_W - F_Z| >= 0; one that rounding takes
        # below 0 adds nothing.
        pieces.append(max(piece, 0.0))
    return math.fsum(pieces)


def kolmogorov(pi: LatticeDistribution, beta: BetaParams) -> float:
    """Kolmogorov distance sup_x |F_W(x) - F_Z(x)|.

    F_W is constant between atoms and F_Z is monotone, so the supremum is
    attained at an atom, approached from the left or from the right.
    """
    fz = _atoms(2 * pi.n, beta)[0]
    worst = prev = 0.0
    for p, f in zip(pi.probs, fz):
        cum = prev + p
        worst = max(worst, abs(cum - f), abs(prev - f))
        prev = cum
    return worst
