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

The target is Beta(a, b) for the law's own point, `pi.params`, so each
distance takes the law alone.  Both read F_Z at the atoms i/(2n) from one
pass per point, which also yields the antiderivative G for W1; a point of
the same shapes on a multiple of the last lattice evaluates only its new
atoms.  Each distance is one loop on Python floats over the lattice
pieces.  W1 reads each crossing of F_W and F_Z from its left atom: F_Z and
the gain follow from two Gauss-Legendre moments of the closed-form density
on the piece, so the continued fraction for F_Z runs at the atoms only.
Crossings within a shape-dependent margin of the endpoints, where the rule's
error bound fails, and estimates the error test refuses are solved by one
Newton loop on F_Z instead.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import beta as beta_dist
from .model import LatticeDistribution, ModelParams
from .moments import variance
from .special import ConvergenceError, _cdf_pdf, log_beta

__all__ = [
    "gap_h",
    "wasserstein",
    "kolmogorov",
]

# A crossing's estimate is kept once its error term |f_Z'(x)| |delta|^3 / 3
# is below _ONE_EVAL_BOUND / 3; a Newton loop otherwise stops once a step is
# below _ROOT_REL_TOL of the piece width (see `_crossing_gain`).
_ROOT_REL_TOL = 1e-10
_ROOT_MAX_ITER = 100
_ONE_EVAL_BOUND = 2.0**-60

# The 6-point Gauss-Legendre rule on [-1, 1]: nodes t_k and weights w_k, as
# numpy.polynomial.legendre.leggauss(6) gives them.  An interior crossing
# reads both moments of f_Z on [lo, x] from it (see `_interior_margin`).
_GL_NODES = (
    -0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
    0.2386191860831969, 0.6612093864662645, 0.9324695142031519,
)
_GL_WEIGHTS = (
    0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
    0.46791393457269104, 0.3607615730481387, 0.17132449237917027,
)
_GL_RULE = tuple(zip([1.0 + t for t in _GL_NODES], _GL_WEIGHTS))
# Each moment's relative error bound, the one-evaluation bound's value, held
# apart so that a one-evaluation bound of 0, which refuses every estimate,
# leaves the margin defined.
_MOMENT_REL_BOUND = _ONE_EVAL_BOUND


def gap_h(params: ModelParams) -> Fraction:
    """Exact |E h(W) - E h(Z)| for h(x) = x(1-x)/2.

    As E W = E Z = a/(a+b), E h(Z) - E h(W) = (Var W - Var Z)/2, which is
    ab / (2(a+b)(1+a+b)(2n + (2n-1)(a+b))) > 0: the Beta side always
    dominates the lattice side for finite n.  As |h'| <= 1/2 on [0, 1],
    Kantorovich-Rubinstein gives 2 gap_h <= W1.
    """
    return (variance(params) - beta_dist.variance(params)) / 2


def _cdf_integral(a: float, b: float, x: float, fz: float, dens: float) -> float:
    # G(x) = int_0^x F_Z for 0 < x < 1 and float shapes, from F_Z(x), f_Z(x)
    # and I_x(a+1, b) = I_x(a, b) - x^a (1-x)^b / (a B(a, b)), DLMF 8.17(iv).
    return (x - a / (a + b)) * fz + x * (1.0 - x) * dens / (a + b)


def _end_density(shape: float, ln_beta: float) -> float:
    # f_Z at the endpoint where `shape` is the exponent's shape: 0 above 1,
    # infinite below 1, and 1/B(a, b) at 1.
    return 0.0 if shape > 1.0 else math.inf if shape < 1.0 else math.exp(-ln_beta)


# The atoms of the last lattice `_atoms` served, for the next one of the same
# shape pair: ((a, b), m, atoms), or None.  One lattice, one slot, which the
# CLI empties as each command starts computing (`cli._run_share`).
_slot = None


def _reset_atoms() -> None:
    """Empty the atom slot, so the next `_atoms` call is a cold pass."""
    global _slot
    _slot = None


def _atoms(
    m: int, shapes: tuple
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], float]:
    """F_Z, f_Z and G at the atoms i/m, i = 0..m, and ln B(a,b) for the
    shape pair `shapes` = (a, b), rational or float: both distances read
    F_Z, and W1 reads G and f_Z, for each crossing's Hermite start and as
    the base of its moment rule (see `wasserstein`).  They depend on the
    lattice and the shapes only, so no lattice law enters.

    The atoms of the last lattice m0 are kept in one slot, keyed on the
    pair, which compares by value: (1/2, 2) and (0.5, 2.0) are one key.
    The same lattice again (W1, then Kolmogorov) is served from it.  A
    lattice m = k m0 of the same shapes, such as the next n of a doubling
    sweep, copies atom j of m0 to atom k j and evaluates only the others:
    k j / (k m0) and j / m0 are one rational, correctly rounded to one
    float, so every value is the one a cold pass gives, bit for bit.  Any
    other lattice starts from the endpoints, where F_Z is 0 and 1, G is 0
    and b/(a+b), and f_Z is its limit: 0, infinite or 1/B(a,b) as the shape
    at that end is above, below or equal to 1.
    """
    global _slot
    a, b = map(float, shapes)
    if _slot is None or m % _slot[1] or _slot[0] != shapes:
        ln_beta = log_beta(a, b)
        ends = (
            (0.0, 1.0),
            (_end_density(a, ln_beta), _end_density(b, ln_beta)),
            (0.0, float(shapes[1] / (shapes[0] + shapes[1]))),
            ln_beta,
        )
        _slot = (shapes, 1, ends)
    _, coarse, atoms = _slot
    if m == coarse:
        return atoms
    k = m // coarse
    *kept, ln_beta = atoms
    fz, dens, g = [0.0] * (m + 1), [0.0] * (m + 1), [0.0] * (m + 1)
    fz[::k], dens[::k], g[::k] = kept
    for i in range(1, m):
        if i % k:
            x = i / m
            f, d = _cdf_pdf(a, b, ln_beta, x)
            if not math.isfinite(f):
                raise FloatingPointError(f"Beta{a, b} CDF is not finite at i/{m}")
            fz[i], dens[i], g[i] = f, d, _cdf_integral(a, b, x, f, d)
    atoms = (tuple(fz), tuple(dens), tuple(g), ln_beta)
    _slot = (shapes, m, atoms)
    return atoms


def _hermite_start(
    lo: float, hi: float, f_lo: float, f_hi: float, d_lo: float, d_hi: float, c: float
) -> float:
    # The inverse cubic Hermite interpolant through (f_lo, lo) and (f_hi, hi)
    # with slopes 1/d_lo and 1/d_hi at c, or the linear one where a density
    # is 0 or infinite or the cubic leaves (lo, hi); the midpoint if that
    # rounds onto an end.
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
    return x


def _interior_margin(a: float, b: float) -> int:
    """The fewest atoms J between a piece and the nearer endpoint for which
    the 6-point Gauss-Legendre rule gives both moments of f_Z on any
    [lo, x] inside the piece with relative error below 2^-60.

    Map [lo, x] to [-1, 1] by u = lo + h (1 + t), h = (x - lo)/2 <= 1/(2m).
    f_Z(u) / f_Z(lo) = (u/lo)^(a-1) ((1-u)/(1-lo))^(b-1) is analytic
    wherever |u/lo - 1| < 1 and |(1-u)/(1-lo) - 1| < 1.  On the Bernstein
    ellipse E_rho, whose semi-major axis is R = (rho + 1/rho)/2, |u - lo| <=
    h (1 + R), so with lo and 1 - lo both >= J/m each ratio is within
    r = (1 + R)/(2J) of 1, and |f_Z(u)| <= f_Z(lo) (1 - r)^-s there, with
    s = |a - 1| + |b - 1|.  On [lo, x] itself, f_Z >= f_Z(lo) (1 - 1/J)^s.
    Trefethen, Approximation Theory and Approximation Practice, Thm 19.3:
    K-point Gauss quadrature of a function bounded by M on E_rho errs by at
    most (64/15) M rho^(2-2K) / (rho^2 - 1) on [-1, 1].  With |u - lo| <=
    h (1 + R) on E_rho, the relative error of I1 = int (u - lo) f_Z, the
    larger of the two, is at most

        (32/15) (1 + R) (1 - r)^-s (1 - 1/J)^-s rho^(2-2K) / (rho^2 - 1),

    and that of I0 = int f_Z the same without (1 + R).  This takes
    r = (2K - 1)/(2K + s), which balances (1 - r)^-s against
    rho^-(2K-1) ~ (4 J r)^-(2K-1), and returns the least J >= 2 with the
    bound below _MOMENT_REL_BOUND = 2^-60, found by doubling and bisection,
    as the bound falls while J grows.  For K = 6 it gives J = 13 at s = 0
    (a = b = 1), 17 at s = 1, 26 at s = 4 and 302 at s = 100.  This is the
    rule's own error; the rounding of the node values adds a few ulps.
    """
    k, s = len(_GL_NODES), abs(a - 1.0) + abs(b - 1.0)
    r = (2 * k - 1) / (2 * k + s)
    log_bound = math.log(_MOMENT_REL_BOUND)

    def too_close(j: int) -> bool:
        big_r = 2 * j * r - 1.0
        if big_r <= 1.0:
            return True
        rho = big_r + math.sqrt(big_r * big_r - 1.0)
        log_err = (
            math.log(32 / 15) + math.log1p(big_r)
            - s * (math.log1p(-r) + math.log1p(-1 / j))
            + (2 - 2 * k) * math.log(rho) - math.log(rho * rho - 1.0)
        )
        return log_err >= log_bound

    lo, hi = 1, 2
    while too_close(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if too_close(mid) else (lo, mid)
    return hi


def _moments(
    am1: float, bm1: float, lo: float, x: float, d_lo: float
) -> tuple[float, float, float]:
    """I0 = int_lo^x f_Z, I1 = int_lo^x (u - lo) f_Z and f_Z(x), for
    0 < lo < x < 1, a - 1 = am1, b - 1 = bm1 and d_lo = f_Z(lo): both
    moments from one 6-point Gauss-Legendre rule, with
    f_Z(u) = f_Z(lo) exp((a-1) log1p((u-lo)/lo) + (b-1) log1p(-(u-lo)/(1-lo))).
    """
    h, to_0, to_1 = 0.5 * (x - lo), 1.0 / lo, -1.0 / (1.0 - lo)
    exp, log1p = math.exp, math.log1p
    i0 = i1 = 0.0
    for node, weight in _GL_RULE:
        du = h * node
        v = weight * exp(am1 * log1p(du * to_0) + bm1 * log1p(du * to_1))
        i0 += v
        i1 += du * v
    du = x - lo
    f = d_lo * exp(am1 * log1p(du * to_0) + bm1 * log1p(du * to_1))
    return h * d_lo * i0, h * d_lo * i1, f


def _crossing_gain(
    a: float, b: float, ln_beta: float, lo: float, hi: float,
    f_lo: float, f_hi: float, d_lo: float, d_hi: float, c: float,
) -> float:
    """2 (c (x* - lo) - (G(x*) - G(lo))) for the root x* of F_Z(x*) = c in
    (lo, hi), given F_Z(lo) = f_lo < c < f_hi = F_Z(hi) and the densities
    d_lo, d_hi there: what the piece adds to G(hi) - G(lo) - c (hi - lo).

    With P(x) = c (2x - lo - hi) + G(lo) + G(hi) - 2 G(x), the piece is
    P(x*), and P' = 2 (c - F_Z) vanishes at x*.  From an evaluation F, f at
    x, with e = c - F and delta = e / f,

        P(x*) = P(x) + e^2 / f - f_Z'(x) delta^3 / 3 + O(delta^4),

    f_Z'(x) = f_Z(x) ((a-1)/x - (b-1)/(1-x)).  `wasserstein` calls this
    only for a crossing within the endpoint margin (`_interior_margin`) or
    one whose moment estimate the same test refuses.  One Newton loop finds
    x: it starts at the Hermite point of `_hermite_start`.  Each round
    evaluates F_Z and f_Z once and narrows the bracket by the sign of
    c - F.  It returns P(x) + e^2 / f once x + delta stays in (lo, hi) and
    |f_Z'(x)| |delta|^3 < _ONE_EVAL_BOUND = 2^-60, a leading error below
    2^-60 / 3: mostly after the first round.  Otherwise it returns P(x)
    alone once its next step is below _ROOT_REL_TOL of the piece width,
    and steps to x + delta before that, bisecting when x + delta leaves
    the bracket or f is 0 or infinite; a Newton step that small may round
    onto a bracket end, so it is tested first.  G(x) - G(lo) is formed
    from differences of F_Z and of x(1-x) f_Z, not of O(1) values of G,
    so it does not cancel.
    """
    x = _hermite_start(lo, hi, f_lo, f_hi, d_lo, d_hi, c)
    tol = _ROOT_REL_TOL * (hi - lo)
    left, right = lo, hi
    for _ in range(_ROOT_MAX_ITER):
        fx, dens = _cdf_pdf(a, b, ln_beta, x)
        if fx < c:
            left = x
        elif fx > c:
            right = x
        e = c - fx
        step = e / dens if 0.0 < dens < math.inf else math.inf
        slope = dens * ((a - 1.0) / x - (b - 1.0) / (1.0 - x))
        # A step that leaves the piece fails first, before |step|^3 can overflow.
        if lo < x + step < hi and abs(slope) * abs(step) ** 3 < _ONE_EVAL_BOUND:
            correction = e * step
            break
        correction = 0.0
        if abs(step) <= tol:
            break
        if not left < x + step < right:
            step = 0.5 * (left + right) - x
            if abs(step) <= tol:
                break
        x += step
    else:
        raise ConvergenceError(f"F_Z(x) = {c!r} not solved on [{left}, {right}]")
    # G(x) - G(lo); at lo = 0 the x(1-x) f_Z term of G(lo) is 0 whatever f_Z(0).
    lo_term = lo * (1.0 - lo) * d_lo if lo > 0.0 else 0.0
    rise = (x - lo) * fx + (lo - a / (a + b)) * (fx - f_lo)
    rise += (x * (1.0 - x) * dens - lo_term) / (a + b)
    return 2.0 * (c * (x - lo) - rise) + correction


def wasserstein(pi: LatticeDistribution) -> float:
    """Wasserstein distance: integral of |F_W - F_Z| over [0,1], in closed
    form, for Z ~ Beta(a, b) with the shapes of `pi.params`.

    On each piece [lo, hi] = [i/m, (i+1)/m], m = 2n, F_W is a constant c.
    With G(x) = int_0^x F_Z = (x - mu) F_Z(x) + x(1-x) f_Z(x)/(a+b),
    mu = a/(a+b), G(0) = 0 and G(1) = 1 - mu, a piece where F_Z - c keeps
    one sign contributes +-(G(hi) - G(lo) - c (hi - lo)).  Monotone F_Z
    crosses c at most once; a crossing at x* adds the gain
    2 int_lo^x* (c - F_Z), which is stationary in x*.

    An interior crossing, one whose piece has both ends at least
    `_interior_margin(a, b)` atoms from 0 and 1, is read from its left
    atom.  From the Hermite start x (`_hermite_start`), one 6-point
    Gauss-Legendre rule on [lo, x] gives I0 = int f_Z and
    I1 = int (u - lo) f_Z of the closed-form density, and f = f_Z(x).
    Then F_Z(x) = F_Z(lo) + I0, and with e = c - F_Z(lo) - I0 and
    delta = e / f the gain is

        2 I1 + 2 (x - lo) e + e^2 / f,

    formed from small quantities only, with the error term
    f_Z'(x) delta^3 / 3 of `_crossing_gain`.  It is kept once x + delta
    stays in the piece and |f_Z'(x)| |delta|^3 < _ONE_EVAL_BOUND = 2^-60,
    read at each call; the rule's own error in each moment is below 2^-60
    relative by the Bernstein-ellipse bound that sets the margin.  Any
    other crossing goes to `_crossing_gain`, one Newton loop on F_Z from
    the same start.  One pass over the pieces takes each crossing as it
    comes, and the pieces, each >= 0, are summed by `math.fsum`.

    The pieces are formed from differences of F_Z and f_Z, so the
    rounding of G does not cancel.  An interior crossing shares the
    continued fraction's rounding noise of F_Z(lo) with its atom, where a
    second evaluation at the crossing point added the difference of two
    noises.  What remains is the noise of F_Z and G at the atoms, which
    every crossing method shares, and that of the margin crossings.
    Relative error against a 30-digit mpmath oracle, with the figure of a
    continued-fraction evaluation at every crossing in brackets:
    5.3e-12 (9.4e-13) at n=200, (1/10, 1/10), which the test suite holds
    to 1e-11; 8.0e-13 (4.9e-12) at n=400, (1/2, 3/2), held to 2e-12;
    single measurements, too slow for the suite: 1.5e-11 (1.9e-11) at
    n=1000, (1/10, 1/10); 1.8e-13 (2.6e-11) at n=1000, (355/113, 103/37);
    2.4e-13 (5.5e-11) at n=2000 and 2.0e-11 (1.4e-11) at n=5000, both
    (1/2, 3/2); 2.5e-12 (6.9e-11) at n=2000, (7/3, 11/5); 3.4e-11
    (3.5e-10) at n=111, (1/1000, 811/1000).
    """
    m, shapes = 2 * pi.n, (pi.params.a, pi.params.b)
    fz, dens, g, ln_beta = _atoms(m, shapes)
    a, b = map(float, shapes)
    am1, bm1 = a - 1.0, b - 1.0
    margin = _interior_margin(a, b)
    pieces = []
    c = 0.0
    for i in range(m):
        c += pi.probs[i]
        lo, hi = i / m, (i + 1) / m
        f_lo, f_hi, g_lo, g_hi = fz[i], fz[i + 1], g[i], g[i + 1]
        if f_lo < c < f_hi:
            d_lo, d_hi = dens[i], dens[i + 1]
            gain = None
            if margin <= i < m - margin:
                x = _hermite_start(lo, hi, f_lo, f_hi, d_lo, d_hi, c)
                i0, i1, f = _moments(am1, bm1, lo, x, d_lo)
                e = c - f_lo - i0
                step = e / f if f > 0.0 else math.inf
                slope = f * (am1 / x - bm1 / (1.0 - x))
                if lo < x + step < hi and abs(slope) * abs(step) ** 3 < _ONE_EVAL_BOUND:
                    gain = 2.0 * i1 + 2.0 * (x - lo) * e + e * step
            if gain is None:
                gain = _crossing_gain(a, b, ln_beta, lo, hi, f_lo, f_hi, d_lo, d_hi, c)
            piece = g_hi - g_lo - c * (hi - lo) + gain
        elif c <= f_lo:
            piece = g_hi - g_lo - c * (hi - lo)
        else:
            piece = c * (hi - lo) - (g_hi - g_lo)
        # Each piece integrates |F_W - F_Z| >= 0; one that rounding takes
        # below 0 adds nothing.
        pieces.append(max(piece, 0.0))
    return math.fsum(pieces)


def kolmogorov(pi: LatticeDistribution) -> float:
    """Kolmogorov distance sup_x |F_W(x) - F_Z(x)|, for Z ~ Beta(a, b) with
    the shapes of `pi.params`.

    F_W is constant between atoms and F_Z is monotone, so the supremum is
    attained at an atom, approached from the left or from the right.
    """
    fz = _atoms(2 * pi.n, (pi.params.a, pi.params.b))[0]
    worst = prev = 0.0
    for p, f in zip(pi.probs, fz):
        cum = prev + p
        worst = max(worst, abs(cum - f), abs(prev - f))
        prev = cum
    return worst
