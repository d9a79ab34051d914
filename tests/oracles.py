"""Independent reference computations the test suite checks the package against.

None of these is on the certifier's path.  They restate the stationary law
through the closed Gamma-function formula and through power iteration of
the float kernel, step the kernel in float and in rational arithmetic, walk
a law's integer weights exactly and read exact residuals, moments and the
two Stein sums state by state off them, give each state's exact asymptotic
variance in the chain by a closed form and by the fundamental matrix, give
the Beta moments as rising-factorial products and the incomplete beta
function as a one-value Lentz loop, and build the periodic test function g
behind the lower bound.
The Monte Carlo check of pi draws from two seeded samplers on the standard
library's `random`: `sample_stationary`, i.i.d. draws from the law, and
`simulate_chain`, a path of the chain itself.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from moranbeta.model import LatticeDistribution, ModelParams
from moranbeta.special import ConvergenceError, log_beta, log_gamma

# Power iteration stops once one sweep moves pi by less than this in total
# variation, and gives up after this many sweeps.
_POWER_TV_EPS = 1e-14
_POWER_MAX_SWEEPS = 5_000_000


def tv(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two float probability vectors."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


class Shapes(NamedTuple):
    """The shapes of a Beta target that is not a model point's."""

    a: Fraction | float
    b: Fraction | float


@dataclass(frozen=True, eq=False)
class ExactLaw:
    """A law on {0,...,2n} that is not the stationary law of a model point,
    as the distances read a `LatticeDistribution`: `n`, `probs` and
    `params`, here the `Shapes` of the Beta target it is measured against."""

    n: int
    probs: tuple[float, ...]
    params: Shapes


def from_exact(n: int, probs: Sequence[Fraction], a, b) -> ExactLaw:
    """Exact law from rational probabilities, which must sum to 1, against
    the target Beta(a, b)."""
    probs = [Fraction(p) for p in probs]
    if len(probs) != 2 * n + 1:
        raise ValueError(f"expected {2 * n + 1} probabilities, got {len(probs)}")
    total = math.lcm(*(p.denominator for p in probs))
    weights = [p.numerator * (total // p.denominator) for p in probs]
    if any(w < 0 for w in weights):
        raise ValueError("negative probability entry")
    if sum(weights) != total:
        raise ValueError("exact probabilities must sum to 1")
    # int true division rounds correctly
    return ExactLaw(n, tuple(w / total for w in weights), Shapes(a, b))


def from_floats(n: int, probs: Sequence[float], a, b) -> ExactLaw:
    """Exact law of nonnegative floats, each read as its exact binary value,
    renormalised in rational arithmetic, against the target Beta(a, b)."""
    exact = [Fraction(float(p)) for p in probs]
    mass = sum(exact)
    return from_exact(n, [p / mass for p in exact], a, b)


def exact_walk(params: ModelParams) -> list[int]:
    """The integer weights w_i, pi(i) = w_i / total, by one walk along the
    kernel rows: w_0 = prod_{j<2n} (2n qb + c j), then w_{i+1} = w_i U_i /
    D_{i+1}, each division exact.  Its ints grow as n^2 in all, so only the
    tests walk all 2n + 1 weights."""
    (down, up, _), m = params.rows, 2 * params.n
    weights = [math.prod(params.qb * m + params.c * j for j in range(m))]
    for u, d in zip(up, down[1:]):
        weights.append(weights[-1] * u // d)
    return weights


def moment_exact(pi: LatticeDistribution, r: int) -> Fraction:
    """Exact E[W^r] by brute-force summation over the support."""
    m = 2 * pi.n
    weights = exact_walk(pi.params)
    return Fraction(sum(w * i**r for i, w in enumerate(weights)), sum(weights) * m**r)


def abs_s_sum(pi: LatticeDistribution) -> int:
    """sum_i w_i |S_i| over the exact weights; E|S| is it over 2 kernel_den total."""
    return sum(w * abs(s) for w, s in zip(exact_walk(pi.params), pi.params.rows[2]))


def move_sum(pi: LatticeDistribution) -> int:
    """sum_i w_i (D_i + U_i) over the exact weights; E|W'-W|^3/lambda is it
    over 2n kernel_den total."""
    down, up, _ = pi.params.rows
    return sum(w * (d + u) for w, d, u in zip(exact_walk(pi.params), down, up))


def beta_moments(a, b, r: int):
    """E[Z^r] for Z ~ Beta(a, b), r >= 1, as the rising-factorial product
    prod_{k<r} (a+k)/(a+b+k).

    Exact (Fraction in, Fraction out) for rational shapes; overflow-free.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"moment order must be a positive integer, got {r!r}")
    out = a / (a + b)
    for k in range(1, r):
        out *= (a + k) / (a + b + k)
    return out


def scalar_reg_inc_beta(x: float, a: float, b: float) -> float:
    """I_x(a,b) at one 0 < x < 1 by a one-value modified Lentz loop that
    computes ln B(a,b) itself: the reference for the package's loop, which
    must match it bit for bit."""
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _scalar_cont_frac(a, b, x) / a
    return 1.0 - front * _scalar_cont_frac(b, a, 1.0 - x) / b


def _scalar_cont_frac(a: float, b: float, x: float) -> float:
    tiny = 1e-300

    def floor(v):
        return tiny if abs(v) < tiny else v

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / floor(1.0 - qab * x / qap)
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / floor(1.0 + aa * d)
        c = floor(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / floor(1.0 + aa * d)
        c = floor(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    raise AssertionError("reference loop did not converge")


def closed_form_log_weights(params: ModelParams) -> np.ndarray:
    """Log of the closed-form stationary weights, including the pi(0) constant.

    With A = 2nv/(1-u-v), B = 2n(1-v)/(1-u-v), C = 2nu/(1-u-v),
    D = 2n/(1-u-v) and pi(0) = Gamma(B)Gamma(A+C)/[Gamma(D)Gamma(C)],

        ln pi(i) = ln pi(0) + ln (2n)! - ln i! - ln (2n-i)!
                   + ln Gamma(i+A) + ln Gamma(B-i) - ln Gamma(A) - ln Gamma(B).

    Exponentiating these and summing should give 1 up to floating error;
    `stationary_closed_form` renormalizes anyway.  Gamma arguments are
    assembled exactly as rationals before rounding to float so no accuracy
    is lost to argument cancellation.
    """
    n = params.n
    m = 2 * n
    one_minus = 1 - params.u - params.v  # positive by construction
    A = m * params.v / one_minus
    B = m * (1 - params.v) / one_minus
    C = m * params.u / one_minus
    D = Fraction(m) / one_minus
    lg = log_gamma
    ln_pi0 = lg(float(B)) + lg(float(A + C)) - lg(float(D)) - lg(float(C))
    const = ln_pi0 + lg(m + 1) - lg(float(A)) - lg(float(B))
    out = np.empty(m + 1, dtype=float)
    for i in range(m + 1):
        out[i] = math.fsum(
            (
                const,
                -lg(i + 1),
                -lg(m - i + 1),
                lg(float(A + i)),
                lg(float(B - i)),
            )
        )
    return out


def stationary_closed_form(params: ModelParams) -> np.ndarray:
    """Stationary law from the closed Gamma-function formula (floating).

    Exponentiation goes through a log-sum-exp shift, so the result is a
    normalized probability vector even when individual weights underflow
    plain `exp`.
    """
    logw = closed_form_log_weights(params)
    shift = logw.max()
    w = np.exp(logw - shift)
    w /= w.sum()
    return w


def float_kernel(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (down, stay, up) of the kernel as correctly rounded floats."""
    down, up, _ = params.rows
    den = params.kernel_den
    stay = [den - d - u for d, u in zip(down, up)]
    return tuple(np.array([x / den for x in row]) for row in (down, stay, up))


def _step(kernel: tuple[np.ndarray, ...], probs: np.ndarray) -> np.ndarray:
    # probs @ P for the float kernel rows (down, stay, up).
    down, stay, up = kernel
    out = stay * probs
    out[:-1] += probs[1:] * down[1:]
    out[1:] += probs[:-1] * up[:-1]
    return out


def apply_kernel(params: ModelParams, probs: np.ndarray) -> np.ndarray:
    """One step of the chain acting on a float row vector: returns probs @ P."""
    return _step(float_kernel(params), np.asarray(probs, dtype=float))


def apply_kernel_exact(
    params: ModelParams, probs: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """One exact step: returns probs @ P in rational arithmetic."""
    down, up, _ = params.rows
    den = params.kernel_den
    out = [p * (den - d - u) for p, d, u in zip(probs, down, up)]
    for i in range(2 * params.n):
        out[i] += probs[i + 1] * down[i + 1]
        out[i + 1] += probs[i] * up[i]
    return tuple(x / den for x in out)


def detailed_balance_residuals(
    params: ModelParams, pi: LatticeDistribution
) -> tuple[Fraction, ...]:
    """Exact residuals pi(i)p(i,i+1) - pi(i+1)p(i+1,i) along every edge."""
    weights, total = exact_walk(params), pi.total
    down, up, _ = params.rows
    den = total * params.kernel_den
    return tuple(
        Fraction(weights[i] * up[i] - weights[i + 1] * down[i + 1], den)
        for i in range(2 * params.n)
    )


def asymptotic_variances(pi: LatticeDistribution) -> tuple[Fraction, ...]:
    """Exact sigma_i^2 = lim T Var(fraction of T stationary steps at i).

    For a birth-death chain the Poisson equation of f = 1{X = i} integrates
    along the edges, and with Pi(k) = pi(0) + ... + pi(k) and
    c_k = pi(k) p(k,k+1),

        sigma_i^2 = 2 pi_i^2 sum_{k<2n} ([k >= i] - Pi(k))^2 / c_k
                    - pi_i (1 - pi_i).

    Expanding the square splits the sum into one term common to every i and
    a suffix sum, so all 2n+1 states take O(n) operations.
    """
    probs = pi.probs_exact
    params = pi.params
    _, up, _ = params.rows
    m = 2 * pi.n
    cum = list(itertools.accumulate(probs))
    flux = [probs[k] * Fraction(up[k], params.kernel_den) for k in range(m)]
    common = sum(cum[k] ** 2 / flux[k] for k in range(m))
    suffix = [Fraction(0)] * (m + 1)
    for k in reversed(range(m)):
        suffix[k] = suffix[k + 1] + (1 - 2 * cum[k]) / flux[k]
    return tuple(
        2 * p * p * (common + suffix[i]) - p * (1 - p) for i, p in enumerate(probs)
    )


def asymptotic_variances_dense(pi: LatticeDistribution) -> tuple[Fraction, ...]:
    """The same variances from the fundamental matrix Z = (I - P + 1 pi)^-1
    (Kemeny & Snell): sigma_i^2 = pi_i (2 Z_ii - 1 - pi_i).  Dense Gaussian
    elimination in rational arithmetic, for small n only."""
    probs = pi.probs_exact
    params = pi.params
    down, up, _ = params.rows
    den = params.kernel_den
    size = len(probs)
    a = [[probs[j] + (i == j) for j in range(size)] for i in range(size)]
    for i in range(size):
        if i > 0:
            a[i][i - 1] -= Fraction(down[i], den)
        if i < size - 1:
            a[i][i + 1] -= Fraction(up[i], den)
        a[i][i] -= Fraction(den - down[i] - up[i], den)
    z = _inverse(a)
    return tuple(p * (2 * z[i][i] - 1 - p) for i, p in enumerate(probs))


def _inverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    # Gauss-Jordan with the first nonzero pivot: exact, so no pivoting rule.
    size = len(a)
    rows = [row + [Fraction(i == j) for j in range(size)] for i, row in enumerate(a)]
    for col in range(size):
        piv = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[size:] for row in rows]


def wasserstein_mpmath(pi: LatticeDistribution) -> float:
    """W1 of the law `pi` to Beta(a, b) at 30 digits (mpmath): the table's
    `make_distance_oracles.distances`, fed the exact weights instead of the
    Beta-Binomial closed form."""
    import mpmath

    from make_distance_oracles import DPS, distances

    with mpmath.workdps(DPS):
        probs = (mpmath.mpf(w) / pi.total for w in exact_walk(pi.params))
        return float(distances(pi.n, pi.params.a, pi.params.b, probs)[0])


def power_iteration_oracle(params: ModelParams) -> np.ndarray:
    """Brute-force fixed point: iterate the kernel from the uniform vector.

    Stops when successive iterates differ by less than 1e-14 in total
    variation.  Slowly mixing for large n (relaxation time ~ 4n^2/(a+b)), so
    intended as an independent oracle at desk scale, not a production path.
    """
    kernel = float_kernel(params)
    size = 2 * params.n + 1
    pi = np.full(size, 1.0 / size)
    for _ in range(_POWER_MAX_SWEEPS):
        new = _step(kernel, pi)
        new /= new.sum()
        change = tv(new, pi)
        pi = new
        if change < _POWER_TV_EPS:
            return pi
    raise ConvergenceError(
        f"power iteration did not converge in {_POWER_MAX_SWEEPS} sweeps"
    )


def sample_stationary(dist: LatticeDistribution, seed: int, count: int) -> array:
    """`count` i.i.d. state indices by inverse-CDF lookup, as an `array('q')`.

    Reproducible from `seed`: `random.Random(seed).choices` locates one
    `random()` per draw in the running sums of `probs`.
    """
    cum = list(itertools.accumulate(dist.probs))
    states = range(2 * dist.n + 1)
    return array("q", random.Random(seed).choices(states, cum_weights=cum, k=count))


def simulate_chain(params: ModelParams, start: int, steps: int, seed: int) -> array:
    """Trajectory of `steps` kernel steps from `start`, as an `array('q')`
    of length steps + 1.

    Each step draws one u = `random()` of `random.Random(seed)` and moves
    down if u < D_i / kernel_den, up if u >= (kernel_den - U_i) / kernel_den,
    and stays otherwise; both thresholds are correctly rounded quotients of
    the kernel rows.
    """
    if not 0 <= start <= 2 * params.n:
        raise IndexError(f"start state {start} outside {{0,...,{2 * params.n}}}")
    path = array("q", [0]) * (steps + 1)
    down, up, _ = params.rows
    den = params.kernel_den
    t_down = [d / den for d in down]
    t_up = [(den - u) / den for u in up]
    uniform = random.Random(seed).random
    path[0] = i = start
    for k in range(1, steps + 1):
        u = uniform()
        if u < t_down[i]:
            i -= 1
        elif u >= t_up[i]:
            i += 1
        path[k] = i
    return path


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
