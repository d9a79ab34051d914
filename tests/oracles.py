"""Independent reference computations the test suite checks the package against.

None of these is on the certifier's path.  They restate the stationary law
through the closed Gamma-function formula and through power iteration of
the float kernel, step the kernel in float and in rational arithmetic, read
exact residuals and moments off a law's integer weights, and build the
periodic test function g behind the lower bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from moranbeta.model import LatticeDistribution, ModelParams, _float_kernel
from moranbeta.special import ConvergenceError, log_gamma

# Power iteration stops once one sweep moves pi by less than this in total
# variation, and gives up after this many sweeps.
_POWER_TV_EPS = 1e-14
_POWER_MAX_SWEEPS = 5_000_000


def tv(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two float probability vectors."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def from_exact(n: int, probs: Sequence[Fraction]) -> LatticeDistribution:
    """Exact law from rational probabilities, which must sum to 1."""
    probs = [Fraction(p) for p in probs]
    if len(probs) != 2 * n + 1:
        raise ValueError(f"expected {2 * n + 1} probabilities, got {len(probs)}")
    total = math.lcm(*(p.denominator for p in probs))
    weights = [p.numerator * (total // p.denominator) for p in probs]
    if any(w < 0 for w in weights):
        raise ValueError("negative probability entry")
    if sum(weights) != total:
        raise ValueError("exact probabilities must sum to 1")
    return LatticeDistribution.from_weights(n, weights, total)


def from_floats(n: int, probs: Sequence[float]) -> LatticeDistribution:
    """Exact law of nonnegative floats, each read as its exact binary value,
    renormalised in rational arithmetic."""
    exact = [Fraction(float(p)) for p in probs]
    mass = sum(exact)
    return from_exact(n, [p / mass for p in exact])


def moment_exact(pi: LatticeDistribution, r: int) -> Fraction:
    """Exact E[W^r] by brute-force summation over the support."""
    m = 2 * pi.n
    return Fraction(sum(w * i**r for i, w in enumerate(pi.weights)), pi.total * m**r)


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


def _step(kernel: tuple[np.ndarray, ...], probs: np.ndarray) -> np.ndarray:
    # probs @ P for the float kernel rows (down, stay, up).
    down, stay, up = kernel
    out = stay * probs
    out[:-1] += probs[1:] * down[1:]
    out[1:] += probs[:-1] * up[:-1]
    return out


def apply_kernel(params: ModelParams, probs: np.ndarray) -> np.ndarray:
    """One step of the chain acting on a float row vector: returns probs @ P."""
    return _step(_float_kernel(params), np.asarray(probs, dtype=float))


def apply_kernel_exact(
    params: ModelParams, probs: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """One exact step: returns probs @ P in rational arithmetic."""
    down, up = params.kernel_rows()
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
    weights, total = pi.weights, pi.total
    down, up = params.kernel_rows()
    den = total * params.kernel_den
    return tuple(
        Fraction(weights[i] * up[i] - weights[i + 1] * down[i + 1], den)
        for i in range(2 * params.n)
    )


def power_iteration_oracle(params: ModelParams) -> np.ndarray:
    """Brute-force fixed point: iterate the kernel from the uniform vector.

    Stops when successive iterates differ by less than 1e-14 in total
    variation.  Slowly mixing for large n (relaxation time ~ 4n^2/(a+b)), so
    intended as an independent oracle at desk scale, not a production path.
    """
    kernel = _float_kernel(params)
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
