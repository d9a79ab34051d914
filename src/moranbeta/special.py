"""Special functions behind the Beta target and the approximation constants.

Deliberately minimal: log-gamma, log-beta, and the regularized incomplete
beta function are all that the Beta density and distribution function and
the constants C(a,b) and K(a,b) require.

The incomplete beta function has one implementation, over float arrays: the
distances evaluate it at every lattice atom at once, and `reg_inc_beta` runs
it on a one-element array.  Logarithms and exponentials go through `math`
and numpy does only + - * /, so every array value is bit-identical to the
scalar formula.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "ConvergenceError",
    "log_gamma",
    "log_beta",
    "reg_inc_beta",
]


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to meet its tolerance within budget."""


# The incomplete-beta continued fraction stops once a Lentz factor is within
# this of 1, and gives up after this many even/odd step pairs.
_CF_EPS = 1e-14
_CF_MAX_ITER = 300

_SQRT_2PI = 2.5066282746310005

# Lanczos rational approximation, g = 607/128, 14 correction terms.
# Good to ~1e-15 relative over the whole positive axis.
# Its ser / t overflows below about 4.6e-307, so below this argument
# log_gamma steps up by the recurrence instead.
_LANCZOS_MIN_T = 1e-300
_LANCZOS_SHIFT = 5.24218750000000000  # g + 1/2
_LANCZOS_SER0 = 0.999999999999997092
_LANCZOS_COF = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)


def log_gamma(t: float) -> float:
    """ln Gamma(t) for t > 0 via a fixed-coefficient Lanczos sum.

    For t < 1e-300 it returns ln Gamma(t + 1) - ln t, since t + 1 rounds to
    1 and the sum itself would overflow.
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"log_gamma requires t > 0, got {t!r}")
    if t < _LANCZOS_MIN_T:
        return log_gamma(t + 1.0) - math.log(t)
    ser = _LANCZOS_SER0
    y = t
    for c in _LANCZOS_COF:
        y += 1.0
        ser += c / y
    tmp = t + _LANCZOS_SHIFT
    tmp = (t + 0.5) * math.log(tmp) - tmp
    return tmp + math.log(_SQRT_2PI * ser / t)


def log_beta(a: float, b: float) -> float:
    """ln B(a,b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b), for a, b > 0."""
    a = float(a)
    b = float(b)
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"log_beta requires positive arguments, got ({a!r}, {b!r})")
    return _log_beta(a, b)


# The Beta CDF and density evaluate ln B(a,b) at every point for a shape pair
# that stays fixed over a whole distance computation.
@lru_cache(maxsize=64)
def _log_beta(a: float, b: float) -> float:
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a,b).

    Continued-fraction evaluation (modified Lentz) with the usual symmetry
    switch at x > (a+1)/(a+b+2) so the fraction always converges fast.
    """
    x = float(x)
    a = float(a)
    b = float(b)
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"reg_inc_beta requires positive shapes, got ({a!r}, {b!r})")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return float(_reg_inc_beta_interior(np.array([x]), a, b)[0])


def _libm(fn, v: np.ndarray) -> np.ndarray:
    # fn (math.log, math.log1p or math.exp) at every element, through libm
    # like the scalar formulas, so that each value is the scalar one.
    return np.fromiter(map(fn, v.tolist()), float, v.size)


def _logs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ln x and ln(1-x) at every 0 < x < 1.
    return _libm(math.log, x), _libm(math.log1p, -x)


def _reg_inc_beta_interior(
    x: np.ndarray, a: float, b: float, logs: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    # I_x(a,b) at every 0 < x < 1 of a float array, for float shapes a, b > 0;
    # `logs` are _logs(x) when the caller has them already.
    log_x, log_1mx = _logs(x) if logs is None else logs
    front = _libm(math.exp, a * log_x + b * log_1mx - log_beta(a, b))
    low = x < (a + 1.0) / (a + b + 2.0)
    p = np.where(low, a, b)
    part = front * _beta_cont_frac(p, np.where(low, b, a), np.where(low, x, 1.0 - x)) / p
    return np.where(low, part, 1.0 - part)


def _floor_tiny(v: np.ndarray) -> np.ndarray:
    # Lentz's guard, in place: a denominator that vanishes becomes a tiny one.
    v[np.abs(v) < 1e-300] = 1e-300
    return v


def _beta_cont_frac(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Modified Lentz iteration for the incomplete-beta continued fraction,
    # elementwise; an element leaves the iteration once its own factor is
    # within _CF_EPS of 1, so every value is the one a scalar loop returns.
    out = np.empty_like(x)
    idx = np.arange(x.size)
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _floor_tiny(1.0 - qab * x / qap)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        am2 = a + m2
        # even step
        aa = m * (b - m) * x / ((qam + m2) * am2)
        d = 1.0 / _floor_tiny(1.0 + aa * d)
        c = _floor_tiny(1.0 + aa / c)
        h = h * (d * c)
        # odd step
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        d = 1.0 / _floor_tiny(1.0 + aa * d)
        c = _floor_tiny(1.0 + aa / c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _CF_EPS
        if np.count_nonzero(done):
            out[idx[done]] = h[done]
            if done.all():
                return out
            live = ~done
            idx, a, b, x, qab, qap, qam, c, d, h = (
                v[live] for v in (idx, a, b, x, qab, qap, qam, c, d, h)
            )
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge in {_CF_MAX_ITER} "
        f"iterations for (x={float(x[0])!r}, a={float(a[0])!r}, b={float(b[0])!r})"
    )
