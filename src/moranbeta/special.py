"""Special functions behind the Beta target and the approximation constants.

Deliberately minimal: log-gamma, log-beta, and the regularized incomplete
beta function are all that the Beta distribution function at the lattice
atoms and the constants C(a,b) and K(a,b) require.

The Beta CDF and density have one evaluator, `_cdf_pdf`: F_Z = I_x(a,b)
by a one-value continued fraction on Python floats, and f_Z from the same
logarithms, at one 0 < x < 1.  The distances call it at every lattice atom
and crossing point; it takes ln B(a,b) from its caller, which computes it
once per point.
"""

from __future__ import annotations

import math

__all__ = [
    "ConvergenceError",
    "log_gamma",
    "log_beta",
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
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def _cdf_pdf(a: float, b: float, ln_beta: float, x: float) -> tuple[float, float]:
    """F_Z(x) = I_x(a,b) and f_Z(x) at 0 < x < 1 for float shapes a, b > 0,
    given ln B(a,b)."""
    log_x, log_1mx = math.log(x), math.log1p(-x)
    dens = math.exp((a - 1.0) * log_x + (b - 1.0) * log_1mx - ln_beta)
    front = math.exp(a * log_x + b * log_1mx - ln_beta)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a, dens
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b, dens


# Lentz's guard: a denominator that vanishes becomes this tiny one.
_TINY = 1e-300


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    # Modified Lentz iteration for the incomplete-beta continued fraction;
    # stops once a factor is within _CF_EPS of 1.  The step counter m is a
    # float, which saves an int conversion per operation and changes no bit;
    # the chained comparisons test |v| < bound without calling abs, and are
    # the same predicate for every float, -0.0, inf and NaN included.
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (_TINY if -_TINY < d < _TINY else d)
    h = d
    m = 0.0
    for _ in range(_CF_MAX_ITER):
        m += 1.0
        m2 = m + m
        am2 = a + m2
        # even step
        aa = m * (b - m) * x / ((qam + m2) * am2)
        d = 1.0 + aa * d
        d = 1.0 / (_TINY if -_TINY < d < _TINY else d)
        c = 1.0 + aa / c
        c = _TINY if -_TINY < c < _TINY else c
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        d = 1.0 + aa * d
        d = 1.0 / (_TINY if -_TINY < d < _TINY else d)
        c = 1.0 + aa / c
        c = _TINY if -_TINY < c < _TINY else c
        delta = d * c
        h *= delta
        if -_CF_EPS < delta - 1.0 < _CF_EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge in {_CF_MAX_ITER} "
        f"iterations for (x={x!r}, a={a!r}, b={b!r})"
    )
