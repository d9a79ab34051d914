"""Special functions backing the closed-form stationary law and the Beta CDF.

Deliberately minimal: log-gamma, log-beta, and the regularized incomplete
beta function are all that the stationary formula and the Beta distribution
function require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "ConvergenceError",
    "Tolerance",
    "DEFAULT_TOL",
    "log_gamma",
    "log_beta",
    "reg_inc_beta",
]


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to meet its tolerance within budget."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative accuracy targets plus an iteration budget."""

    abs_eps: float = 1e-14
    rel_eps: float = 1e-14
    max_iter: int = 300

    def __post_init__(self) -> None:
        if not (self.abs_eps > 0.0):
            raise ValueError("abs_eps must be positive")
        if not (self.rel_eps > 0.0):
            raise ValueError("rel_eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_TOL = Tolerance()

_SQRT_2PI = 2.5066282746310005

# Lanczos rational approximation, g = 607/128, 14 correction terms.
# Good to ~1e-15 relative over the whole positive axis.
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
    """ln Gamma(t) for t > 0 via a fixed-coefficient Lanczos sum."""
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"log_gamma requires t > 0, got {t!r}")
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


def reg_inc_beta(x: float, a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> float:
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
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x, tol) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x, tol) / b


def _beta_cont_frac(a: float, b: float, x: float, tol: Tolerance) -> float:
    # Modified Lentz iteration for the incomplete-beta continued fraction.
    tiny = 1e-300
    eps = min(tol.abs_eps, tol.rel_eps)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, tol.max_iter + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge in {tol.max_iter} "
        f"iterations for (x={x!r}, a={a!r}, b={b!r})"
    )
