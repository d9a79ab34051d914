"""The continuous Beta(a,b) target: density, CDF, moments, test-function mean."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .special import DEFAULT_TOL, Tolerance, log_beta, reg_inc_beta

__all__ = ["BetaParams", "pdf", "cdf", "moments", "variance", "expected_h"]

Shape = Union[int, float, Fraction]


@dataclass(frozen=True)
class BetaParams:
    """Shape pair of the Beta target; exact moments when shapes are rational."""

    a: Shape
    b: Shape

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"Beta shapes must be positive, got ({self.a}, {self.b})")


def pdf(p: BetaParams, x: float) -> float:
    """Density x^(a-1)(1-x)^(b-1)/B(a,b) on (0,1), zero outside [0,1].

    At an endpoint the one-sided limit is returned, which is +inf when the
    adjacent shape is below 1; callers that multiply it by a vanishing
    factor must treat the endpoints themselves.
    """
    a, b = float(p.a), float(p.b)
    x = float(x)
    if x < 0.0 or x > 1.0:
        return 0.0
    if x == 0.0:
        if a < 1.0:
            return math.inf
        return b if a == 1.0 else 0.0
    if x == 1.0:
        if b < 1.0:
            return math.inf
        return a if b == 1.0 else 0.0
    return math.exp(
        (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_beta(a, b)
    )


def cdf(p: BetaParams, x: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Distribution function: 0 below 0, 1 above 1, I_x(a,b) in between."""
    x = float(x)
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return reg_inc_beta(x, float(p.a), float(p.b), tol)


def moments(p: BetaParams, r: int) -> Shape:
    """E[Z^r] as the rising-factorial product prod_{k<r} (a+k)/(a+b+k).

    Exact (Fraction in, Fraction out) for rational shapes; overflow-free.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"moment order must be a positive integer, got {r!r}")
    a, b = p.a, p.b
    out = a / (a + b)
    for k in range(1, r):
        out *= (a + k) / (a + b + k)
    return out


def variance(p: BetaParams) -> Shape:
    """Var Z = ab/((a+b)^2 (a+b+1)), exact for rational shapes."""
    a, b = p.a, p.b
    s = a + b
    return a * b / (s * s * (s + 1))


def expected_h(p: BetaParams) -> Shape:
    """E[h(Z)] for the bump h(x) = x(1-x)/2: equals ab/(2(a+b)(1+a+b))."""
    a, b = p.a, p.b
    return a * b / (2 * (a + b) * (1 + a + b))
