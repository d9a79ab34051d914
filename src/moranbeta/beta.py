"""The continuous Beta(a,b) target: its shapes, variance and test-function mean.

The CDF and density the distances need are evaluated at the lattice atoms
in `distance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = ["BetaParams", "variance", "expected_h"]

Shape = Union[int, float, Fraction]


@dataclass(frozen=True)
class BetaParams:
    """Shape pair of the Beta target; exact values for rational shapes."""

    a: Shape
    b: Shape

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"Beta shapes must be positive, got ({self.a}, {self.b})")


def variance(p: BetaParams) -> Shape:
    """Var Z = ab/((a+b)^2 (a+b+1)), exact for rational shapes."""
    a, b = p.a, p.b
    s = a + b
    return a * b / (s * s * (s + 1))


def expected_h(p: BetaParams) -> Shape:
    """E[h(Z)] for the bump h(x) = x(1-x)/2: equals ab/(2(a+b)(1+a+b))."""
    a, b = p.a, p.b
    return a * b / (2 * (a + b) * (1 + a + b))
