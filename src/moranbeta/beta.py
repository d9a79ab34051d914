"""The continuous Beta(a,b) target: its shapes, variance and test-function mean.

The CDF and density the distances need are evaluated at the lattice atoms
in `distance`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

__all__ = ["BetaParams", "variance", "expected_h"]

Shape = Union[int, float, Fraction]


class BetaParams(NamedTuple("BetaParams", [("a", Shape), ("b", Shape)])):
    """Shape pair of the Beta target; exact values for rational shapes.

    Immutable, and equal and hashed by value: `distance._atoms` compares
    its slot's shapes with it.
    """

    __slots__ = ()

    def __new__(cls, a: Shape, b: Shape) -> BetaParams:
        if not (a > 0 and b > 0):
            raise ValueError(f"Beta shapes must be positive, got ({a}, {b})")
        return super().__new__(cls, a, b)


def variance(p: BetaParams) -> Shape:
    """Var Z = ab/((a+b)^2 (a+b+1)), exact for rational shapes."""
    a, b = p.a, p.b
    s = a + b
    return a * b / (s * s * (s + 1))


def expected_h(p: BetaParams) -> Shape:
    """E[h(Z)] for the bump h(x) = x(1-x)/2: equals ab/(2(a+b)(1+a+b))."""
    a, b = p.a, p.b
    return a * b / (2 * (a + b) * (1 + a + b))
