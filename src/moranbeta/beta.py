"""The continuous Beta(a,b) target of a model point: its variance and
test-function mean.

The target's shapes are the point's own a and b, so each function takes
the point, `ModelParams` or anything with rational or float `.a` and `.b`,
and is exact for rational shapes.  The CDF and density the distances need
are evaluated at the lattice atoms in `distance`.
"""

from __future__ import annotations

__all__ = ["variance", "expected_h"]


def variance(params):
    """Var Z = ab/((a+b)^2 (a+b+1))."""
    a, b = params.a, params.b
    s = a + b
    return a * b / (s * s * (s + 1))


def expected_h(params):
    """E[h(Z)] for the bump h(x) = x(1-x)/2: equals ab/(2(a+b)(1+a+b))."""
    a, b = params.a, params.b
    return a * b / (2 * (a + b) * (1 + a + b))
