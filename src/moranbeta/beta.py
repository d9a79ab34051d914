"""The continuous Beta(a,b) target of a model point: its variance.

The target's shapes are the point's own a and b, so the function takes
the point, `ModelParams` or anything with rational or float `.a` and `.b`,
and is exact for rational shapes.  The test-function gap `distance.gap_h`
reads the target through this variance alone, and the CDF and density the
distances need are evaluated at the lattice atoms in `distance`.
"""

from __future__ import annotations

__all__ = ["variance"]


def variance(params):
    """Var Z = ab/((a+b)^2 (a+b+1))."""
    a, b = params.a, params.b
    s = a + b
    return a * b / (s * s * (s + 1))
