"""Exact moments of the rescaled stationary count W = I/(2n).

The mean and variance have closed forms; higher moments come from a
recursion exploiting exchangeability of one chain step under the
stationary law: E[(I')^r - I^r | I] is a polynomial of degree r in I
(the degree r+1 terms cancel), and its stationary expectation vanishes,
so E[W^r] is a rational function of the lower moments.  Everything here
is exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import ModelParams

__all__ = ["mean", "variance", "moment_recursion"]


def mean(params: ModelParams) -> Fraction:
    """E[W] = a/(a+b), exactly the Beta mean."""
    return params.a / (params.a + params.b)


def variance(params: ModelParams) -> Fraction:
    """Var W = 2abn / ((a+b)^2 (2n + (a+b)(2n-1))).

    Converges to the Beta variance ab/((a+b)^2(a+b+1)) from above as n grows.
    """
    a, b, n = params.a, params.b, params.n
    s = a + b
    return 2 * a * b * n / (s * s * (2 * n + s * (2 * n - 1)))


def moment_recursion(params: ModelParams, r_max: int = 8) -> dict[int, Fraction]:
    """Exact E[W^r], keyed by r = 1..r_max, via the one-step expectation identity.

    For each r, expands

        E[(I')^r - I^r | I = i]
            = p(i,i+1)((i+1)^r - i^r) + p(i,i-1)((i-1)^r - i^r)

    symbolically through binomial coefficients into a polynomial in i whose
    leading (degree r) coefficient is nonzero, sets the stationary
    expectation to zero, and solves for E[W^r] in terms of lower moments.
    """
    if not isinstance(r_max, int) or r_max < 1:
        raise ValueError(f"r_max must be a positive integer, got {r_max!r}")
    m = 2 * params.n
    # The kernel's integer quadratics; their common denominator cancels.
    down, up = params.down_poly, params.up_poly
    values: dict[int, Fraction] = {0: Fraction(1)}
    for r in range(1, r_max + 1):
        coef = [0] * (r + 2)
        for k in range(r):
            binom = math.comb(r, k)
            sign = -1 if (r - k) % 2 else 1
            for d in range(3):
                coef[k + d] += binom * (up[d] + sign * down[d])
        if coef[r + 1] != 0:
            raise ArithmeticError(
                f"degree {r + 1} terms failed to cancel at order {r}"
            )
        lead = coef[r]
        if lead == 0:
            raise ArithmeticError(f"vanishing leading coefficient at order {r}")
        # sum_j coef[j] E[I^j] = 0 with E[I^j] = (2n)^j E[W^j]
        acc = sum(
            (coef[j] * m**j * values[j] for j in range(r)), Fraction(0)
        )
        values[r] = -acc / (lead * m**r)
    del values[0]
    return values
