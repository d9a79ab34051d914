"""Exact moments of the rescaled stationary count W = I/(2n).

The stationary count I is Beta-Binomial(m, alpha, beta) with m = 2n,
alpha = m a/(m - a - b) and beta = m b/(m - a - b) (Ewens 2004), so its
factorial moments are products, E[(I)_k] = (m)_k alpha^(k) / (alpha+beta)^(k)
with rising factorials ^(k), and the power moments follow through the
Stirling numbers of the second kind.  The mean and variance also have
closed forms.  Everything here is exact rational arithmetic.
"""

from __future__ import annotations

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


def moment_recursion(params: ModelParams) -> dict[int, Fraction]:
    """Exact E[W^r], keyed by r = 1..8, the moments `report` prints, from
    the factorial moments.

    With c = `params.c` = q(m - a - b), alpha + j = (qa m + c j)/c and
    alpha + beta + j = ((qa+qb) m + c j)/c, so

        E[(I)_k] = prod_{j<k} (m-j)(qa m + c j) / prod_{j<k} ((qa+qb) m + c j),

    integer products over a denominator that divides the next one.  Then
    E[W^r] = m^-r sum_k S(r,k) E[(I)_k], with S(r,k) = k S(r-1,k) +
    S(r-1,k-1), as one Fraction per moment.
    """
    m, qa, qs, c = 2 * params.n, params.qa, params.qa + params.qb, params.c
    num, den = [1], [1]  # E[(I)_k] = num[k] / den[k]
    for j in range(8):
        num.append(num[-1] * (m - j) * (qa * m + c * j))
        den.append(den[-1] * (qs * m + c * j))
    values: dict[int, Fraction] = {}
    stirling = [1]  # S(r, k) for k = 0..r
    for r in range(1, len(num)):
        stirling = [k * x + y for k, (x, y) in enumerate(zip(stirling + [0], [0] + stirling))]
        top = sum(s * x * (den[r] // d) for s, x, d in zip(stirling, num, den))
        values[r] = Fraction(top, den[r] * m**r)
    return values
