"""Exchangeable-pair verification and error certificates.

Choosing I from the stationary law and letting I' be one chain step gives
an exchangeable pair (W, W') = (I/(2n), I'/(2n)) by reversibility.  With
lambda = 1/(4n^2) the pair satisfies, exactly,

    (1/lambda)   E[W'-W | W]     = (a+b) (a/(a+b) - W)          (condition 1)
    (1/2 lambda) E[(W'-W)^2 | W] = W(1-W) + S                   (condition 2)

with remainder S = [2(a+b)W^2 - (3a+b)W + a] / (4n).  Both identities are
verified state by state in rational arithmetic.  The exchangeable-pair
framework for Beta targets then bounds the smooth-test (d2) distance by

    C(a,b) E|S| + (C(a+1,b+1) + (a+b) C(a+1,b+1) C(a,b)) E|W'-W|^3 / (6 lambda),

which, after bounding E|S| <= (3a+2b)/(4n) and E|W'-W|^3/lambda <= 1/(2n),
gives the headline K(a,b)/n.  With s = a+b and mu = a/s, condition 1 gives
E(W'-W)^2 = 2 lambda s Var W, so E|W'-W|^3/lambda = s Var W / n exactly, and
S = s (W - mu)(W - 1/2)/(2n) has E S = s Var W / (2n), so E|S| = E S + 2 E S^-
with S^- = max(-S, 0) nonzero only strictly between mu and 1/2.  The matching
lower bound comes from the test function h(x) = x(1-x)/2, whose expectation
gap has an exact closed form.  One record, `stein_report`'s `SteinReport`,
holds the whole certificate of a point: the identities, the caps, the
sandwich lower <= gap <= K(a,b)/n, the pair bound assembled from the exact
sums, and the verdict `ok` that the CLI's exit code 1 reads.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .distance import gap_h
from .model import LatticeDistribution, ModelParams, _round_enclosed
from .moments import variance
from .special import _as_float, _decimal_text, log_gamma

__all__ = [
    "SteinReport",
    "c_constant",
    "k_constant",
    "lower_bound",
    "e_abs_s",
    "third_moment_ratio",
    "stein_report",
]


class SteinReport(NamedTuple):
    """The certificate of the point `pi.params`, whose law `pi` it keeps,
    and its verdict `ok`.

    Both residual maxima are exact and expected to be zero (the conditions
    are identities, not approximations).  The `_float` fields hold E|S|
    and E|W'-W|^3/lambda, each correctly rounded; `caps_ok` says if both
    are within their `_bound`s, and `upper_assembled` is the pair bound
    from those sums, not their caps.  `sandwich_ok` compares the exact
    `lower` <= `gap` <= `upper` = K(a,b)/n with no slack: a Fraction compares
    with a float by the float's exact binary value.  `e_abs_s_exact` runs
    pi's exact pass.
    """

    cond1_max_abs: Fraction
    cond2_max_abs: Fraction
    e_abs_s_float: float
    e_abs_s_bound: Fraction
    e_cubed_over_lambda_float: float
    e_cubed_over_lambda_bound: Fraction
    caps_ok: bool
    lower: Fraction
    gap: Fraction
    upper: float
    upper_assembled: float
    sandwich_ok: bool
    pi: LatticeDistribution

    @property
    def e_abs_s_exact(self) -> Fraction:
        return e_abs_s(self.pi)

    @property
    def conditions_exact(self) -> bool:
        return self.cond1_max_abs == 0 and self.cond2_max_abs == 0

    @property
    def ok(self) -> bool:
        """The verdict behind exit code 1 of `report` and `sweep`: both
        exact identities, both proof-level caps and the sandwich hold."""
        return self.conditions_exact and self.caps_ok and self.sandwich_ok


def _exp_or_inf(x: float) -> float:
    """exp(x), or inf where it is past the largest float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def c_constant(a, b) -> float:
    """The four-branch approximation constant C(a,b) (C(a,a) on the diagonal).

    Diagonal: 4 for 0 < a < 1, else 2a sqrt(pi) Gamma(a)/Gamma(a+1/2).
    Off-diagonal: 2(a+b) times Gamma(a)Gamma(b)/Gamma(a+b), 1/a, 1/b, or
    Gamma(a+b)/(ab Gamma(a)Gamma(b)) according to which shapes exceed 1.
    A Gamma ratio past the largest float makes C inf.
    """
    if a <= 0 or b <= 0:
        shown = ", ".join(map(_decimal_text, (a, b)))
        raise ValueError(f"c_constant requires positive arguments, got ({shown})")
    af, bf = _as_float(a, "c_constant"), _as_float(b, "c_constant")
    if a == b:
        if af < 1.0:
            return 4.0
        return 2.0 * af * math.sqrt(math.pi) * math.exp(
            log_gamma(af) - log_gamma(af + 0.5)
        )
    s = 2.0 * (af + bf)
    if a <= 1 and b <= 1:
        return s * _exp_or_inf(log_gamma(af) + log_gamma(bf) - log_gamma(af + bf))
    if a <= 1 < b:
        return s / af
    if b <= 1 < a:
        return s / bf
    return s * _exp_or_inf(log_gamma(af + bf) - log_gamma(af) - log_gamma(bf)) / (af * bf)


def k_constant(a, b) -> float:
    """K(a,b) = [(9a+6b)C(a,b) + C(a+1,b+1) + (a+b)C(a+1,b+1)C(a,b)] / 12.

    C(a,b) >= 2 once a + b >= 2, so K >= (a+b) C(a,b) / 2 >= a + b.  Where
    a + b is past the largest float, K is inf, returned before a shape's
    float conversion can raise or a Gamma ratio take inf - inf.
    """
    if a + b > sys.float_info.max:
        return math.inf
    cab = c_constant(a, b)
    c11 = c_constant(a + 1, b + 1)
    af, bf = float(a), float(b)
    return ((9.0 * af + 6.0 * bf) * cab + c11 + (af + bf) * c11 * cab) / 12.0


def lower_bound(params: ModelParams) -> Fraction:
    """Certified lower bound ab / (4n(a+b)(1+a+b)^2) on the d2 distance."""
    a, b, n = params.a, params.b, params.n
    s = a + b
    return a * b / (4 * n * s * (1 + s) ** 2)


def _cond1_residuals(params: ModelParams) -> tuple[Iterator[int], int]:
    # Numerators of the condition 1 residuals over their one denominator.
    m, qa, qb = 2 * params.n, params.qa, params.qb
    rows = enumerate(zip(*params.rows[:2]))
    return (u - d - m * (qa * m - (qa + qb) * i) for i, (d, u) in rows), params.q * m * m


def _cond2_residuals(params: ModelParams) -> tuple[Iterator[int], int]:
    # Numerators of the condition 2 residuals over their one denominator.
    m, q = 2 * params.n, params.q
    rows = enumerate(zip(*params.rows))
    return (u + d - 2 * q * m * i * (m - i) - s for i, (d, u, s) in rows), 2 * params.kernel_den


def e_abs_s(pi: LatticeDistribution) -> Fraction:
    """Exact E|S| under pi, at its point `pi.params`; its a-priori cap
    (3a+2b)/(4n) is `SteinReport.e_abs_s_bound`.

    E|S| = E S + 2 E S^-, with E S half of `third_moment_ratio` and 2 E S^-
    = neg_s_sum / (kernel_den total), pi's closed-form total and its one
    binary-splitting sum.  `stein_report` calls this only where pi's
    enclosure leaves E|S| or its cap verdict undecided (see `_decided`).
    """
    e_neg = Fraction(pi.neg_s_sum, pi.total * pi.params.kernel_den)
    return third_moment_ratio(pi.params) / 2 + e_neg


def third_moment_ratio(params: ModelParams) -> Fraction:
    """Exact E|W'-W|^3 / lambda = (a+b) Var W / n, below its cap 1/(2n) as
    (a+b) Var W < 1/4 whenever a + b < 2n; `SteinReport.caps_ok` still
    compares the two exactly."""
    return (params.a + params.b) * variance(params) / params.n


def _decided(num, total, scale: int, cap: Fraction, exact) -> tuple[float, bool]:
    # RN(x) and x <= cap for x = N / (scale total), N and total in the
    # enclosures `num` and `total`: RN(x) by `_round_enclosed`, and the cap
    # compared with each end exactly.  Where either is undecided, both come
    # from `exact()`, the Fraction x (Ziv 1991).
    (n_lo, n_hi), (z_lo, z_hi) = num, total
    x = _round_enclosed(n_lo, n_hi, scale * z_lo, scale * z_hi)
    if x is not None:
        p, q = cap.numerator, cap.denominator
        upper_ok, lower_ok = n_hi * q <= p * scale * z_lo, n_lo * q <= p * scale * z_hi
        if upper_ok == lower_ok:
            return x, upper_ok
    x = exact()
    return float(x), x <= cap


def stein_report(pi: LatticeDistribution) -> SteinReport:
    """The certificate of the point `pi.params`: the conditions exactly,
    the cube term in closed form, E|S| = E S + neg_s_sum / (kernel_den
    total) and its cap off pi's enclosures, or where undecided from the
    exact pass, and the sandwich from `lower_bound`, `gap_h` and
    `k_constant`, read from this module's globals when called."""
    params = pi.params
    a, b, n = params.a, params.b, params.n
    (res1, den1), (res2, den2) = _cond1_residuals(params), _cond2_residuals(params)
    ((z_lo, z_hi), (n_lo, n_hi)), kd = pi.enclosures, params.kernel_den
    s_cap, cube_cap = (3 * a + 2 * b) / (4 * n), Fraction(1, 2 * n)
    cube = third_moment_ratio(params)
    p, q = (cube / 2).as_integer_ratio()
    num = (p * kd * z_hi + q * n_lo, p * kd * z_lo + q * n_hi)
    eabs, s_ok = _decided(num, (z_lo, z_hi), q * kd, s_cap, lambda: e_abs_s(pi))
    cube_float = float(cube)
    cab, c11 = c_constant(a, b), c_constant(a + 1, b + 1)
    assembled = cab * eabs + (c11 + float(a + b) * c11 * cab) * cube_float / 6.0
    lower, gap, upper = lower_bound(params), gap_h(params), k_constant(a, b) / n
    return SteinReport(
        Fraction(max(map(abs, res1)), den1), Fraction(max(map(abs, res2)), den2),
        eabs, s_cap, cube_float, cube_cap, s_ok and cube <= cube_cap,
        lower, gap, upper, assembled, lower <= gap <= upper, pi,
    )
