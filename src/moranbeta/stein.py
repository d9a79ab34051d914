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
gives the headline K(a,b)/n.  The matching lower bound comes from the test
function h(x) = x(1-x)/2, whose expectation gap has an exact closed form.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .distance import gap_h
from .model import LatticeDistribution, ModelParams, stationary_ratio_product
from .special import log_gamma

__all__ = [
    "SteinReport",
    "BoundCertificate",
    "c_constant",
    "k_constant",
    "lower_bound",
    "verify_condition_1",
    "verify_condition_2",
    "s_remainder",
    "e_abs_s",
    "third_moment_ratio",
    "upper_bound_assembled",
    "bound_certificate",
    "stein_report",
]


@dataclass(frozen=True)
class SteinReport:
    """Largest condition residuals, the remainder S, and proof-level bounds.

    All rational fields are exact; both residual maxima are expected to be
    zero (the conditions are identities, not approximations).
    """

    cond1_max_abs: Fraction
    cond2_max_abs: Fraction
    s_values: tuple[Fraction, ...]
    e_abs_s_exact: Fraction
    e_abs_s_bound: Fraction
    e_cubed_over_lambda_exact: Fraction
    e_cubed_over_lambda_bound: Fraction

    @property
    def conditions_exact(self) -> bool:
        return self.cond1_max_abs == 0 and self.cond2_max_abs == 0

    @property
    def caps_ok(self) -> bool:
        """Both exact sums lie within their proof-level caps."""
        return (
            self.e_abs_s_exact <= self.e_abs_s_bound
            and self.e_cubed_over_lambda_exact <= self.e_cubed_over_lambda_bound
        )


@dataclass(frozen=True)
class BoundCertificate:
    """lower <= |E h(W) - E h(Z)| <= K(a,b)/n.

    lower and gap are exact rationals and the left inequality is checked
    exactly; upper involves Gamma values and is compared in floating point
    with 1e-12 slack.
    """

    lower: Fraction
    gap: Fraction
    upper: float
    sandwich_ok: bool


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
        raise ValueError(f"c_constant requires positive arguments, got ({a}, {b})")
    af, bf = float(a), float(b)
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
    """K(a,b) = [(9a+6b)C(a,b) + C(a+1,b+1) + (a+b)C(a+1,b+1)C(a,b)] / 12."""
    cab = c_constant(a, b)
    c11 = c_constant(a + 1, b + 1)
    af, bf = float(a), float(b)
    return ((9.0 * af + 6.0 * bf) * cab + c11 + (af + bf) * c11 * cab) / 12.0


def lower_bound(params: ModelParams) -> Fraction:
    """Certified lower bound ab / (4n(a+b)(1+a+b)^2) on the d2 distance."""
    a, b, n = params.a, params.b, params.n
    s = a + b
    return a * b / (4 * n * s * (1 + s) ** 2)


def _s_form(params: ModelParams, p: int, r: int) -> int:
    # 4nq r^2 S(p/r), an integer: 2(qa+qb)p^2 - (3qa+qb)pr + qa r^2.
    qa, qb = params.qa, params.qb
    return 2 * (qa + qb) * p * p - (3 * qa + qb) * p * r + qa * r * r


@lru_cache(maxsize=1)
def _s_numerators(params: ModelParams) -> tuple[int, ...]:
    # S(i/2n) * 2 kernel_den for i = 0..2n; kept for the point in progress,
    # which reads them for s_values, condition 2 and E|S|.
    return tuple(_s_form(params, i, 2 * params.n) for i in range(2 * params.n + 1))


def _cond1_residuals(params: ModelParams) -> tuple[Iterator[int], int]:
    # Numerators of the condition 1 residuals over their one denominator.
    m, qa, qb = 2 * params.n, params.qa, params.qb
    rows = enumerate(zip(*params.kernel_rows()))
    return (u - d - m * (qa * m - (qa + qb) * i) for i, (d, u) in rows), params.q * m * m


def _cond2_residuals(params: ModelParams) -> tuple[Iterator[int], int]:
    # Numerators of the condition 2 residuals over their one denominator.
    m, q = 2 * params.n, params.q
    rows = enumerate(zip(*params.kernel_rows(), _s_numerators(params)))
    return (u + d - 2 * q * m * i * (m - i) - s for i, (d, u, s) in rows), 2 * params.kernel_den


def verify_condition_1(params: ModelParams) -> tuple[Fraction, ...]:
    """Exact residuals of the linear-regression identity at every state.

    LHS = 4n^2 (1/2n) [p(i,i+1) - p(i,i-1)]; RHS = a - (a+b) i/(2n).
    Both sides are rational, so a correct kernel yields residuals == 0.
    """
    nums, den = _cond1_residuals(params)
    return tuple(Fraction(r, den) for r in nums)


def s_remainder(params: ModelParams, w: Fraction) -> Fraction:
    """The quadratic remainder S(w) = [2(a+b)w^2 - (3a+b)w + a] / (4n)."""
    w = Fraction(w)
    if not 0 <= w <= 1:
        raise ValueError(f"w must lie in [0,1], got {w}")
    r = w.denominator
    return Fraction(_s_form(params, w.numerator, r), 4 * params.n * params.q * r * r)


def verify_condition_2(params: ModelParams) -> tuple[Fraction, ...]:
    """Exact residuals of the quadratic identity at every state.

    LHS = 2n^2 (1/2n)^2 [p(i,i+1) + p(i,i-1)]; RHS = w(1-w) + S(w).
    """
    nums, den = _cond2_residuals(params)
    return tuple(Fraction(r, den) for r in nums)


def e_abs_s(
    params: ModelParams, pi: LatticeDistribution
) -> tuple[Fraction, Fraction]:
    """Exact E|S| under pi, together with its a-priori bound (3a+2b)/(4n)."""
    weights, total = pi.weights, pi.total
    value = sum(w * abs(s) for w, s in zip(weights, _s_numerators(params)))
    bound = (3 * params.a + 2 * params.b) / (4 * params.n)
    return Fraction(value, 2 * total * params.kernel_den), bound


def third_moment_ratio(params: ModelParams, pi: LatticeDistribution) -> Fraction:
    """Exact E|W'-W|^3 / lambda = (1/2n) sum_i pi(i)[p(i,i+1)+p(i,i-1)].

    One step moves by at most one site, so |W'-W| is either 0 or 1/(2n);
    the ratio is therefore bounded by 1/(2n), which `SteinReport.caps_ok`
    checks.
    """
    weights, total = pi.weights, pi.total
    move_mass = sum(w * (d + u) for w, d, u in zip(weights, *params.kernel_rows()))
    return Fraction(move_mass, 2 * params.n * total * params.kernel_den)


def upper_bound_assembled(params: ModelParams, rep: SteinReport) -> float:
    """The pair bound assembled from exact E|S| and E|W'-W|^3, not their caps.

    Reads both sums from `rep`.  Always at most k_constant(a,b)/n, since the
    caps only loosen it.
    """
    cab = c_constant(params.a, params.b)
    c11 = c_constant(params.a + 1, params.b + 1)
    s_term = float(rep.e_abs_s_exact)
    cubed = float(rep.e_cubed_over_lambda_exact)
    sf = float(params.a + params.b)
    return cab * s_term + (c11 + sf * c11 * cab) * cubed / 6.0


def bound_certificate(params: ModelParams) -> BoundCertificate:
    """Certified sandwich for one parameter point (see `BoundCertificate`)."""
    lo = lower_bound(params)
    gap = gap_h(params)
    upper = k_constant(params.a, params.b) / params.n
    ok = lo <= gap and float(gap) <= upper + 1e-12
    return BoundCertificate(lower=lo, gap=gap, upper=upper, sandwich_ok=ok)


def stein_report(
    params: ModelParams, pi: LatticeDistribution | None = None
) -> SteinReport:
    """Full exact verification bundle for one parameter point."""
    if pi is None:
        pi = stationary_ratio_product(params)
    (res1, den1), (res2, den2) = _cond1_residuals(params), _cond2_residuals(params)
    s_vals = tuple(Fraction(s, 2 * params.kernel_den) for s in _s_numerators(params))
    eabs, ebound = e_abs_s(params, pi)
    return SteinReport(
        cond1_max_abs=Fraction(max(map(abs, res1)), den1),
        cond2_max_abs=Fraction(max(map(abs, res2)), den2),
        s_values=s_vals,
        e_abs_s_exact=eabs,
        e_abs_s_bound=ebound,
        e_cubed_over_lambda_exact=third_moment_ratio(params, pi),
        e_cubed_over_lambda_bound=Fraction(1, 2 * params.n),
    )
