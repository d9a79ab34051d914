"""Acceptance suite: every headline guarantee at its stated tolerance.

Each criterion is one test that prints a PASS line on success (run with
`pytest -v -s` to see them).  Grids combine the shape set {1/2, 1, 2, 5}
with population scales; combinations violating the validity constraint
a + b < 2n are excluded, since constructing them is (correctly) an error.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from moranbeta.beta import variance as beta_variance
from moranbeta.distance import gap_h
from moranbeta.model import ModelParams, stationary_ratio_product
from moranbeta.moments import mean, moment_recursion, variance
from moranbeta.special import _cdf_pdf, log_beta
from moranbeta.stein import (
    _cond1_residuals,
    _cond2_residuals,
    e_abs_s,
    k_constant,
    lower_bound,
    stein_report,
    third_moment_ratio,
)
from oracles import (
    Shapes,
    apply_kernel,
    apply_kernel_exact,
    detailed_balance_residuals,
    moment_exact,
    sample_stationary,
    simulate_chain,
    stationary_closed_form,
    tv,
)

F = Fraction

SHAPES = (F(1, 2), F(1), F(2), F(5))

EXACT_GRID = [
    (n, a, b)
    for n in (2, 5, 10, 50)
    for a in SHAPES
    for b in SHAPES
    if a + b < 2 * n
]

SWEEP_NS = (10, 25, 50, 100, 200, 400, 800)
SWEEP_GRID = [(n, a, b) for n in SWEEP_NS for a in SHAPES for b in SHAPES]

RATE_NS = (25, 50, 100, 200, 400, 800)


def report(number: int, message: str) -> None:
    print(f"criterion {number:02d} PASS: {message}")


def test_criterion_01_condition1_exact():
    for n, a, b in EXACT_GRID:
        residuals, _ = _cond1_residuals(ModelParams(n, a, b))
        assert all(r == 0 for r in residuals), (n, a, b)
    report(1, f"linear condition residuals exactly zero at {len(EXACT_GRID)} grid points")


def test_criterion_02_condition2_exact():
    for n, a, b in EXACT_GRID:
        residuals, _ = _cond2_residuals(ModelParams(n, a, b))
        assert all(r == 0 for r in residuals), (n, a, b)
    report(2, f"quadratic condition residuals exactly zero at {len(EXACT_GRID)} grid points")


def test_criterion_03_detailed_balance_exact():
    for n, a, b in EXACT_GRID:
        p = ModelParams(n, a, b)
        pi = stationary_ratio_product(p)
        assert all(r == 0 for r in detailed_balance_residuals(p, pi)), (n, a, b)
    report(3, "detailed balance pi(i)p(i,i+1) = pi(i+1)p(i+1,i) exact on the grid")


def test_criterion_04_variance_formula_exact():
    assert variance(ModelParams(2, 1, 1)) == F(1, 10)
    for n, a, b in EXACT_GRID:
        p = ModelParams(n, a, b)
        pi = stationary_ratio_product(p)
        assert variance(p) == moment_exact(pi, 2) - mean(p) ** 2, (n, a, b)
    report(4, "variance closed form equals exact summation; Var = 1/10 at (2,1,1)")


def test_criterion_05_moment_recursion_vs_brute_force():
    points = [(n, a, b) for (n, a, b) in EXACT_GRID if n <= 10]
    for n, a, b in points:
        p = ModelParams(n, a, b)
        pi = stationary_ratio_product(p)
        table = moment_recursion(p)
        for r in range(1, 7):
            assert table[r] == moment_exact(pi, r), (n, a, b, r)
        assert table[1] == mean(p)
        assert table[2] == variance(p) + mean(p) ** 2
    report(5, f"moment recursion equals brute force for r <= 6 at {len(points)} points")


def test_criterion_06_distance_sandwich():
    assert len(SWEEP_GRID) >= 100
    for n, a, b in SWEEP_GRID:
        p = ModelParams(n, a, b)
        assert lower_bound(p) <= gap_h(p) <= k_constant(a, b) / n, (n, a, b)
    for n, a, b in EXACT_GRID:
        rep = stein_report(stationary_ratio_product(ModelParams(n, a, b)))
        assert rep.sandwich_ok, (n, a, b, rep.lower, rep.gap, rep.upper)
    spot = stein_report(stationary_ratio_product(ModelParams(2, 1, 1)))
    assert spot.lower == Fraction(1, 144)
    assert spot.gap == Fraction(1, 120)
    assert spot.upper == pytest.approx(4.5, rel=1e-13, abs=0)
    report(
        6,
        f"lower <= gap <= K/n on {len(SWEEP_GRID)} grid points, certified by "
        f"stein_report on {len(EXACT_GRID)}; spot values match",
    )


def test_criterion_07_proof_level_inequalities():
    for n, a, b in EXACT_GRID:
        p = ModelParams(n, a, b)
        pi = stationary_ratio_product(p)
        assert e_abs_s(pi) <= (3 * a + 2 * b) / (4 * n), (n, a, b)
        tmr = third_moment_ratio(p)
        assert tmr <= F(1, 2 * n), (n, a, b)
    report(7, "E|S| <= (3a+2b)/(4n) and E|W'-W|^3/lambda <= 1/(2n) exactly on the grid")


def test_criterion_08_rate_recovery():
    logs_n = np.log(np.array(RATE_NS, dtype=float))
    for a in SHAPES:
        for b in SHAPES:
            gaps = [float(gap_h(ModelParams(n, a, b))) for n in RATE_NS]
            slope = float(np.polyfit(logs_n, np.log(gaps), 1)[0])
            assert -1.05 <= slope <= -0.95, (a, b, slope)
    report(8, "log-log slope of the gap is -1.00 within +/-0.05 for all 16 shape pairs")


def test_criterion_09_closed_form_pi_validation():
    ns = (2, 5, 10, 50, 200, 500)
    grid = [(n, a, b) for n in ns for a in SHAPES for b in SHAPES if a + b < 2 * n]
    worst_tv, worst_res = 0.0, 0.0
    for n, a, b in grid:
        p = ModelParams(n, a, b)
        exact = stationary_ratio_product(p)
        gamma = stationary_closed_form(p)
        worst_tv = max(worst_tv, tv(exact.probs, gamma))
        assert tv(exact.probs, gamma) <= 1e-10, (n, a, b)
        res_gamma = float(np.abs(apply_kernel(p, gamma) - gamma).sum())
        res_exact = float(np.abs(apply_kernel(p, exact.probs) - exact.probs).sum())
        worst_res = max(worst_res, res_gamma, res_exact)
        assert res_gamma <= 1e-12 and res_exact <= 1e-12, (n, a, b)
        if n <= 10:
            assert apply_kernel_exact(p, exact.probs_exact) == exact.probs_exact
    report(
        9,
        f"gamma-formula pi matches ratio products (worst TV {worst_tv:.2e}) and both "
        f"are kernel fixed points (worst residual {worst_res:.2e})",
    )


def test_criterion_10_variance_converges_to_beta():
    for a in SHAPES:
        for b in SHAPES:
            limit = beta_variance(Shapes(a, b))
            diffs = [abs(variance(ModelParams(n, a, b)) - limit) for n in SWEEP_NS]
            assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:])), (a, b)
            fitted_c = max(n * d for n, d in zip(SWEEP_NS, diffs))
            assert math.isfinite(float(fitted_c))
            assert all(d <= fitted_c / n for n, d in zip(SWEEP_NS, diffs))
    report(10, "|Var(W) - Beta variance| <= C/n with finite fitted C, monotone in n")


def test_criterion_11_special_function_accuracy():
    from scipy import integrate, special

    rng = np.random.default_rng(20240902)
    worst_quad, worst_sym = 0.0, 0.0
    for _ in range(1000):
        a = float(rng.uniform(0.01, 10.0))
        b = float(rng.uniform(0.01, 10.0))
        x = float(rng.uniform(0.0, 1.0))
        y = 1.0 - x
        x = 1.0 - y  # exactly complementary pair in floats
        norm = math.exp(-special.betaln(a, b))
        if x <= 0.5:
            oracle, _ = integrate.quad(
                lambda t: norm * (1.0 - t) ** (b - 1.0),
                0.0, x, weight="alg", wvar=(a - 1.0, 0.0),
            )
        else:
            tail, _ = integrate.quad(
                lambda t: norm * t ** (a - 1.0),
                x, 1.0, weight="alg", wvar=(0.0, b - 1.0),
            )
            oracle = 1.0 - tail
        ln_beta = log_beta(a, b)
        mine = _cdf_pdf(a, b, ln_beta, x)[0]
        worst_quad = max(worst_quad, abs(mine - oracle))
        assert abs(mine - oracle) <= 1e-9, (x, a, b)
        sym = abs(mine + _cdf_pdf(b, a, ln_beta, y)[0] - 1.0)
        worst_sym = max(worst_sym, sym)
        assert sym <= 2e-14, (x, a, b)
    report(
        11,
        f"incomplete beta vs quadrature (worst {worst_quad:.2e} <= 1e-9) and "
        f"symmetry identity (worst {worst_sym:.2e} <= 2e-14) on 1000 points",
    )


def test_criterion_12_monte_carlo_consistency():
    p = ModelParams(10, 1, 1)
    pi = stationary_ratio_product(p)
    probs = np.array(pi.probs)
    size = 2 * p.n + 1
    count = 1_000_000

    draws = np.asarray(sample_stationary(pi, seed=20240903, count=count))
    freqs = np.bincount(draws, minlength=size) / count
    se = np.sqrt(probs * (1.0 - probs) / count)
    iid_units = float(np.abs(freqs - probs).max() / se.min())
    assert np.all(np.abs(freqs - probs) <= 5 * se)

    burn, steps = 10_000, 1_000_000
    path = simulate_chain(p, start=p.n, steps=burn + steps, seed=20240904)
    path = np.asarray(path)[burn + 1:]
    occ = np.bincount(path, minlength=size) / steps
    batches = path[: (steps // 1000) * 1000].reshape(1000, -1)
    bf = np.stack([np.bincount(r, minlength=size) / batches.shape[1] for r in batches])
    se_chain = bf.std(axis=0, ddof=1) / np.sqrt(1000)
    assert np.all(np.abs(occ - probs) <= 5 * se_chain)
    report(
        12,
        "1e6 stationary draws and 1e6 chain steps match exact pi within 5 SE per state",
    )
