"""Special-function accuracy: log-gamma, log-beta, incomplete beta."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from moranbeta import distance, special
from moranbeta.beta import BetaParams
from moranbeta.special import ConvergenceError, log_beta, log_gamma
from oracles import scalar_reg_inc_beta


def inc_beta(xs, a, b):
    """I_x(a,b) at every 0 < x < 1 of `xs`, one value at a time, as an array."""
    ln_beta = log_beta(a, b)
    return np.array([special._cdf_pdf(a, b, ln_beta, float(x))[0] for x in xs])


def lanczos_log_gamma(t):
    """The Lanczos sum of `special.log_gamma`, with no small-argument branch."""
    ser = special._LANCZOS_SER0
    y = t
    for c in special._LANCZOS_COF:
        y += 1.0
        ser += c / y
    tmp = t + special._LANCZOS_SHIFT
    tmp = (t + 0.5) * math.log(tmp) - tmp
    return tmp + math.log(special._SQRT_2PI * ser / t)


class TestLogGamma:
    def test_gamma_one_is_zero(self):
        assert abs(log_gamma(1.0)) <= 1e-15

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_gamma_six_is_120(self):
        assert log_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-14)

    @pytest.mark.parametrize("t", [0.0, -1.0, -0.5])
    def test_domain_error(self, t):
        with pytest.raises(ValueError):
            log_gamma(t)

    def test_against_libm_over_contract_domain(self):
        # relative error <= 1e-13 on (0, 1e6]; absolute floor near the
        # zeros of ln Gamma at t = 1, 2 where relative error is undefined
        rng = np.random.default_rng(20240901)
        ts = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=20000))
        for t in ts:
            assert math.isclose(
                log_gamma(float(t)), math.lgamma(float(t)),
                rel_tol=1e-13, abs_tol=1e-13,
            )

    @pytest.mark.parametrize("t", [3e-308, 2.3e-308, 1e-307, sys.float_info.min])
    def test_smallest_normal_arguments(self, t):
        # The Lanczos sum overflows below about 4.6e-307; the recurrence
        # ln Gamma(t) = ln Gamma(t + 1) - ln t takes over below 1e-300.
        assert log_gamma(t) == math.lgamma(t)

    @given(st.floats(min_value=1e-300, max_value=1e3))
    def test_lanczos_formula_from_1e_300(self, t):
        assert log_gamma(t) == lanczos_log_gamma(t)

    @given(st.floats(min_value=sys.float_info.min, max_value=1e305))
    def test_finite_for_normal_arguments(self, t):
        # ln Gamma itself exceeds the largest float above about 2.6e305.
        assert math.isfinite(log_gamma(t))

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_recurrence(self, t):
        assert abs(log_gamma(t + 1.0) - log_gamma(t) - math.log(t)) <= 1e-12


class TestLogBeta:
    def test_uniform_normalizer(self):
        assert log_beta(1.0, 1.0) == 0.0

    def test_b22(self):
        assert log_beta(2.0, 2.0) == pytest.approx(math.log(1.0 / 6.0), rel=1e-14)

    def test_half_half_is_pi(self):
        assert log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            log_beta(1.0, -2.0)

    def test_computed_once_per_shape_pair(self, monkeypatch):
        calls = []

        def counting(t):
            calls.append(t)
            return log_gamma(t)

        monkeypatch.setattr(special, "log_gamma", counting)
        p = BetaParams(0.3141592653589793, 2.718281828459045)  # used nowhere else
        # The atom pass evaluates I_x at 999 atoms with one ln B(a,b).
        distance._atoms.cache_clear()
        distance._atoms(1000, p)
        assert len(calls) <= 3
        a, b = p.a, p.b
        assert log_beta(a, b) == log_gamma(a) + log_gamma(b) - log_gamma(a + b)


class TestRegIncBeta:
    def test_uniform_cdf(self):
        xs = np.linspace(0.0, 1.0, 21)[1:-1]
        assert inc_beta(xs, 1.0, 1.0) == pytest.approx(xs, abs=1e-14)

    def test_symmetric_median(self):
        for a in (0.3, 1.0, 2.5, 7.0):
            assert inc_beta([0.5], a, a)[0] == pytest.approx(0.5, abs=1e-14)

    def test_power_law_cdf(self):
        xs = np.array([0.05, 0.3, 0.77, 0.99])
        for b in (0.5, 1.0, 3.0, 8.0):
            want = 1.0 - (1.0 - xs) ** b
            assert inc_beta(xs, 1.0, b) == pytest.approx(want, abs=1e-13)

    def test_endpoints(self):
        # The distances never evaluate I_x at x = 0 or 1: the atom pass
        # sets F_Z to exactly 0 and 1 there.
        fz = distance._atoms(4, BetaParams(3.2, 0.7))[0]
        assert fz[0] == 0.0
        assert fz[-1] == 1.0

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 401)[1:-1]
        for a, b in [(0.4, 0.7), (1.0, 5.0), (6.0, 2.3)]:
            vals = np.concatenate(([0.0], inc_beta(xs, a, b), [1.0]))
            assert (np.diff(vals) >= 0.0).all()

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_symmetry_identity(self, x, a, b):
        # one round trip makes (x, y) exactly complementary in floats;
        # otherwise the test measures rounding of 1-x, not the function
        y = 1.0 - x
        x = 1.0 - y
        assume(0.0 < x < 1.0)
        total = inc_beta([x], a, b)[0] + inc_beta([y], b, a)[0]
        assert abs(total - 1.0) <= 2e-14

    def test_against_quadrature(self):
        # independent oracle: adaptive quadrature of the density with the
        # algebraic endpoint singularity absorbed into the weight
        from scipy import integrate, special

        rng = np.random.default_rng(7)
        for _ in range(150):
            a = float(rng.uniform(0.05, 10.0))
            b = float(rng.uniform(0.05, 10.0))
            x = float(rng.uniform(0.0, 1.0))
            norm = math.exp(-special.betaln(a, b))
            if x <= 0.5:
                val, _ = integrate.quad(
                    lambda t: norm * (1.0 - t) ** (b - 1.0),
                    0.0, x, weight="alg", wvar=(a - 1.0, 0.0),
                )
            else:
                tail, _ = integrate.quad(
                    lambda t: norm * t ** (a - 1.0),
                    x, 1.0, weight="alg", wvar=(0.0, b - 1.0),
                )
                val = 1.0 - tail
            assert inc_beta([x], a, b)[0] == pytest.approx(val, abs=1e-9)

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), min_size=1, max_size=40),
        st.floats(min_value=1e-3, max_value=50.0),
        st.floats(min_value=1e-3, max_value=50.0),
    )
    def test_array_path_matches_scalar_lentz_bitwise(self, xs, a, b):
        # The package's loop with ln B(a,b) passed in equals the reference
        # one-value loop, which computes it itself, bit for bit.
        got = inc_beta(xs, a, b)
        assert got.tolist() == [scalar_reg_inc_beta(x, a, b) for x in xs]

    def test_array_budget_raises(self, monkeypatch):
        # Small x converges within the budget, x = 0.5 does not, and the
        # atom pass lets the error through.
        monkeypatch.setattr(special, "_CF_MAX_ITER", 3)
        inc_beta([1e-4, 2e-4], 4.0, 4.0)
        distance._atoms.cache_clear()
        with pytest.raises(ConvergenceError, match="x=0.5"):
            distance._atoms(2, BetaParams(4.0, 4.0))

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(special, "_CF_EPS", 1e-30)
        monkeypatch.setattr(special, "_CF_MAX_ITER", 2)
        with pytest.raises(ConvergenceError):
            inc_beta([0.4], 2.0, 3.0)

