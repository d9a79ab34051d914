"""Special-function accuracy: log-gamma, log-beta, incomplete beta."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moranbeta import special
from moranbeta.beta import BetaParams, cdf
from moranbeta.special import (
    ConvergenceError,
    Tolerance,
    log_beta,
    log_gamma,
    reg_inc_beta,
)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.abs_eps == 1e-14 and tol.max_iter == 300

    @pytest.mark.parametrize(
        "kwargs",
        [{"abs_eps": 0.0}, {"abs_eps": -1e-3}, {"rel_eps": 0.0}, {"max_iter": 0}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)


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
        for k in range(1000):
            cdf(p, (k + 0.5) / 1000)
        assert len(calls) <= 3
        a, b = p.a, p.b
        assert log_beta(a, b) == log_gamma(a) + log_gamma(b) - log_gamma(a + b)


class TestRegIncBeta:
    def test_uniform_cdf(self):
        for x in np.linspace(0.0, 1.0, 21):
            assert reg_inc_beta(float(x), 1.0, 1.0) == pytest.approx(x, abs=1e-14)

    def test_symmetric_median(self):
        for a in (0.3, 1.0, 2.5, 7.0):
            assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-14)

    def test_power_law_cdf(self):
        for b in (0.5, 1.0, 3.0, 8.0):
            for x in (0.05, 0.3, 0.77, 0.99):
                want = 1.0 - (1.0 - x) ** b
                assert reg_inc_beta(x, 1.0, b) == pytest.approx(want, abs=1e-13)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 3.2, 0.7) == 0.0
        assert reg_inc_beta(1.0, 3.2, 0.7) == 1.0

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 401)
        for a, b in [(0.4, 0.7), (1.0, 5.0), (6.0, 2.3)]:
            vals = [reg_inc_beta(float(x), a, b) for x in xs]
            assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

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
        total = reg_inc_beta(x, a, b) + reg_inc_beta(y, b, a)
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
            assert reg_inc_beta(x, a, b) == pytest.approx(val, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 1.0, -1.0)

    def test_non_convergence_raises(self):
        tiny_budget = Tolerance(abs_eps=1e-30, rel_eps=1e-30, max_iter=2)
        with pytest.raises(ConvergenceError):
            reg_inc_beta(0.4, 2.0, 3.0, tol=tiny_budget)
