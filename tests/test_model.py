"""Kernel, stationary law (three routes), sampling, and simulation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from moranbeta.model import (
    LatticeDistribution,
    ModelParams,
    apply_kernel,
    apply_kernel_exact,
    detailed_balance_residuals,
    power_iteration_oracle,
    sample_stationary,
    simulate_chain,
    stationary_closed_form,
    stationary_ratio_product,
    transition,
)
from moranbeta.special import Tolerance

F = Fraction

PI_N2_UNIFORM = (F(1, 7), F(8, 35), F(9, 35), F(8, 35), F(1, 7))


@st.composite
def valid_params(draw):
    # Coprime shape denominators up to 10^4, so q = lcm(den a, den b), the
    # kernel's common denominator factor, reaches 10^8.
    n = draw(st.integers(min_value=2, max_value=15))
    den_a = draw(st.integers(1, 10**4))
    den_b = draw(st.integers(1, 10**4).filter(lambda d: math.gcd(d, den_a) == 1))
    a = F(draw(st.integers(1, 20 * den_a)), den_a)
    b = F(draw(st.integers(1, 20 * den_b)), den_b)
    assume(a + b < 2 * n)
    return ModelParams(n, a, b)


class TestModelParams:
    def test_derived_rates(self):
        p = ModelParams(2, 1, 1)
        assert p.u == F(1, 4) and p.v == F(1, 4) and p.lam == F(1, 16)

    def test_from_rates_round_trip(self):
        p = ModelParams.from_rates(5, u=F(1, 20), v=F(3, 20))
        assert p.a == F(3, 2) and p.b == F(1, 2)
        assert p.u == F(1, 20) and p.v == F(3, 20)

    def test_accepts_strings_and_decimals(self):
        p = ModelParams(4, "1/2", "0.25")
        assert p.a == F(1, 2) and p.b == F(1, 4)

    @pytest.mark.parametrize(
        "n,a,b",
        [(2, 0, 1), (2, 1, 0), (2, -1, 1), (2, 1, 3), (2, 2, 2), (5, 5, 5)],
    )
    def test_rejects_invalid_regime(self, n, a, b):
        with pytest.raises(ValueError):
            ModelParams(n, a, b)

    @pytest.mark.parametrize("n", [0, -1, 2.0, True])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            ModelParams(n, 1, 1)


class TestTransition:
    def test_left_boundary(self):
        p = ModelParams(3, 2, 1)
        t = transition(p, 0)
        assert t.down == 0 and t.up == p.v and t.stay == 1 - p.v

    def test_right_boundary(self):
        p = ModelParams(3, 2, 1)
        t = transition(p, 2 * p.n)
        assert t.up == 0 and t.down == p.u and t.stay == 1 - p.u

    def test_interior_value(self):
        # [1*3*(3/4) + (1/4)*1]/16 = 5/32 at i=1 for n=2, a=b=1
        t = transition(ModelParams(2, 1, 1), 1)
        assert t.down == F(5, 32)
        assert t.up == F(9, 32)

    def test_out_of_range(self):
        p = ModelParams(2, 1, 1)
        with pytest.raises(IndexError):
            transition(p, -1)
        with pytest.raises(IndexError):
            transition(p, 5)

    @given(valid_params())
    def test_rows_sum_to_one_exactly(self, p):
        for i in range(2 * p.n + 1):
            t = transition(p, i)
            assert t.down + t.stay + t.up == 1
            assert t.down >= 0 and t.stay >= 0 and t.up >= 0


class TestStationaryRatioProduct:
    def test_reference_point(self):
        pi = stationary_ratio_product(ModelParams(2, 1, 1))
        assert pi.probs_exact == PI_N2_UNIFORM

    def test_sums_to_one_exactly(self):
        pi = stationary_ratio_product(ModelParams(7, F(5, 2), F(1, 3)))
        assert sum(pi.probs_exact) == 1

    @given(valid_params())
    def test_detailed_balance_exact(self, p):
        pi = stationary_ratio_product(p)
        assert all(r == 0 for r in detailed_balance_residuals(p, pi))

    def test_symmetry_when_rates_match(self):
        p = ModelParams(6, F(7, 3), F(7, 3))
        probs = stationary_ratio_product(p).probs_exact
        assert probs == probs[::-1]

    def test_exact_fixed_point(self):
        p = ModelParams(5, 2, 3)
        pi = stationary_ratio_product(p)
        assert apply_kernel_exact(p, pi.probs_exact) == pi.probs_exact


class TestStationaryClosedForm:
    @pytest.mark.parametrize(
        "n,a,b",
        [(2, 1, 1), (5, 2, 3), (10, F(1, 2), F(1, 2)), (50, 5, 1), (20, F(7, 4), 3)],
    )
    def test_matches_ratio_product(self, n, a, b):
        p = ModelParams(n, a, b)
        exact = stationary_ratio_product(p)
        gamma = stationary_closed_form(p)
        assert exact.tv(gamma) <= 1e-12
        assert np.abs(exact.probs - gamma.probs).max() <= 1e-12

    def test_unnormalized_weights_sum_to_one(self):
        # the pi(0) prefactor makes the raw closed-form weights a
        # probability vector already; exponentiate and check directly
        from moranbeta.model import closed_form_log_weights

        for n, a, b in [(2, 1, 1), (10, 2, 5), (40, F(1, 2), F(3, 2))]:
            logw = closed_form_log_weights(ModelParams(n, a, b))
            assert float(np.exp(logw).sum()) == pytest.approx(1.0, abs=1e-10)

    def test_renormalized_sum(self):
        pi = stationary_closed_form(ModelParams(9, F(3, 2), F(5, 2)))
        assert abs(pi.probs.sum() - 1.0) <= 1e-15


class TestPowerIteration:
    def test_reference_point(self):
        p = ModelParams(2, 1, 1)
        pi = power_iteration_oracle(p)
        want = np.array([float(x) for x in PI_N2_UNIFORM])
        assert np.abs(pi.probs - want).max() <= 1e-10

    def test_fixed_point_residual(self):
        p = ModelParams(2, 1, 1)
        pi = power_iteration_oracle(p)
        assert np.abs(apply_kernel(p, pi.probs) - pi.probs).sum() <= 1e-12

    def test_invariant_under_one_more_step(self):
        p = ModelParams(4, F(1, 2), 2)
        pi = power_iteration_oracle(p)
        stepped = apply_kernel(p, pi.probs)
        assert 0.5 * np.abs(stepped - pi.probs).sum() <= 1e-13

    def test_non_convergence_budget(self):
        from moranbeta.special import ConvergenceError

        with pytest.raises(ConvergenceError):
            power_iteration_oracle(
                ModelParams(5, 1, 1), Tolerance(abs_eps=1e-14, max_iter=3)
            )

    @pytest.mark.parametrize("n,a,b", [(3, 1, 2), (10, F(1, 2), F(1, 2))])
    def test_three_routes_pairwise_agree(self, n, a, b):
        p = ModelParams(n, a, b)
        exact = stationary_ratio_product(p)
        gamma = stationary_closed_form(p)
        power = power_iteration_oracle(p)
        assert exact.tv(gamma) <= 1e-10
        assert exact.tv(power) <= 1e-10
        assert gamma.tv(power) <= 1e-10


class TestLatticeDistribution:
    def test_from_exact_validates(self):
        with pytest.raises(ValueError):
            LatticeDistribution.from_exact(1, (F(1, 2), F(1, 4), F(1, 8)))
        with pytest.raises(ValueError):
            LatticeDistribution.from_exact(1, (F(1, 2), F(1, 2)))

    def test_moment_exact(self):
        pi = stationary_ratio_product(ModelParams(2, 1, 1))
        assert pi.moment_exact(1) == F(1, 2)
        assert pi.moment_exact(2) == F(7, 20)

    def test_support(self):
        pi = stationary_ratio_product(ModelParams(2, 1, 1))
        assert np.allclose(pi.support, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert pi.w(3) == F(3, 4)


class TestSampling:
    def test_empty(self):
        pi = stationary_ratio_product(ModelParams(2, 1, 1))
        assert sample_stationary(pi, seed=1, count=0).size == 0

    def test_deterministic(self):
        pi = stationary_ratio_product(ModelParams(3, 1, 2))
        x = sample_stationary(pi, seed=42, count=1000)
        y = sample_stationary(pi, seed=42, count=1000)
        assert np.array_equal(x, y)

    def test_empirical_mean_and_frequencies(self):
        p = ModelParams(2, 1, 1)
        pi = stationary_ratio_product(p)
        count = 1_000_000
        draws = sample_stationary(pi, seed=2024, count=count)
        w_bar = draws.mean() / 4.0
        se_mean = np.sqrt(float(pi.probs @ (pi.support - 0.5) ** 2) / count)
        assert abs(w_bar - 0.5) <= 4 * se_mean
        freqs = np.bincount(draws, minlength=5) / count
        se = np.sqrt(pi.probs * (1 - pi.probs) / count)
        assert np.all(np.abs(freqs - pi.probs) <= 5 * se)


class TestSimulateChain:
    def test_zero_steps(self):
        p = ModelParams(2, 1, 1)
        assert simulate_chain(p, start=3, steps=0, seed=0).tolist() == [3]

    def test_birth_death_increments(self):
        p = ModelParams(4, F(1, 2), 3)
        path = simulate_chain(p, start=4, steps=20000, seed=5)
        steps = np.diff(path)
        assert np.abs(steps).max() <= 1
        assert path.min() >= 0 and path.max() <= 8

    def test_deterministic(self):
        p = ModelParams(3, 1, 1)
        x = simulate_chain(p, start=0, steps=500, seed=9)
        y = simulate_chain(p, start=0, steps=500, seed=9)
        assert np.array_equal(x, y)

    def test_bad_start(self):
        with pytest.raises(IndexError):
            simulate_chain(ModelParams(2, 1, 1), start=9, steps=1, seed=0)

    def test_occupation_matches_pi(self):
        # long-run ergodic average vs exact pi, batch-means standard errors
        p = ModelParams(2, 1, 1)
        pi = stationary_ratio_product(p)
        burn, steps = 10_000, 1_000_000
        path = simulate_chain(p, start=2, steps=burn + steps, seed=77)[burn + 1 :]
        freqs = np.bincount(path, minlength=5) / steps
        batches = path[: (steps // 1000) * 1000].reshape(1000, -1)
        bf = np.stack([np.bincount(r, minlength=5) / batches.shape[1] for r in batches])
        se = bf.std(axis=0, ddof=1) / np.sqrt(1000)
        assert np.all(np.abs(freqs - pi.probs) <= 5 * se)
