"""Kernel, stationary law (three routes), sampling, and simulation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from moranbeta.model import (
    ModelParams,
    sample_stationary,
    simulate_chain,
    stationary_ratio_product,
)
from moranbeta.stein import stein_report

import oracles
from oracles import (
    apply_kernel,
    apply_kernel_exact,
    closed_form_log_weights,
    detailed_balance_residuals,
    from_exact,
    moment_exact,
    power_iteration_oracle,
    stationary_closed_form,
    tv,
)

F = Fraction

PI_N2_UNIFORM = (F(1, 7), F(8, 35), F(9, 35), F(8, 35), F(1, 7))


def transition(p, i):
    """Exact kernel row (down, stay, up) at state i, from the integer rows."""
    (down, up), den = p.kernel_rows(), p.kernel_den
    return tuple(F(x, den) for x in (down[i], den - down[i] - up[i], up[i]))


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

    @pytest.mark.parametrize(
        "a,b", [("1e-400", 1), (1, "1e-400"), ("1e-310", 1), (1, "1e-310")]
    )
    def test_rejects_shapes_below_normal_float(self, a, b):
        # Zero or subnormal as floats: the Beta target and its constants
        # would see a zero shape or overflow.
        with pytest.raises(ValueError, match="smallest normal float"):
            ModelParams(10, a, b)

    def test_accepts_tiny_normal_shapes(self):
        p = ModelParams(10, "1e-300", 1)
        assert p.a == F(1, 10**300)

    def test_kernel_rows_built_once(self):
        p = ModelParams(3, F(1, 2), 2)
        down, up = p.kernel_rows()
        assert p.kernel_rows() is p.kernel_rows()
        assert isinstance(down, tuple) and isinstance(up, tuple)
        assert p == ModelParams(3, F(1, 2), 2)
        assert repr(p) == "ModelParams(n=3, a=Fraction(1, 2), b=Fraction(2, 1))"


class TestTransition:
    def test_left_boundary(self):
        p = ModelParams(3, 2, 1)
        down, stay, up = transition(p, 0)
        assert down == 0 and up == p.v and stay == 1 - p.v

    def test_right_boundary(self):
        p = ModelParams(3, 2, 1)
        down, stay, up = transition(p, 2 * p.n)
        assert up == 0 and down == p.u and stay == 1 - p.u

    def test_interior_value(self):
        # [1*3*(3/4) + (1/4)*1]/16 = 5/32 at i=1 for n=2, a=b=1
        down, _, up = transition(ModelParams(2, 1, 1), 1)
        assert down == F(5, 32)
        assert up == F(9, 32)

    @given(valid_params())
    def test_rows_sum_to_one_exactly(self, p):
        for i in range(2 * p.n + 1):
            down, stay, up = transition(p, i)
            assert down + stay + up == 1
            assert 0 <= down <= 1 and 0 <= stay <= 1 and 0 <= up <= 1


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

    @given(valid_params())
    @example(ModelParams(1, F(1, 2), F(1, 3)))
    @example(ModelParams(1, F(9973, 10**4), F(9999, 9973)))
    def test_walk_matches_ratio_product_definition(self, p):
        # pi(i) proportional to prod_{k<i} U_k prod_{k>i} D_k, built the
        # slow way from the kernel rows and compared as reduced fractions.
        down, up = p.kernel_rows()
        size = 2 * p.n + 1
        brute = [
            math.prod(up[:i]) * math.prod(down[i + 1 :]) for i in range(size)
        ]
        want = [F(w, sum(brute)) for w in brute]
        pi = stationary_ratio_product(p)
        assert pi.probs_exact == tuple(want)
        assert [float(x) for x in want] == pi.probs.tolist()

    def test_large_n_stays_exact(self):
        p = ModelParams(2000, F(7, 3), F(11, 5))
        pi = stationary_ratio_product(p)
        down, up = p.kernel_rows()
        w = pi.weights
        assert all(w[i] * up[i] == w[i + 1] * down[i + 1] for i in range(2 * p.n))
        # sum_i pi(i) = 1 exactly, read off the integers: reducing 4001
        # Fractions of about 10^5 bits would take minutes.
        assert sum(w) == pi.total
        assert stein_report(p, pi).caps_ok


class TestStationaryClosedForm:
    @pytest.mark.parametrize(
        "n,a,b",
        [(2, 1, 1), (5, 2, 3), (10, F(1, 2), F(1, 2)), (50, 5, 1), (20, F(7, 4), 3)],
    )
    def test_matches_ratio_product(self, n, a, b):
        p = ModelParams(n, a, b)
        exact = stationary_ratio_product(p)
        gamma = stationary_closed_form(p)
        assert tv(exact.probs, gamma) <= 1e-12
        assert np.abs(exact.probs - gamma).max() <= 1e-12

    def test_unnormalized_weights_sum_to_one(self):
        # the pi(0) prefactor makes the raw closed-form weights a
        # probability vector already; exponentiate and check directly
        for n, a, b in [(2, 1, 1), (10, 2, 5), (40, F(1, 2), F(3, 2))]:
            logw = closed_form_log_weights(ModelParams(n, a, b))
            assert float(np.exp(logw).sum()) == pytest.approx(1.0, abs=1e-10)

    def test_renormalized_sum(self):
        pi = stationary_closed_form(ModelParams(9, F(3, 2), F(5, 2)))
        assert abs(pi.sum() - 1.0) <= 1e-15


class TestPowerIteration:
    def test_reference_point(self):
        p = ModelParams(2, 1, 1)
        pi = power_iteration_oracle(p)
        want = np.array([float(x) for x in PI_N2_UNIFORM])
        assert np.abs(pi - want).max() <= 1e-10

    def test_fixed_point_residual(self):
        p = ModelParams(2, 1, 1)
        pi = power_iteration_oracle(p)
        assert np.abs(apply_kernel(p, pi) - pi).sum() <= 1e-12

    def test_invariant_under_one_more_step(self):
        p = ModelParams(4, F(1, 2), 2)
        pi = power_iteration_oracle(p)
        stepped = apply_kernel(p, pi)
        assert 0.5 * np.abs(stepped - pi).sum() <= 1e-13

    def test_non_convergence_budget(self, monkeypatch):
        from moranbeta.special import ConvergenceError

        monkeypatch.setattr(oracles, "_POWER_MAX_SWEEPS", 3)
        with pytest.raises(ConvergenceError):
            power_iteration_oracle(ModelParams(5, 1, 1))

    @pytest.mark.parametrize("n,a,b", [(3, 1, 2), (10, F(1, 2), F(1, 2))])
    def test_three_routes_pairwise_agree(self, n, a, b):
        p = ModelParams(n, a, b)
        exact = stationary_ratio_product(p)
        gamma = stationary_closed_form(p)
        power = power_iteration_oracle(p)
        assert tv(exact.probs, gamma) <= 1e-10
        assert tv(exact.probs, power) <= 1e-10
        assert tv(gamma, power) <= 1e-10


class TestLatticeDistribution:
    def test_from_exact_validates(self):
        with pytest.raises(ValueError):
            from_exact(1, (F(1, 2), F(1, 4), F(1, 8)))
        with pytest.raises(ValueError):
            from_exact(1, (F(1, 2), F(1, 2)))

    def test_moment_exact(self):
        pi = stationary_ratio_product(ModelParams(2, 1, 1))
        assert moment_exact(pi, 1) == F(1, 2)
        assert moment_exact(pi, 2) == F(7, 20)


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
        support = np.arange(5) / 4.0
        se_mean = np.sqrt(float(pi.probs @ (support - 0.5) ** 2) / count)
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
