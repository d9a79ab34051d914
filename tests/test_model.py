"""Kernel, stationary law (three routes), and the oracles' sampler and chain."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from moranbeta import cli, model
from moranbeta.model import ModelParams, stationary_ratio_product
from moranbeta.stein import e_abs_s, stein_report, third_moment_ratio

import oracles
from oracles import (
    apply_kernel,
    apply_kernel_exact,
    asymptotic_variances,
    asymptotic_variances_dense,
    closed_form_log_weights,
    detailed_balance_residuals,
    exact_walk,
    from_exact,
    moment_exact,
    power_iteration_oracle,
    sample_stationary,
    simulate_chain,
    stationary_closed_form,
    tv,
)

F = Fraction

PI_N2_UNIFORM = (F(1, 7), F(8, 35), F(9, 35), F(8, 35), F(1, 7))


def transition(p, i):
    """Exact kernel row (down, stay, up) at state i, from the integer rows."""
    (down, up, _), den = p.rows, p.kernel_den
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

    def test_equal_and_hashed_by_value(self):
        p = ModelParams(3, "1/2", 2)
        same = ModelParams(3, F(1, 2), F(2))
        assert p == same and hash(p) == hash(same)
        assert len({p, same, ModelParams(4, F(1, 2), 2), ModelParams(3, 1, 2)}) == 3
        assert p != ModelParams(3, F(1, 2), 3)
        assert p != (3, F(1, 2), F(2))

    def test_cached_row_built_on_an_immutable_instance(self):
        p = ModelParams(3, F(1, 2), 2)
        with pytest.raises(AttributeError):
            p.rows = ()
        assert p.rows is p.rows
        with pytest.raises(AttributeError):
            del p.n

    def test_beta_binomial_integers(self):
        # c = q(2n - a - b), one field read by the kernel rows, the law's
        # total and the moments alike.
        p = ModelParams(5, F(1, 3), F(5, 2))
        assert (p.q, p.qa, p.qb) == (6, 2, 15)
        assert p.c == p.q * (10 - p.a - p.b) == 43
        with pytest.raises(AttributeError):
            p.c = 0

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
        # Zero or subnormal as floats, so below the floor: the Beta target
        # and its constants would see a zero shape or overflow.
        with pytest.raises(ValueError, match="must be at least 1e-300 "):
            ModelParams(10, a, b)

    def test_accepts_tiny_normal_shapes(self):
        p = ModelParams(10, "1e-300", 1)
        assert p.a == F(1, 10**300)

    def test_shape_floor_is_1e_300_as_a_float(self):
        # The one floor of the package, compared as floats: 1e-300 itself is
        # taken, the float below it refused in one line naming the floor.
        below = math.nextafter(1e-300, 0)
        for a, b in [(below, 1), (1, below)]:
            with pytest.raises(ValueError) as refusal:
                ModelParams(10, a, b)
            assert str(refusal.value) == (
                "mutation parameters must be at least 1e-300 (below it ln Gamma needs "
                f"its recurrence and W1 is rounding noise), got a={float(a)!r}, b={float(b)!r}"
            )
        assert ModelParams(10, 1e-300, 1e-300).b == F(1e-300)

    def test_rows_table_built_once(self):
        p = ModelParams(3, F(1, 2), 2)
        assert "rows" not in p.__dict__
        down, up, s = p.rows
        assert p.__dict__["rows"] is p.rows
        assert all(type(row) is tuple and len(row) == 7 for row in (down, up, s))
        # Each factored row is its quadratic in i, expanded.
        m, qa, qb, c = 6, p.qa, p.qb, p.c
        for i in range(m + 1):
            assert down[i] == m * (c + qb) * i - c * i * i
            assert up[i] == qa * m * m + m * (c - qa) * i - c * i * i
            assert s[i] == qa * m * m - (3 * qa + qb) * m * i + 2 * (qa + qb) * i * i
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

    @given(valid_params())
    @example(ModelParams(1, F(1999, 1000), F(1, 10**6)))
    @example(ModelParams(3, F(1, 10**6), F(5999, 1000)))
    def test_holding_numerator_identity(self, p):
        # The identity behind the docstring's claim that the row check in
        # ModelParams cannot fire: p(i,i) kernel_den is a sum of nonnegative
        # terms, one of them positive, whenever a + b < 2n.
        (down, up, _), m = p.rows, 2 * p.n
        qm = p.q * m
        for i in range(m + 1):
            stay = (qm - p.qb) * i * i + (qm - p.qa) * (m - i) ** 2 + (p.qa + p.qb) * i * (m - i)
            assert p.kernel_den - down[i] - up[i] == stay > 0


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
        down, up, _ = p.rows
        size = 2 * p.n + 1
        brute = [
            math.prod(up[:i]) * math.prod(down[i + 1 :]) for i in range(size)
        ]
        want = [F(w, sum(brute)) for w in brute]
        pi = stationary_ratio_product(p)
        assert pi.probs_exact == tuple(want)
        assert [float(x) for x in want] == list(pi.probs)

    def test_large_n_stays_exact(self):
        p = ModelParams(2000, F(7, 3), F(11, 5))
        pi = stationary_ratio_product(p)
        down, up, _ = p.rows
        w = exact_walk(p)
        assert all(w[i] * up[i] == w[i + 1] * down[i + 1] for i in range(2 * p.n))
        # sum_i pi(i) = 1 exactly, read off the integers: reducing 4001
        # Fractions of about 10^5 bits would take minutes.
        assert sum(w) == pi.total
        assert stein_report(pi).caps_ok


# The points the benchmark certifies: report_singular, report_exact_large
# and the 36 points of sweep_grid.
BENCHMARK_POINTS = [
    (200, F(1, 10), F(1, 10)),
    (600, F(355, 113), F(103, 37)),
    *(
        (n, F(a), F(b))
        for n in (25, 50, 100, 200)
        for a in ("0.5", "1", "2")
        for b in ("0.5", "1", "2")
    ),
]


def mirror_hex(pi):
    return [x.hex() for x in pi.probs]


def stein_floats(rep):
    return rep.e_abs_s_float, rep.e_cubed_over_lambda_float, rep.caps_ok


def spy(monkeypatch, name):
    """The argument tuples of each call to model.<name>, which still runs."""
    calls, real = [], getattr(model, name)
    monkeypatch.setattr(model, name, lambda *args: calls.append(args) or real(*args))
    return calls


# n = 1 and a = b = (2**53 + 1)/(3 2**53 - 1): pi(1) = a/(1 + a) = 1/4 + 2**-55
# exactly, the midpoint of 0.25 and the next float.
TIE_SHAPE = F(2**53 + 1, 3 * 2**53 - 1)


class TestExactPass:
    """The interval walk of `stationary_ratio_product` and its lazy
    binary-splitting sums against the tests' exact walk (`oracles.exact_walk`)."""

    @given(valid_params())
    # pi(i) rounds to 0 at 21 states and to a subnormal at 11
    @example(ModelParams(300, F(1, 7), F(599, 2)))
    @example(ModelParams(150, F(355, 113), F(103, 37)))
    @example(ModelParams(10, F(1e-30), 1))
    def test_matches_exact_walk(self, p):
        pi = stationary_ratio_product(p)
        w = exact_walk(p)
        assert pi.total == sum(w)
        # S^- = (|S| - S) / 2
        signed = sum(x * s for x, s in zip(w, p.rows[2]))
        assert 2 * pi.neg_s_sum == oracles.abs_s_sum(pi) - signed
        assert mirror_hex(pi) == [(x / pi.total).hex() for x in w]
        # The walk encloses neg_s_sum / total, both ends of the E|S| it gives
        # round to the exact value's float, and the report's floats and
        # verdict are the exact ones.
        (z_lo, z_hi), (n_lo, n_hi) = pi.enclosures
        assert F(n_lo, z_hi) <= F(pi.neg_s_sum, pi.total) <= F(n_hi, z_lo)
        e_s, s_cap = e_abs_s(pi), (3 * p.a + 2 * p.b) / (4 * p.n)
        e_c = third_moment_ratio(p)
        kd = p.kernel_den
        assert float(e_c / 2 + F(n_lo, kd * z_hi)) == float(e_s)
        assert float(e_c / 2 + F(n_hi, kd * z_lo)) == float(e_s)
        rep = stein_report(pi)
        assert stein_floats(rep) == (float(e_s), float(e_c), e_s <= s_cap and e_c <= F(1, 2 * p.n))

    @pytest.mark.parametrize(
        "n,a,b", [(150, F(355, 113), F(103, 37)), (300, F(1, 7), F(599, 2))]
    )
    def test_narrow_mirror_decides_each_state_alone(self, monkeypatch, n, a, b):
        # At 8 bits states are left undecided: each one is divided from its
        # own weight, over a total built once and not kept.
        p = ModelParams(n, a, b)
        want = stationary_ratio_product(p)
        alone, products = spy(monkeypatch, "_weight"), spy(monkeypatch, "_rising")
        monkeypatch.setattr(model, "_MIRROR_BITS", 8)
        got = stationary_ratio_product(p)
        assert alone and all(args[0] == p for args in alone)
        m = 2 * n
        assert products.count(((p.qa + p.qb) * m, p.c, m)) == 1
        assert "total" not in vars(got)
        assert mirror_hex(got) == mirror_hex(want)
        assert stein_floats(stein_report(got)) == stein_floats(stein_report(want))
        assert (got.total, got.neg_s_sum) == (want.total, want.neg_s_sum)

    def test_exact_tie_falls_back_at_default_width(self, monkeypatch, capsys):
        # No width of the walk decides the tie point's pi(1), so that state
        # alone is divided exactly.
        p = ModelParams(1, TIE_SHAPE, TIE_SHAPE)
        alone = spy(monkeypatch, "_weight")
        pi = stationary_ratio_product(p)
        assert alone == [(p, 1)]
        assert pi.probs == (0.375, 0.25, 0.375)  # the tie goes to even
        assert pi.probs_exact[1] == F(1, 4) + F(1, 2**55)
        shape = str(TIE_SHAPE)
        assert cli.main(["report", "--n", "1", "--a", shape, "--b", shape]) == 0

    @given(valid_params())
    @example(ModelParams(1, TIE_SHAPE, TIE_SHAPE))
    def test_probs_exact_are_the_walk_reduced(self, p):
        # Each state's own weight over total is the walked weight's reduced
        # fraction.
        walked = exact_walk(p)
        total = sum(walked)
        pi = stationary_ratio_product(p)
        assert pi.probs_exact == tuple(F(w, total) for w in walked)

    @given(valid_params())
    @example(ModelParams(1, TIE_SHAPE, TIE_SHAPE))
    def test_weight_alone_is_the_walked_weight(self, p):
        # The Beta-Binomial weight of one state, built alone, is the exact
        # walk's, (2n)! divided out, at every state.
        walked = exact_walk(p)
        assert [model._weight(p, i) for i in range(2 * p.n + 1)] == walked

    @given(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70), st.integers(0, 70))
    @example(5, 3, 0)
    def test_rising_is_the_product_of_its_factors(self, base, c, k):
        assert model._rising(base, c, k) == math.prod(base + c * j for j in range(k))

    @pytest.mark.parametrize(
        "ends, want",
        [((10**30, 10**30 + 1, 1, 1), 1e30), ((1, 1, 2**1074, 2**1074 + 1), 5e-324),
         ((1, 2, 2**1080, 2**1080), 0.0), ((1, 2, 1, 1), None), ((1, 1, 0, 1), None)],
        ids=["decided", "subnormal", "zero", "apart", "zero_divisor"],
    )
    def test_round_enclosed(self, ends, want):
        # RN(n/d) where both ends of the enclosure round alike, into the
        # subnormals and to 0; None where they differ or d may be 0.
        assert model._round_enclosed(*ends) == want

    def test_total_is_read_without_binary_splitting(self, monkeypatch):
        # total is the closed-form product; only neg_s_sum splits.
        ranges = []
        split = model._split
        monkeypatch.setattr(
            model, "_split", lambda *args: ranges.append(args[3:]) or split(*args)
        )
        p = ModelParams(150, F(355, 113), F(103, 37))
        pi = stationary_ratio_product(p)
        assert pi.total == sum(exact_walk(p))
        assert ranges == []
        assert pi.neg_s_sum > 0
        assert ranges[0] == (0, 301)

    @pytest.mark.parametrize("n,a,b", [(40, F(2), F(2)), (3, F(1), F(6, 5))])
    def test_no_negative_remainder_is_not_split(self, monkeypatch, n, a, b):
        # S_i < 0 only strictly between m a/(a+b) and n: at a = b, and at
        # (3, 1, 6/5), where no integer lies in (2.73, 3), there is nothing
        # to split, and neg_s_sum is the oracle's 0 with no call.
        ranges = []
        split = model._split
        monkeypatch.setattr(
            model, "_split", lambda *args: ranges.append(args[3:]) or split(*args)
        )
        p = ModelParams(n, a, b)
        pi = stationary_ratio_product(p)
        signed = sum(x * s for x, s in zip(exact_walk(p), p.rows[2]))
        assert pi.neg_s_sum == 0 == oracles.abs_s_sum(pi) - signed
        assert ranges == []

    def test_exact_sums_keep_no_larger_ints(self):
        # Once read, the two exact sums are the largest ints pi holds: not
        # (2n)! and not the undivided binary-splitting roots.
        pi = stationary_ratio_product(ModelParams(150, F(355, 113), F(103, 37)))
        bits = max(pi.total.bit_length(), pi.neg_s_sum.bit_length())
        seen, todo, widest = set(), list(vars(pi).values()), 0
        while todo:
            x = todo.pop()
            if id(x) in seen:
                continue
            seen.add(id(x))
            if isinstance(x, int):
                widest = max(widest, x.bit_length())
            elif isinstance(x, (tuple, list)):
                todo += x
            elif hasattr(x, "__dict__"):
                todo += vars(x).values()
        assert 0 < widest <= bits

    def test_state_undecided_after_decided_ones_falls_back(self, monkeypatch):
        # At 12 bits the first 21 states of (300, 599/2, 1/7) round to 0 from
        # both bounds and the 22nd is undecided: the decided states are kept,
        # and only undecided ones, from the 22nd on, are divided exactly.
        p = ModelParams(300, F(599, 2), F(1, 7))
        want = stationary_ratio_product(p)
        alone = spy(monkeypatch, "_weight")
        monkeypatch.setattr(model, "_MIRROR_BITS", 12)
        got = stationary_ratio_product(p)
        assert alone[0] == (p, 21)
        assert mirror_hex(got) == mirror_hex(want)
        assert stein_floats(stein_report(got)) == stein_floats(stein_report(want))

    def test_shift_cap_at_zero_and_subnormal_probabilities(self):
        # 6032 pi(i) round to 0 and 97 to subnormals.  Some w_i are below
        # 2**-1110 max w, so their shift against the walked total passes the
        # 1100 at which the walk stops building it; every state still rounds
        # as w_i / total does.
        p = ModelParams(5000, 4000, 5000)
        pi, w = stationary_ratio_product(p), exact_walk(p)
        assert min(w) << 1110 < max(w)
        total = sum(w)
        assert mirror_hex(pi) == [(x / total).hex() for x in w]
        assert sum(x == 0 for x in pi.probs) == 6032
        assert sum(0 < x < sys.float_info.min for x in pi.probs) == 97

    @given(
        st.integers(1, 2**300),
        st.integers(0, 2**20),
        st.integers(-50, 50),
        st.integers(1, 2**80),
        st.integers(1, 2**80),
        st.integers(8, 192),
    )
    def test_interval_step_keeps_its_bounds(self, lo, width, exp, num, den, bits):
        # One step of the mirror's walk bounds (lo, hi) * num / den from
        # below and above, with about `bits` bits left in the upper bound.
        hi = lo + width
        lo2, hi2, exp2 = model._scaled(lo, hi, exp, num, den, bits)
        scale, scale2 = F(2) ** exp, F(2) ** exp2
        assert lo2 * scale2 <= F(lo * num, den) * scale
        assert hi2 * scale2 >= F(hi * num, den) * scale
        assert bits - 1 <= hi2.bit_length() <= bits + 1

    def test_no_fallback_at_benchmark_points(self, monkeypatch):
        # Without --exact, no point of the benchmark runs the binary
        # splitting or a state's own weight, from pi to the rendered values.
        def refuse(*args):
            raise AssertionError("exact pass ran")

        monkeypatch.setattr(model, "_split", refuse)
        monkeypatch.setattr(model, "_weight", refuse)
        for n, a, b in BENCHMARK_POINTS:
            point = cli.compute_point(ModelParams(n, a, b))
            assert point.stein.ok
            assert cli._row(point, False)["e_abs_s_exact"] == point.stein.e_abs_s_float


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
            from_exact(1, (F(1, 2), F(1, 4), F(1, 8)), 1, 1)
        with pytest.raises(ValueError):
            from_exact(1, (F(1, 2), F(1, 2)), 1, 1)

    def test_moment_exact(self):
        pi = stationary_ratio_product(ModelParams(2, 1, 1))
        assert moment_exact(pi, 1) == F(1, 2)
        assert moment_exact(pi, 2) == F(7, 20)


class TestSampling:
    def test_empty(self):
        pi = stationary_ratio_product(ModelParams(2, 1, 1))
        assert len(sample_stationary(pi, seed=1, count=0)) == 0

    def test_deterministic(self):
        pi = stationary_ratio_product(ModelParams(3, 1, 2))
        x = sample_stationary(pi, seed=42, count=1000)
        y = sample_stationary(pi, seed=42, count=1000)
        assert np.array_equal(x, y)

    def test_empirical_mean_and_frequencies(self):
        p = ModelParams(2, 1, 1)
        pi = stationary_ratio_product(p)
        probs = np.array(pi.probs)
        count = 1_000_000
        draws = np.asarray(sample_stationary(pi, seed=2024, count=count))
        w_bar = draws.mean() / 4.0
        support = np.arange(5) / 4.0
        se_mean = np.sqrt(float(probs @ (support - 0.5) ** 2) / count)
        assert abs(w_bar - 0.5) <= 4 * se_mean
        freqs = np.bincount(draws, minlength=5) / count
        se = np.sqrt(probs * (1 - probs) / count)
        assert np.all(np.abs(freqs - probs) <= 5 * se)


class TestSimulateChain:
    def test_zero_steps(self):
        p = ModelParams(2, 1, 1)
        assert simulate_chain(p, start=3, steps=0, seed=0).tolist() == [3]

    def test_birth_death_increments(self):
        p = ModelParams(4, F(1, 2), 3)
        path = np.asarray(simulate_chain(p, start=4, steps=20000, seed=5))
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
        path = simulate_chain(p, start=2, steps=burn + steps, seed=77)
        path = np.asarray(path)[burn + 1 :]
        freqs = np.bincount(path, minlength=5) / steps
        batches = path[: (steps // 1000) * 1000].reshape(1000, -1)
        bf = np.stack([np.bincount(r, minlength=5) / batches.shape[1] for r in batches])
        se = bf.std(axis=0, ddof=1) / np.sqrt(1000)
        assert np.all(np.abs(freqs - pi.probs) <= 5 * se)


MIXING_SHAPES = [
    (F(1), F(1)), (F(1, 10), F(1, 10)), (F(1, 2), F(3, 2)),
    (F(355, 113), F(103, 37)), (F(1, 7), F(5)), (F(7, 3), F(11, 5)),
]


class TestIactBound:
    """Error bars for the chain's occupation frequencies: tau = 8n^2/(a+b) - 1
    bounds every state's asymptotic variance by tau pi_i (1 - pi_i)."""

    @pytest.mark.parametrize("a, b", MIXING_SHAPES)
    @pytest.mark.parametrize("n", [3, 7, 20])
    def test_second_eigenvalue_is_condition_1s(self, n, a, b):
        # The kernel is similar to a symmetric tridiagonal matrix, with
        # off-diagonal sqrt(p(i,i+1) p(i+1,i)).
        p = ModelParams(n, a, b)
        down, stay, up = oracles.float_kernel(p)
        sym = np.diag(stay) + np.diag(np.sqrt(up[:-1] * down[1:]), 1)
        eigs = np.linalg.eigvalsh(sym + np.triu(sym, 1).T)
        lam2 = 1 - (a + b) / (4 * n * n)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert eigs[-2] == pytest.approx(float(lam2), abs=1e-12)
        assert (1 + lam2) / (1 - lam2) == 8 * F(n) ** 2 / (a + b) - 1

    @pytest.mark.parametrize(
        "n, a, b",
        [
            (n, a, b)
            for n in (2, 5)
            for a, b in MIXING_SHAPES + [(F(6), F(1, 10))]
            if a + b < 2 * n
        ],
    )
    def test_closed_form_variance_matches_fundamental_matrix(self, n, a, b):
        pi = stationary_ratio_product(ModelParams(n, a, b))
        assert asymptotic_variances(pi) == asymptotic_variances_dense(pi)

    @given(valid_params())
    @example(ModelParams(50, 20, F(1, 10)))
    @example(ModelParams(30, F(1, 10), F(1, 10)))
    def test_variances_within_the_bound(self, p):
        pi = stationary_ratio_product(p)
        tau = 8 * F(p.n) ** 2 / (p.a + p.b) - 1
        for var, q in zip(asymptotic_variances(pi), pi.probs_exact):
            assert 0 <= var <= tau * q * (1 - q)
