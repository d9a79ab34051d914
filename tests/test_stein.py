"""Exchangeable-pair conditions, constants, and bound certificates."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from moranbeta import stein
from moranbeta.model import ModelParams, stationary_ratio_product
from moranbeta.moments import variance
from moranbeta.special import log_gamma
from moranbeta.stein import (
    c_constant,
    e_abs_s,
    k_constant,
    lower_bound,
    stein_report,
    third_moment_ratio,
)
import oracles
from oracles import detailed_balance_residuals, moment_exact

F = Fraction

EXACT_GRID = [
    (n, a, b)
    for n in (2, 5, 10, 50)
    for a in (F(1, 2), 1, 2, 5)
    for b in (F(1, 2), 1, 2, 5)
    if a + b < 2 * n
]


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


def residuals(generator, p):
    """The residual numerators of one condition at every state."""
    nums, _ = generator(p)
    return list(nums)


def s_exact(p):
    """S(i/2n), i = 0..2n, as exact Fractions."""
    return [F(s, 2 * p.kernel_den) for s in p.rows[2]]


class TestCConstant:
    def test_diagonal_below_one(self):
        assert c_constant(0.5, 0.5) == 4.0
        assert c_constant(0.2, 0.2) == 4.0

    def test_diagonal_at_one_agrees_with_offdiagonal_family(self):
        # both the a=b formula and the a<=1,b<=1 factor give exactly 4 here
        diag = c_constant(1, 1)
        off_family = 2 * (1 + 1) * math.exp(
            log_gamma(1.0) + log_gamma(1.0) - log_gamma(2.0)
        )
        assert diag == pytest.approx(4.0, rel=1e-13, abs=0)
        assert off_family == pytest.approx(4.0, rel=1e-13, abs=0)

    def test_diagonal_above_one(self):
        assert c_constant(2, 2) == pytest.approx(16.0 / 3.0, rel=1e-13, abs=0)
        assert c_constant(1.5, 1.5) == pytest.approx(1.5 * math.pi, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "a,b,factor",
        [
            (0.5, 0.8, math.gamma(0.5) * math.gamma(0.8) / math.gamma(1.3)),
            (0.5, 2.0, 1 / 0.5),
            (3.0, 0.7, 1 / 0.7),
            (2.0, 5.0, math.gamma(7.0) / (2.0 * 5.0 * math.gamma(2.0) * math.gamma(5.0))),
        ],
    )
    def test_offdiagonal_branches(self, a, b, factor):
        assert c_constant(a, b) == pytest.approx(2 * (a + b) * factor, rel=1e-12, abs=0)

    def test_gamma_ratio_overflow_is_inf(self):
        # Gamma(1201)/(Gamma(600)Gamma(601)) is about e^832, past the
        # largest float; K(a,b) then reads inf instead of raising.
        assert c_constant(600, 601) == math.inf
        assert k_constant(600, 601) == math.inf
        assert math.isfinite(c_constant(300, 301))
        # Gamma(a) at a subnormal a overflows in the both-below-one branch.
        assert c_constant(1e-310, 1) == math.inf

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            c_constant(0, 1)
        with pytest.raises(ValueError):
            c_constant(1, -1)
        with pytest.raises(ValueError, match=r"got \(-1\.0{16}e\+5000, 0\.5\)$"):
            c_constant(-F(10) ** 5000, F(1, 2))

    @pytest.mark.parametrize("a, b", [(F(10) ** 400, 1), (F(1, 2), 10**400)])
    def test_shape_past_the_largest_float_is_a_value_error(self, a, b):
        # Not float()'s OverflowError: a ValueError naming the shape.
        with pytest.raises(ValueError, match=r"^c_constant .* got 1\.0{16}e\+400$"):
            c_constant(a, b)


class TestKConstant:
    def test_unit_shapes(self):
        assert k_constant(1, 1) == pytest.approx(9.0, rel=1e-13, abs=0)

    def test_half_shapes(self):
        # (7.5*4 + 3pi/2 + 1*(3pi/2)*4)/12 with C(1.5,1.5) = 3pi/2
        want = (30.0 + 7.5 * math.pi) / 12.0
        assert k_constant(0.5, 0.5) == pytest.approx(want, rel=1e-13, abs=0)

    def test_positive_on_grid(self):
        for a in (0.3, 1.0, 2.0, 5.0):
            for b in (0.5, 1.5, 4.0):
                assert k_constant(a, b) > 0

    @pytest.mark.parametrize(
        "a,b",
        [(F(10) ** 400, 1), (F(1, 2), F(10) ** 400), (1e308, 1e308), (1e308, F(8e307))],
        ids=["a_past", "b_past", "sum_past_floats", "sum_past_mixed"],
    )
    def test_inf_past_the_largest_float(self, a, b):
        # K >= a + b once a + b >= 2, so where a, b or a + b is past the
        # largest float K is inf: not an OverflowError from a shape's float,
        # nor nan from Gamma ratios of inf - inf.
        assert k_constant(a, b) == math.inf


class TestLowerBound:
    def test_spot_values(self):
        assert lower_bound(ModelParams(2, 1, 1)) == F(1, 144)
        assert lower_bound(ModelParams(10, 1, 1)) == F(1, 720)

    def test_doubling_n_halves(self):
        a, b = F(3, 2), F(5, 2)
        assert lower_bound(ModelParams(20, a, b)) == lower_bound(ModelParams(10, a, b)) / 2


class TestConditions:
    def test_condition1_boundaries(self):
        p = ModelParams(3, 2, 1)
        res = residuals(stein._cond1_residuals, p)
        assert res[0] == 0 and res[-1] == 0

    def test_exact_zero_on_grid(self):
        for n, a, b in EXACT_GRID:
            p = ModelParams(n, a, b)
            assert all(r == 0 for r in residuals(stein._cond1_residuals, p))
            assert all(r == 0 for r in residuals(stein._cond2_residuals, p))

    @given(valid_params())
    def test_exact_zero_property(self, p):
        assert all(r == 0 for r in residuals(stein._cond1_residuals, p))
        assert all(r == 0 for r in residuals(stein._cond2_residuals, p))

    @given(valid_params())
    def test_exchangeability(self, p):
        pi = stationary_ratio_product(p)
        assert all(r == 0 for r in detailed_balance_residuals(p, pi))


class TestSRemainder:
    def test_at_zero(self):
        p = ModelParams(5, F(3, 2), 2)
        assert s_exact(p)[0] == p.a / (4 * p.n)

    def test_at_one(self):
        # 2(a+b) - (3a+b) + a = b, so S(1) = b/(4n); 1/8 at (n=2, a=b=1)
        p = ModelParams(2, 1, 1)
        assert s_exact(p)[-1] == F(1, 8)
        q = ModelParams(5, F(3, 2), 2)
        assert s_exact(q)[-1] == q.b / (4 * q.n)

    def test_at_half_symmetric(self):
        assert s_exact(ModelParams(2, 1, 1))[2] == 0

    def test_sign_can_flip(self):
        # roots at ((3a+b) +- |a-b|)/(4(a+b)); between them S < 0
        values = s_exact(ModelParams(5, 1, 2))  # S(i/10), i = 0..10
        assert any(v < 0 for v in values) and any(v > 0 for v in values)


class TestExpectations:
    def test_e_abs_s_spot(self):
        p = ModelParams(2, 1, 1)
        pi = stationary_ratio_product(p)
        assert e_abs_s(pi) == F(1, 20)

    def test_e_abs_s_bound_on_grid(self):
        for n, a, b in EXACT_GRID:
            p = ModelParams(n, a, b)
            pi = stationary_ratio_product(p)
            assert e_abs_s(pi) <= (3 * a + 2 * b) / (4 * n)

    def test_third_moment_spot(self):
        assert third_moment_ratio(ModelParams(2, 1, 1)) == F(1, 10)

    def test_third_moment_bound_and_identity(self):
        # The grid, plus one point whose q = lcm(113, 37) is odd and large.
        points = [(n, a, b) for n, a, b in EXACT_GRID if n <= 10]
        for n, a, b in points + [(150, F(355, 113), F(103, 37))]:
            p = ModelParams(n, a, b)
            pi = stationary_ratio_product(p)
            tmr = third_moment_ratio(p)
            assert 0 <= tmr <= F(1, 2 * n)
            # quadratic identity route: tmr = (1/n) E[W(1-W) + S]
            e_w1w = moment_exact(pi, 1) - moment_exact(pi, 2)
            s = s_exact(p)
            e_s = sum((pr * si for pr, si in zip(pi.probs_exact, s)), F(0))
            assert tmr == (e_w1w + e_s) / n
            # E|S| as a Fraction sum over probs_exact
            e_abs = sum((pr * abs(si) for pr, si in zip(pi.probs_exact, s)), F(0))
            assert e_abs_s(pi) == e_abs


class TestClosedForms:
    """Both Stein sums from the paper's identities against the state-by-state
    sums over the exact weights: E|W'-W|^3/lambda = (a+b) Var W / n, and
    E|S| = E S + 2 E S^- with E S half of it."""

    @given(valid_params())
    @example(ModelParams(1, F(1, 3), F(1, 2)))  # n = 1
    @example(ModelParams(1, F(7, 10), F(7, 10)))  # n = 1, a = b
    @example(ModelParams(5, F(3, 7), 1))  # 2n mu = 3; S < 0 at state 4 only
    @example(ModelParams(5, 1, F(3, 7)))  # 2n mu = 7; S < 0 at state 6 only
    @example(ModelParams(6, F(5, 2), F(7, 2)))  # 2n mu = 5; S < 0 nowhere
    @example(ModelParams(150, F(355, 113), F(103, 37)))
    def test_match_state_sums(self, p):
        pi = stationary_ratio_product(p)
        kd, total = p.kernel_den, pi.total
        assert third_moment_ratio(p) == F(oracles.move_sum(pi), 2 * p.n * kd * total)
        assert e_abs_s(pi) == F(oracles.abs_s_sum(pi), 2 * kd * total)

    @given(
        st.integers(1, 15),
        st.fractions(min_value=F(1, 10**4), max_value=15, max_denominator=10**4),
    )
    @example(1, F(1, 2))
    @example(4, F(7, 3))
    def test_symmetric_has_no_negative_part(self, n, a):
        assume(a < n)
        p = ModelParams(n, a, a)
        pi = stationary_ratio_product(p)
        assert pi.enclosures[1] == (0, 0)
        assert pi.neg_s_sum == 0
        e_s = e_abs_s(pi)
        assert e_s == 2 * a * variance(p) / (2 * n)
        assert e_s == F(oracles.abs_s_sum(pi), 2 * p.kernel_den * pi.total)


class TestDecided:
    """`stein._decided`: a value and its cap verdict from an enclosure, or
    from the exact value where the enclosure leaves either undecided."""

    # Both ends of [10**30, 10**30 + 1] round to the float 1e30.
    NUM, TOTAL = (10**30, 10**30 + 1), (1, 1)

    @pytest.mark.parametrize("x", [F(10**30), F(10**30 + 1)])
    def test_cap_inside_interval_takes_exact_comparison(self, x):
        cap = F(2 * 10**30 + 1, 2)
        calls = []
        got = stein._decided(self.NUM, self.TOTAL, 1, cap, lambda: calls.append(x) or x)
        assert calls == [x]
        assert got == (float(x), x <= cap)

    @pytest.mark.parametrize("cap, ok", [(F(10**30 + 1), True), (F(10**30 - 1), False)])
    def test_cap_outside_interval_is_decided(self, cap, ok):
        def exact():
            raise AssertionError("exact value read")

        assert stein._decided(self.NUM, self.TOTAL, 1, cap, exact) == (1e30, ok)

    def test_ends_rounding_apart_take_exact_value(self):
        x = F(3, 2)
        assert stein._decided((1, 2), (1, 1), 1, F(10), lambda: x) == (1.5, True)


def report_at(n, a, b):
    return stein_report(stationary_ratio_product(ModelParams(n, a, b)))


class TestUpperBound:
    def test_assembled_spot(self):
        assert report_at(2, 1, 1).upper_assembled == pytest.approx(1.0, abs=1e-12)

    def test_assembled_below_headline(self):
        for n, a, b in EXACT_GRID:
            if n > 10:
                continue
            rep = report_at(n, a, b)
            assert rep.upper_assembled <= k_constant(a, b) / n + 1e-12
            assert rep.upper == k_constant(a, b) / n

    def test_assembled_improves_with_n(self):
        for a, b in [(F(1, 2), F(1, 2)), (1, 1), (2, 5)]:
            prev = None
            for n in (5, 10, 20, 40):
                cur = report_at(n, a, b).upper_assembled
                if prev is not None:
                    assert cur <= prev + 1e-12
                prev = cur


class TestCertificate:
    def test_spot(self):
        rep = report_at(2, 1, 1)
        assert rep.lower == F(1, 144)
        assert rep.gap == F(1, 120)
        assert rep.upper == pytest.approx(4.5, rel=1e-13, abs=0)
        assert rep.sandwich_ok and rep.ok

    def test_sandwich_on_grid(self):
        for n, a, b in EXACT_GRID:
            rep = report_at(n, a, b)
            assert rep.sandwich_ok and rep.ok, (n, a, b)
            assert rep.lower == lower_bound(rep.pi.params)
            assert rep.gap == stein.gap_h(rep.pi.params)

    def test_lower_side_compared_exactly(self, monkeypatch):
        # Above the gap by less than any float slack would forgive.
        p = ModelParams(7, F(1, 2), 3)
        gap = stein.gap_h(p)
        monkeypatch.setattr(stein, "lower_bound", lambda params: gap + F(1, 10**13))
        rep = stein_report(stationary_ratio_product(p))
        assert rep.sandwich_ok is False and rep.ok is False
        assert rep.conditions_exact and rep.caps_ok

    def test_invariant_matches_fields(self):
        # Both sides compared exactly, with no float slack: the Fraction gap
        # against the float upper's exact binary value.
        rep = report_at(7, F(1, 2), 3)
        assert rep.sandwich_ok == (rep.lower <= rep.gap <= F(rep.upper))
        assert rep.ok == (rep.conditions_exact and rep.caps_ok and rep.sandwich_ok)


class TestReport:
    def test_bundle(self):
        p = ModelParams(2, 1, 1)
        rep = stein_report(stationary_ratio_product(p))
        assert p.lam == F(1, 16)
        assert rep.conditions_exact
        assert tuple(s_exact(p)) == (F(1, 8), F(1, 32), F(0), F(1, 32), F(1, 8))
        assert rep.e_abs_s_exact == F(1, 20)
        assert rep.e_abs_s_bound == F(5, 8)
        assert third_moment_ratio(p) == F(1, 10)
        assert rep.e_cubed_over_lambda_bound == F(1, 4)
        assert rep.cond1_max_abs == 0 and rep.cond2_max_abs == 0

    def test_s_numerators_built_once(self, monkeypatch):
        # The walk, the exact pass and the conditions all read the one table
        # ModelParams.rows, built on first read and kept.
        built = []
        real = ModelParams.__dict__["rows"].func
        spy = functools.cached_property(lambda params: built.append(params) or real(params))
        spy.__set_name__(ModelParams, "rows")
        monkeypatch.setattr(ModelParams, "rows", spy)
        p = ModelParams(5, 1, 2)
        rep = stein_report(stationary_ratio_product(p))
        assert rep.e_abs_s_exact > 0
        assert rep.pi.neg_s_sum > 0  # some S_i < 0: the split read the table too
        assert built == [p]
        assert p.rows is p.rows
        with pytest.raises(AttributeError):
            p.rows = p.rows
        assert rep.conditions_exact and rep.caps_ok

    @given(valid_params())
    def test_s_numerators_are_the_closed_form(self, p):
        # The table against the paper's quadratic, computed independently:
        # S(W) = s (W - mu)(W - 1/2)/(2n), with s = a + b and mu = a/s.
        s, m = p.a + p.b, 2 * p.n
        mu = p.a / s
        values = s_exact(p)
        assert len(values) == m + 1
        for i, value in enumerate(values):
            w = F(i, m)
            assert value == s * (w - mu) * (w - F(1, 2)) / m
