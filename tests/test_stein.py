"""Exchangeable-pair conditions, constants, and bound certificates."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from moranbeta import stein
from moranbeta.model import ModelParams, stationary_ratio_product
from moranbeta.special import log_gamma
from moranbeta.stein import (
    bound_certificate,
    c_constant,
    e_abs_s,
    k_constant,
    lower_bound,
    s_remainder,
    stein_report,
    third_moment_ratio,
    upper_bound_assembled,
    verify_condition_1,
    verify_condition_2,
)
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


class TestConditionMaxima:
    @given(valid_params())
    def test_report_maxima_match_residual_tuples(self, p):
        rep = stein_report(p)
        assert rep.cond1_max_abs == max(map(abs, verify_condition_1(p)))
        assert rep.cond2_max_abs == max(map(abs, verify_condition_2(p)))


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
        assert diag == pytest.approx(4.0, rel=1e-13)
        assert off_family == pytest.approx(4.0, rel=1e-13)

    def test_diagonal_above_one(self):
        assert c_constant(2, 2) == pytest.approx(16.0 / 3.0, rel=1e-13)
        assert c_constant(1.5, 1.5) == pytest.approx(1.5 * math.pi, rel=1e-13)

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
        assert c_constant(a, b) == pytest.approx(2 * (a + b) * factor, rel=1e-12)

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


class TestKConstant:
    def test_unit_shapes(self):
        assert k_constant(1, 1) == pytest.approx(9.0, rel=1e-13)

    def test_half_shapes(self):
        # (7.5*4 + 3pi/2 + 1*(3pi/2)*4)/12 with C(1.5,1.5) = 3pi/2
        want = (30.0 + 7.5 * math.pi) / 12.0
        assert k_constant(0.5, 0.5) == pytest.approx(want, rel=1e-13)

    def test_positive_on_grid(self):
        for a in (0.3, 1.0, 2.0, 5.0):
            for b in (0.5, 1.5, 4.0):
                assert k_constant(a, b) > 0


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
        res = verify_condition_1(p)
        assert res[0] == 0 and res[-1] == 0

    def test_exact_zero_on_grid(self):
        for n, a, b in EXACT_GRID:
            p = ModelParams(n, a, b)
            assert all(r == 0 for r in verify_condition_1(p))
            assert all(r == 0 for r in verify_condition_2(p))

    @given(valid_params())
    def test_exact_zero_property(self, p):
        assert all(r == 0 for r in verify_condition_1(p))
        assert all(r == 0 for r in verify_condition_2(p))

    @given(valid_params())
    def test_exchangeability(self, p):
        pi = stationary_ratio_product(p)
        assert all(r == 0 for r in detailed_balance_residuals(p, pi))


class TestSRemainder:
    def test_at_zero(self):
        p = ModelParams(5, F(3, 2), 2)
        assert s_remainder(p, F(0)) == p.a / (4 * p.n)

    def test_at_one(self):
        # 2(a+b) - (3a+b) + a = b, so S(1) = b/(4n); 1/8 at (n=2, a=b=1)
        p = ModelParams(2, 1, 1)
        assert s_remainder(p, F(1)) == F(1, 8)
        q = ModelParams(5, F(3, 2), 2)
        assert s_remainder(q, F(1)) == q.b / (4 * q.n)

    def test_at_half_symmetric(self):
        assert s_remainder(ModelParams(2, 1, 1), F(1, 2)) == 0

    def test_sign_can_flip(self):
        # roots at ((3a+b) +- |a-b|)/(4(a+b)); between them S < 0
        p = ModelParams(5, 1, 2)
        ws = [F(i, 10) for i in range(11)]
        values = [s_remainder(p, w) for w in ws]
        assert any(v < 0 for v in values) and any(v > 0 for v in values)

    def test_domain(self):
        with pytest.raises(ValueError):
            s_remainder(ModelParams(2, 1, 1), F(3, 2))


class TestExpectations:
    def test_e_abs_s_spot(self):
        p = ModelParams(2, 1, 1)
        pi = stationary_ratio_product(p)
        value, bound = e_abs_s(p, pi)
        assert value == F(1, 20)
        assert bound == F(5, 8)

    def test_e_abs_s_bound_on_grid(self):
        for n, a, b in EXACT_GRID:
            p = ModelParams(n, a, b)
            pi = stationary_ratio_product(p)
            value, bound = e_abs_s(p, pi)
            assert value <= bound

    def test_third_moment_spot(self):
        p = ModelParams(2, 1, 1)
        pi = stationary_ratio_product(p)
        assert third_moment_ratio(p, pi) == F(1, 10)

    def test_third_moment_bound_and_identity(self):
        # The grid, plus one point whose q = lcm(113, 37) is odd and large.
        points = [(n, a, b) for n, a, b in EXACT_GRID if n <= 10]
        for n, a, b in points + [(150, F(355, 113), F(103, 37))]:
            p = ModelParams(n, a, b)
            pi = stationary_ratio_product(p)
            tmr = third_moment_ratio(p, pi)
            assert 0 <= tmr <= F(1, 2 * n)
            # quadratic identity route: tmr = (1/n) E[W(1-W) + S]
            e_w1w = moment_exact(pi, 1) - moment_exact(pi, 2)
            s = [s_remainder(p, F(i, 2 * n)) for i in range(2 * n + 1)]
            e_s = sum((pr * si for pr, si in zip(pi.probs_exact, s)), F(0))
            assert tmr == (e_w1w + e_s) / n
            # E|S| as a Fraction sum over probs_exact
            e_abs = sum((pr * abs(si) for pr, si in zip(pi.probs_exact, s)), F(0))
            assert e_abs_s(p, pi)[0] == e_abs


class TestUpperBound:
    def test_assembled_spot(self):
        p = ModelParams(2, 1, 1)
        rep = stein_report(p)
        assert upper_bound_assembled(p, rep) == pytest.approx(1.0, abs=1e-12)

    def test_assembled_below_headline(self):
        for n, a, b in EXACT_GRID:
            if n > 10:
                continue
            p = ModelParams(n, a, b)
            rep = stein_report(p)
            assert upper_bound_assembled(p, rep) <= k_constant(a, b) / n + 1e-12

    def test_assembled_improves_with_n(self):
        for a, b in [(F(1, 2), F(1, 2)), (1, 1), (2, 5)]:
            prev = None
            for n in (5, 10, 20, 40):
                p = ModelParams(n, a, b)
                cur = upper_bound_assembled(p, stein_report(p))
                if prev is not None:
                    assert cur <= prev + 1e-12
                prev = cur


class TestCertificate:
    def test_spot(self):
        cert = bound_certificate(ModelParams(2, 1, 1))
        assert cert.lower == pytest.approx(1.0 / 144.0, rel=1e-15)
        assert cert.gap == pytest.approx(1.0 / 120.0, rel=1e-15)
        assert cert.upper == pytest.approx(4.5, rel=1e-13)
        assert cert.sandwich_ok

    def test_sandwich_on_grid(self):
        for n, a, b in EXACT_GRID:
            assert bound_certificate(ModelParams(n, a, b)).sandwich_ok

    def test_lower_side_compared_exactly(self, monkeypatch):
        # Above the gap by less than any float slack would forgive.
        p = ModelParams(7, F(1, 2), 3)
        gap = stein.gap_h(p)
        monkeypatch.setattr(stein, "lower_bound", lambda params: gap + F(1, 10**13))
        assert bound_certificate(p).sandwich_ok is False

    def test_invariant_matches_fields(self):
        cert = bound_certificate(ModelParams(7, F(1, 2), 3))
        assert cert.sandwich_ok == (
            cert.lower <= cert.gap + 1e-12 and cert.gap <= cert.upper + 1e-12
        )


class TestReport:
    def test_bundle(self):
        p = ModelParams(2, 1, 1)
        rep = stein_report(p)
        assert p.lam == F(1, 16)
        assert rep.conditions_exact
        assert rep.s_values == (F(1, 8), F(1, 32), F(0), F(1, 32), F(1, 8))
        assert rep.e_abs_s_exact == F(1, 20)
        assert rep.e_abs_s_bound == F(5, 8)
        assert rep.e_cubed_over_lambda_exact == F(1, 10)
        assert rep.e_cubed_over_lambda_bound == F(1, 4)
        assert rep.cond1_max_abs == 0 and rep.cond2_max_abs == 0

    def test_s_numerators_built_once(self, monkeypatch):
        calls = []
        form = stein._s_form
        monkeypatch.setattr(
            stein, "_s_form", lambda *args: calls.append(args) or form(*args)
        )
        stein._s_numerators.cache_clear()
        rep = stein_report(ModelParams(3, 1, 2))
        assert len(calls) == 7  # one per state
        assert rep.conditions_exact and rep.caps_ok
