"""Exact lattice moments: closed forms, the recursion, limits."""

from fractions import Fraction

from hypothesis import assume, example, given
from hypothesis import strategies as st

from moranbeta.beta import variance as beta_variance
from moranbeta.model import ModelParams, stationary_ratio_product
from moranbeta.moments import mean, moment_recursion, variance
from oracles import Shapes, beta_moments, moment_exact

F = Fraction

DESK_GRID = [
    (n, a, b)
    for n in (2, 5, 10)
    for a in (F(1, 2), 1, 2, 5)
    for b in (F(1, 2), 1, 2, 5)
    if a + b < 2 * n
]


@st.composite
def valid_params(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    a = F(draw(st.integers(1, 16)), draw(st.sampled_from([1, 2, 4])))
    b = F(draw(st.integers(1, 16)), draw(st.sampled_from([1, 2, 4])))
    assume(a + b < 2 * n)
    return ModelParams(n, a, b)


class TestClosedForms:
    def test_symmetric_mean(self):
        assert mean(ModelParams(4, F(3, 2), F(3, 2))) == F(1, 2)

    def test_mean_value(self):
        assert mean(ModelParams(5, 1, 2)) == F(1, 3)

    def test_mean_matches_exact_summation(self):
        p = ModelParams(2, 1, 1)
        pi = stationary_ratio_product(p)
        assert mean(p) == moment_exact(pi, 1) == F(1, 2)

    def test_variance_spot_value(self):
        assert variance(ModelParams(2, 1, 1)) == F(1, 10)

    def test_variance_matches_exact_summation(self):
        for n, a, b in DESK_GRID:
            p = ModelParams(n, a, b)
            pi = stationary_ratio_product(p)
            assert variance(p) == moment_exact(pi, 2) - mean(p) ** 2

    def test_variance_exceeds_beta_limit(self):
        # the lattice variance approaches the Beta variance from above
        for n, a, b in DESK_GRID:
            p = ModelParams(n, a, b)
            assert variance(p) > beta_variance(p)

    def test_variance_converges_to_beta_limit(self):
        a, b = F(1, 2), F(3)
        limit = beta_variance(Shapes(a, b))
        diffs = [abs(variance(ModelParams(n, a, b)) - limit) for n in (5, 10, 20, 40, 80)]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
        scaled = [n * d for n, d in zip((5, 10, 20, 40, 80), diffs)]
        assert max(scaled) / min(scaled) < 2  # ~ c/n decay


class TestMomentRecursion:
    def test_reproduces_mean_and_variance(self):
        for n, a, b in DESK_GRID:
            p = ModelParams(n, a, b)
            table = moment_recursion(p)
            assert table[1] == mean(p)
            assert table[2] == variance(p) + mean(p) ** 2

    def test_matches_brute_force_to_order_six(self):
        for n, a, b in DESK_GRID:
            p = ModelParams(n, a, b)
            pi = stationary_ratio_product(p)
            table = moment_recursion(p)
            for r in range(1, 7):
                assert table[r] == moment_exact(pi, r)

    @given(valid_params())
    # r above m = 2, where the factorial moments (I)_k with k > m vanish
    @example(ModelParams(1, F(1, 2), F(1, 3)))
    @example(ModelParams(6, F(7, 3), F(7, 3)))
    def test_matches_brute_force_property(self, p):
        pi = stationary_ratio_product(p)
        table = moment_recursion(p)
        for r in range(1, 9):
            assert table[r] == moment_exact(pi, r)

    def test_monotone_and_bounded(self):
        p = ModelParams(6, F(5, 2), F(7, 3))
        table = moment_recursion(p)
        vals = [table[r] for r in range(1, 9)]
        assert all(0 <= v <= 1 for v in vals)
        assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_hankel_psd(self):
        # [E W^{i+j}]_{0<=i,j<=2} must be PSD for a genuine distribution
        p = ModelParams(7, 2, 3)
        t = moment_recursion(p)
        m = {0: F(1), 1: t[1], 2: t[2], 3: t[3], 4: t[4]}
        det1 = m[0]
        det2 = m[0] * m[2] - m[1] ** 2
        det3 = (
            m[0] * (m[2] * m[4] - m[3] ** 2)
            - m[1] * (m[1] * m[4] - m[2] * m[3])
            + m[2] * (m[1] * m[3] - m[2] ** 2)
        )
        assert det1 > 0 and det2 > 0 and det3 > 0

    def test_converges_to_beta_moments(self):
        a, b = F(1), F(2)
        for r in (1, 2, 3, 4):
            limit = beta_moments(a, b, r)
            diffs = [
                abs(moment_recursion(ModelParams(n, a, b))[r] - limit)
                for n in (5, 10, 20, 40, 80)
            ]
            assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))
            scaled = [n * d for n, d in zip((5, 10, 20, 40, 80), diffs)]
            assert max(scaled) < 1  # finite C_r, comfortably

    def test_table_interface(self):
        p = ModelParams(3, 1, 1)
        t = moment_recursion(p)
        assert type(t) is dict
        assert list(t) == [1, 2, 3, 4, 5, 6, 7, 8]
        assert all(isinstance(v, F) for v in t.values())
