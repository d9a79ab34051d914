"""Beta target: density and CDF as the distances evaluate them, the moment
reference, variance and bump-function expectation."""

from fractions import Fraction

import numpy as np
import pytest

from moranbeta import distance, special
from moranbeta.beta import BetaParams, expected_h, variance
from moranbeta.special import log_beta
from oracles import beta_moments as moments

F = Fraction


def cdf_pdf(p, xs):
    """F_Z and f_Z at every 0 < x < 1 of `xs`, as the distances compute them,
    as two arrays."""
    a, b = float(p.a), float(p.b)
    ln_beta = log_beta(a, b)
    pairs = [special._cdf_pdf(a, b, ln_beta, float(x)) for x in xs]
    return np.array([f for f, _ in pairs]), np.array([d for _, d in pairs])


def pdf(p, x):
    return cdf_pdf(p, [x])[1][0]


def cdf(p, x):
    return cdf_pdf(p, [x])[0][0]


class TestBetaParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BetaParams(0, 1)
        with pytest.raises(ValueError):
            BetaParams(1, -2.0)

    def test_accepts_fractions(self):
        p = BetaParams(F(1, 2), F(3, 2))
        assert p.a == F(1, 2)

    def test_equal_and_hashed_by_value(self):
        # The key of the atom cache.
        p = BetaParams(F(1, 2), 2)
        same = BetaParams(F(1, 2), F(2))
        assert p == same and hash(p) == hash(same)
        assert p != BetaParams(F(1, 2), 3)
        assert len({p, same, BetaParams(2, F(1, 2))}) == 2
        assert repr(p) == "BetaParams(a=Fraction(1, 2), b=2)"


class TestPdf:
    def test_uniform(self):
        assert pdf(BetaParams(1, 1), 0.3) == pytest.approx(1.0, rel=1e-14)

    def test_symmetric_peak(self):
        assert pdf(BetaParams(2, 2), 0.5) == pytest.approx(1.5, rel=1e-14)

    def test_integrates_to_one(self):
        from scipy import integrate

        rng = np.random.default_rng(10)
        for _ in range(12):
            a = float(rng.uniform(0.05, 10.0))
            b = float(rng.uniform(0.05, 10.0))
            p = BetaParams(a, b)
            total, _ = integrate.quad(
                lambda x: 1.0, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0)
            )
            # scale by the density normalizer at a regular interior point
            norm = pdf(p, 0.5) / (0.5 ** (a - 1.0) * 0.5 ** (b - 1.0))
            assert norm * total == pytest.approx(1.0, abs=1e-10)


class TestCdf:
    def test_uniform(self):
        assert cdf(BetaParams(1, 1), 0.25) == pytest.approx(0.25, abs=1e-14)

    def test_symmetric_median(self):
        for a in (0.5, 1.0, 4.2):
            assert cdf(BetaParams(a, a), 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_closed_form_one_two(self):
        p = BetaParams(1, 2)
        xs = np.linspace(0.05, 0.95, 10)
        fz, _ = cdf_pdf(p, xs)
        assert fz == pytest.approx(1 - (1 - xs) ** 2, abs=1e-13)

    def test_nondecreasing(self):
        # F_Z at the atoms i/200, i = 0..200, ends included.
        fz = distance._atoms(200, BetaParams(0.4, 2.7))[0]
        assert (np.diff(fz) >= 0.0).all()


class TestMoments:
    def test_uniform_mean(self):
        assert moments(BetaParams(1, 1), 1) == pytest.approx(0.5)

    def test_uniform_second_moment(self):
        assert moments(BetaParams(1, 1), 2) == pytest.approx(1.0 / 3.0)

    def test_general_mean(self):
        for a, b in [(0.5, 2.0), (3.0, 4.0), (7.7, 0.1)]:
            assert moments(BetaParams(a, b), 1) == pytest.approx(a / (a + b), rel=1e-14)

    def test_exact_for_rational_shapes(self):
        p = BetaParams(F(1, 2), F(3, 2))
        m3 = moments(p, 3)
        assert isinstance(m3, Fraction)
        assert m3 == F(1, 2) * F(3, 2) * F(5, 2) / (F(2) * F(3) * F(4))

    def test_variance_identity_exact(self):
        p = BetaParams(F(2), F(5))
        assert variance(p) == moments(p, 2) - moments(p, 1) ** 2

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            moments(BetaParams(1, 1), 0)


class TestExpectedH:
    def test_uniform(self):
        p = BetaParams(F(1), F(1))
        assert expected_h(p) == F(1, 12)

    def test_two_three(self):
        assert expected_h(BetaParams(F(2), F(3))) == F(1, 10)

    def test_moment_identity(self):
        # E[h(Z)] = (E Z - E Z^2)/2, exactly for rational shapes
        p = BetaParams(F(3, 4), F(9, 2))
        assert expected_h(p) == (moments(p, 1) - moments(p, 2)) / 2
        q = BetaParams(1.3, 4.1)
        assert expected_h(q) == pytest.approx(
            (moments(q, 1) - moments(q, 2)) / 2, abs=1e-14
        )
