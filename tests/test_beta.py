"""Beta target: density and CDF as the distances evaluate them, the moment
reference and the variance."""

from fractions import Fraction

import numpy as np
import pytest

from moranbeta import distance, special
from moranbeta.beta import variance
from moranbeta.special import log_beta
from oracles import Shapes
from oracles import beta_moments as moments

F = Fraction


def cdf_pdf(shapes, xs):
    """F_Z and f_Z at every 0 < x < 1 of `xs` for the shapes (a, b), as the
    distances compute them, as two arrays."""
    a, b = map(float, shapes)
    ln_beta = log_beta(a, b)
    pairs = [special._cdf_pdf(a, b, ln_beta, float(x)) for x in xs]
    return np.array([f for f, _ in pairs]), np.array([d for _, d in pairs])


def pdf(shapes, x):
    return cdf_pdf(shapes, [x])[1][0]


def cdf(shapes, x):
    return cdf_pdf(shapes, [x])[0][0]


class TestPdf:
    def test_uniform(self):
        assert pdf((1, 1), 0.3) == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_symmetric_peak(self):
        assert pdf((2, 2), 0.5) == pytest.approx(1.5, rel=1e-14, abs=0)

    def test_integrates_to_one(self):
        from scipy import integrate

        rng = np.random.default_rng(10)
        for _ in range(12):
            a = float(rng.uniform(0.05, 10.0))
            b = float(rng.uniform(0.05, 10.0))
            total, _ = integrate.quad(
                lambda x: 1.0, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0)
            )
            # scale by the density normalizer at a regular interior point
            norm = pdf((a, b), 0.5) / (0.5 ** (a - 1.0) * 0.5 ** (b - 1.0))
            assert norm * total == pytest.approx(1.0, abs=1e-10)


class TestCdf:
    def test_uniform(self):
        assert cdf((1, 1), 0.25) == pytest.approx(0.25, abs=1e-14)

    def test_symmetric_median(self):
        for a in (0.5, 1.0, 4.2):
            assert cdf((a, a), 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_closed_form_one_two(self):
        xs = np.linspace(0.05, 0.95, 10)
        fz, _ = cdf_pdf((1, 2), xs)
        assert fz == pytest.approx(1 - (1 - xs) ** 2, abs=1e-13)

    def test_nondecreasing(self):
        # F_Z at the atoms i/200, i = 0..200, ends included.
        fz = distance._atoms(200, (0.4, 2.7))[2][0]
        assert (np.diff(fz) >= 0.0).all()


class TestMoments:
    def test_uniform_mean(self):
        assert moments(F(1), F(1), 1) == F(1, 2)

    def test_uniform_second_moment(self):
        assert moments(F(1), F(1), 2) == F(1, 3)

    def test_general_mean(self):
        for a, b in [(0.5, 2.0), (3.0, 4.0), (7.7, 0.1)]:
            assert moments(a, b, 1) == pytest.approx(a / (a + b), rel=1e-14, abs=0)

    def test_exact_for_rational_shapes(self):
        m3 = moments(F(1, 2), F(3, 2), 3)
        assert isinstance(m3, Fraction)
        assert m3 == F(1, 2) * F(3, 2) * F(5, 2) / (F(2) * F(3) * F(4))

    def test_variance_identity_exact(self):
        a, b = F(2), F(5)
        assert variance(Shapes(a, b)) == moments(a, b, 2) - moments(a, b, 1) ** 2

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            moments(1, 1, 0)

