"""Test-function gap, the periodic extension, Wasserstein, Kolmogorov."""

import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moranbeta import distance, special
from moranbeta.distance import (
    _cdf_integral,
    gap_h,
    kolmogorov,
    wasserstein,
)
from moranbeta.model import ModelParams, stationary_ratio_product
from moranbeta.moments import moment_recursion
from moranbeta.special import ConvergenceError, log_beta
from moranbeta.stein import lower_bound
from oracles import (
    ExactLaw,
    Shapes,
    beta_moments,
    from_exact,
    from_floats,
    membership_check_g,
    periodic_extension_g,
    scalar_reg_inc_beta,
    wasserstein_mpmath,
)

F = Fraction


def closed_form_gap(n, a, b):
    return a * b / (2 * (a + b) * (1 + a + b) * (2 * n + (2 * n - 1) * (a + b)))


class TestGapH:
    def test_spot(self):
        assert gap_h(ModelParams(2, 1, 1)) == F(1, 120)

    def test_equals_displayed_closed_form(self):
        for n, a, b in [(2, F(1), F(1)), (5, F(1, 2), 2), (50, 5, F(7, 3))]:
            assert gap_h(ModelParams(n, a, b)) == closed_form_gap(n, F(a), F(b))

    def test_cross_check_via_moments(self):
        # E h = (E X - E X^2)/2 on each side, from the lattice's factorial
        # moments and the Beta's rising-factorial moments, not from the
        # variance identity gap_h reads.
        for n, a, b in [(2, 1, 1), (6, F(3, 2), F(5, 2)), (11, 4, 1)]:
            p = ModelParams(n, a, b)
            t = moment_recursion(p)
            e_h_w = (t[1] - t[2]) / 2
            e_h_z = (beta_moments(p.a, p.b, 1) - beta_moments(p.a, p.b, 2)) / 2
            assert gap_h(p) == e_h_z - e_h_w > 0  # Beta side dominates

    def test_strictly_above_lower_bound(self):
        for n in (3, 10, 100, 1000):
            for a, b in [(F(1, 2), F(1, 2)), (1, 3), (5, F(1, 2))]:
                if a + b >= 2 * n:
                    continue
                p = ModelParams(n, a, b)
                assert gap_h(p) > lower_bound(p)

    def test_doubling_n_nearly_halves(self):
        for a, b in [(F(1, 2), F(1, 2)), (1, 1), (5, 5)]:
            for n in (25, 100):
                ratio = gap_h(ModelParams(2 * n, a, b)) / gap_h(ModelParams(n, a, b))
                assert F(49, 100) <= ratio <= F(51, 100)


class TestPeriodicExtension:
    def test_matches_bump_on_unit_interval(self):
        for x in np.linspace(0.0, 1.0, 50):
            assert periodic_extension_g(float(x)) == pytest.approx(
                0.5 * x * (1 - x), abs=1e-15
            )

    def test_alternates_sign(self):
        assert periodic_extension_g(1.5) == pytest.approx(-0.125, abs=1e-15)
        assert periodic_extension_g(2.5) == pytest.approx(0.125, abs=1e-15)
        assert periodic_extension_g(-0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_continuous_at_junction(self):
        assert periodic_extension_g(1.0) == 0.0
        assert periodic_extension_g(1.0 - 1e-12) == pytest.approx(0.0, abs=1e-11)
        assert periodic_extension_g(1.0 + 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_membership(self):
        assert membership_check_g(100)
        assert membership_check_g(1000)

    def test_requires_dense_grid(self):
        with pytest.raises(ValueError):
            membership_check_g(50)

    def test_derivative_sup_is_half(self):
        res = 2000
        xs = np.arange(-3 * res, 3 * res + 1) / res
        g = np.array([periodic_extension_g(float(x)) for x in xs])
        d1 = np.abs((g[2:] - g[:-2]) * res / 2.0).max()
        assert d1 == pytest.approx(0.5, abs=1e-3)


RATIONAL = st.fractions(min_value=F(1, 1000), max_value=50, max_denominator=1000)
TINY = st.sampled_from([F("1e-30"), F("1e-300")])
SHAPES = st.one_of(RATIONAL, TINY)


def spy_cdf_pdf(monkeypatch):
    """A list that collects the arguments (a, b, ln_beta, x) of every
    F_Z evaluation the distances make."""
    calls, real = [], distance._cdf_pdf

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(distance, "_cdf_pdf", counting)
    return calls


def scalar_atom_cdfs(n, a, b):
    """F_Z at the atoms i/(2n): 0 and 1 at the ends, one scalar Lentz loop
    at each interior atom."""
    inner = [scalar_reg_inc_beta(i / (2 * n), float(a), float(b)) for i in range(1, 2 * n)]
    return [0.0, *inner, 1.0]


class TestAtomPass:
    @settings(max_examples=25)
    @given(st.integers(1, 300), SHAPES, SHAPES)
    def test_atom_cdfs_match_scalar_cdf_bitwise(self, n, a, b):
        fz = distance._atoms(2 * n, (a, b))[0]
        assert list(fz) == scalar_atom_cdfs(n, a, b)

    @settings(max_examples=25)
    @given(st.integers(1, 300), RATIONAL, RATIONAL, st.one_of(st.none(), TINY))
    def test_kolmogorov_matches_scalar_loop_bitwise(self, n, a, b, tiny):
        assume(a + b < 2 * n)
        pi = stationary_ratio_product(ModelParams(n, a, b))
        if tiny is not None:  # exact pi at tiny shapes is slow; move the target
            a = tiny
        best, prev = 0.0, 0.0
        for c, fz in zip(np.cumsum(pi.probs), scalar_atom_cdfs(n, a, b)):
            best = max(best, abs(c - fz), abs(prev - fz))
            prev = c
        assert kolmogorov(ExactLaw(n, pi.probs, Shapes(a, b))) == best

    def test_runs_once_for_both_distances(self, monkeypatch):
        # W1 evaluates each interior atom once (the crossings evaluate
        # strictly inside their pieces), and Kolmogorov evaluates nothing.
        pi = stationary_ratio_product(ModelParams(30, F(2, 7), F(9, 4)))
        calls = spy_cdf_pdf(monkeypatch)
        distance._reset_atoms()
        wasserstein(pi)
        after_w1 = len(calls)
        kolmogorov(pi)
        assert len(calls) == after_w1
        atoms = [x for *_, x in calls if x in {i / 60 for i in range(1, 60)}]
        assert sorted(atoms) == [i / 60 for i in range(1, 60)]

    def test_cached_arrays_are_read_only(self):
        # Immutable: the cached atoms are tuples.
        fz, _, g, _ = distance._atoms(10, (1, 2))
        assert type(fz) is tuple and type(g) is tuple

    def test_continued_fraction_budget_raises(self, monkeypatch):
        monkeypatch.setattr(special, "_CF_MAX_ITER", 3)
        distance._reset_atoms()
        pi = stationary_ratio_product(ModelParams(20, F(5, 2), F(7, 3)))
        with pytest.raises(ConvergenceError, match="did not converge in 3"):
            wasserstein(pi)

    def test_non_finite_cdf_raises(self, monkeypatch):
        # A Beta CDF that rounds to NaN: no distance may be printed from it.
        monkeypatch.setattr(
            distance, "_cdf_pdf", lambda a, b, ln_beta, x: (np.nan, np.nan)
        )
        shapes = (F("2.3e-308"), F("3e-308"))
        distance._reset_atoms()
        with pytest.raises(FloatingPointError):
            distance._atoms(20, shapes)

    def test_tiny_shapes_are_refused(self):
        # Both laws sit on the endpoints, P(0) = b/(a+b) up to O(a), so the
        # exact W1 is below 1e-31 (30-digit mpmath), where the float W1 came
        # out 1.1e-13, rounding noise: the model refuses such shapes.
        with pytest.raises(ValueError, match="must be at least 1e-300 "):
            ModelParams(10, F("2.3e-308"), F("3e-308"))


def as_hex(atoms):
    """The atoms `(F_Z, f_Z, G, ln B)` as hex strings, equal only bit for bit."""
    *columns, ln_beta = atoms
    return [[float.hex(x) for x in col] for col in columns], float.hex(ln_beta)


def cold_atoms(m, shapes):
    distance._reset_atoms()
    return distance._atoms(m, shapes)


REUSE_SHAPES = st.one_of(
    st.fractions(min_value=F(1, 1000), max_value=50, max_denominator=1000),
    st.sampled_from([F(1, 10), F(355, 113)]),
)


class TestAtomReuse:
    """The slot keeps the last lattice's atoms; a multiple k m of it, same
    shapes, copies the shared atoms and evaluates only the new ones."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 8), REUSE_SHAPES, REUSE_SHAPES)
    def test_multiple_lattice_equals_cold_pass_bitwise(self, m, k, a, b):
        shapes = (a, b)
        cold = as_hex(cold_atoms(k * m, shapes))
        cold_atoms(m, shapes)
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_cdf_pdf(mp)
            warm = distance._atoms(k * m, shapes)
        assert len(calls) == (k * m - 1) - (m - 1)
        assert as_hex(warm) == cold

    @pytest.mark.parametrize(
        "first, then",
        [
            ((40, (F(1, 2), F(3, 2))), (60, (F(1, 2), F(3, 2)))),  # not a multiple
            ((40, (F(1, 2), F(3, 2))), (80, (F(3, 2), F(1, 2)))),  # other shapes
            ((40, (F(1, 2), F(3, 2))), (20, (F(1, 2), F(3, 2)))),  # a divisor
        ],
        ids=["not_a_multiple", "other_shapes", "coarser"],
    )
    def test_other_lattices_evaluate_every_atom(self, monkeypatch, first, then):
        (m0, shapes0), (m, shapes) = first, then
        cold = as_hex(cold_atoms(m, shapes))
        cold_atoms(m0, shapes0)
        calls = spy_cdf_pdf(monkeypatch)
        assert as_hex(distance._atoms(m, shapes)) == cold
        assert len(calls) == m - 1

    def test_slot_holds_one_lattice(self, monkeypatch):
        # After 40 then 80, the slot holds 80 alone: 40 again is a cold pass.
        shapes = (F(2, 7), F(9, 4))
        calls = spy_cdf_pdf(monkeypatch)
        distance._reset_atoms()
        distance._atoms(40, shapes)
        distance._atoms(80, shapes)
        assert len(calls) == 79
        distance._atoms(40, shapes)
        assert len(calls) == 79 + 39

    def test_slot_key_compares_shapes_by_value(self, monkeypatch):
        # The slot is keyed on the shape pair as given: (1/2, 2), (1/2, 2/1)
        # and (0.5, 2.0) are one key, and the swapped pair is another.
        calls = spy_cdf_pdf(monkeypatch)
        atoms = cold_atoms(40, (F(1, 2), 2))
        assert distance._atoms(40, (F(1, 2), F(2))) is atoms
        assert distance._atoms(40, (0.5, 2.0)) is atoms
        assert len(calls) == 39
        distance._atoms(40, (2, F(1, 2)))
        assert len(calls) == 78

    def test_same_lattice_is_served_and_reset_is_cold(self, monkeypatch):
        shapes = (F(1, 10), F(1, 10))
        calls = spy_cdf_pdf(monkeypatch)
        atoms = cold_atoms(50, shapes)
        assert distance._atoms(50, shapes) is atoms
        assert len(calls) == 49
        assert as_hex(cold_atoms(50, shapes)) == as_hex(atoms)
        assert len(calls) == 98

    def test_doubling_lattices_evaluate_the_finest_once(self, monkeypatch):
        # The n of a doubling sweep: each atom of the finest lattice once.
        shapes = (F(1, 2), F(2))
        calls = spy_cdf_pdf(monkeypatch)
        distance._reset_atoms()
        for m in (50, 100, 200, 400):
            distance._atoms(m, shapes)
        assert sorted(x for *_, x in calls) == [i / 400 for i in range(1, 400)]


def point_mass_at_half():
    return from_exact(1, (F(0), F(1), F(0)), 1, 1)


class TestWasserstein:
    def test_point_mass_against_uniform(self):
        w1 = wasserstein(point_mass_at_half())
        assert w1 == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning", "ignore:.*maximum number.*")
    @pytest.mark.parametrize("n,a,b", [(2, 1, 1), (5, F(1, 2), 2), (10, 2, 5)])
    def test_against_scipy_quadrature(self, n, a, b):
        from scipy import integrate, stats

        p = ModelParams(n, a, b)
        pi = stationary_ratio_product(p)
        mine = wasserstein(pi)
        cum = np.cumsum(pi.probs)
        m = 2 * n

        def integrand(x):
            idx = min(int(np.floor(x * m)), m)
            return abs(cum[idx] - stats.beta.cdf(x, float(a), float(b)))

        oracle, _ = integrate.quad(
            integrand, 0.0, 1.0, points=[i / m for i in range(m + 1)],
            limit=60 + 4 * m,
        )
        assert mine == pytest.approx(oracle, abs=5e-9)

    def test_discretized_beta_is_close(self):
        # nearest-atom rounding of Beta mass moves nothing further than
        # half a lattice cell, so the distance is below 1/(2n)
        from scipy import stats

        n, a, b = 100, 2.0, 3.0
        m = 2 * n
        edges = np.clip((np.arange(m + 1 + 1) - 0.5) / m, 0.0, 1.0)
        cell = np.diff(stats.beta.cdf(edges, a, b))
        lattice = from_floats(n, cell, a, b)
        w1 = wasserstein(lattice)
        assert 0.0 <= w1 <= 1.0 / (2 * n) + 1e-9

    @pytest.mark.parametrize("a,b", [(F("1e-30"), 1), (1, F("1e-30"))])
    def test_nonnegative_at_tiny_shapes(self, a, b):
        # Both laws sit almost entirely on one endpoint, so every piece is
        # rounding noise around 0; none may pull the sum below it.
        pi = stationary_ratio_product(ModelParams(10, a, b))
        assert 0.0 <= wasserstein(pi) <= 1e-13

    def test_dominates_mean_difference(self):
        # both laws share the mean a/(a+b); consistency, not tightness
        p = ModelParams(5, 2, 3)
        pi = stationary_ratio_product(p)
        w1 = wasserstein(pi)
        support = np.arange(11) / 10
        mean_gap = abs(float(np.asarray(pi.probs) @ support) - 2.0 / 5.0)
        assert w1 >= mean_gap - 1e-12


def cdf_integral(a, b, x):
    """G(x) = int_0^x F_Z from F_Z(x) and f_Z(x), as W1 computes it."""
    ln_beta = log_beta(a, b)
    return _cdf_integral(a, b, x, *special._cdf_pdf(a, b, ln_beta, x))


class TestCdfIntegral:
    @pytest.mark.parametrize(
        "a,b", [(F(1, 10), F(1, 10)), (F(7, 3), F(11, 5)), (F(1, 2), F(3, 2))]
    )
    def test_matches_quadrature(self, a, b):
        from scipy import integrate, special

        fa, fb = float(a), float(b)
        fz = lambda t: special.betainc(fa, fb, t)
        xs = np.array([1e-6, 0.01, 0.3, 0.77, 0.999])
        got = [cdf_integral(fa, fb, float(x)) for x in xs]
        for x, g in zip(xs, got):
            want, _ = integrate.quad(fz, 0.0, x, epsabs=0.0, epsrel=1e-13, limit=200)
            assert g == pytest.approx(want, rel=1e-12, abs=1e-16)

    @pytest.mark.parametrize("a,b", [(F(1, 10), F(1, 10)), (F(7, 3), F(11, 5))])
    def test_tends_to_one_minus_mean_at_one(self, a, b):
        mu = float(a / (a + b))
        x = np.array([1.0 - 1e-12])
        g = [cdf_integral(float(a), float(b), float(v)) for v in x]
        assert g[0] == pytest.approx(1.0 - mu, abs=1e-11)


def oracle_distances(pi, a, b):
    """Independent W1 and Kolmogorov distances from scipy: `quad` per lattice
    piece, with the crossing of F_W and F_Z placed by `brentq` as a breakpoint."""
    from scipy import integrate, optimize, special

    fz = lambda x: special.betainc(float(a), float(b), x)
    m = 2 * pi.n
    cum = [float(c) for c in accumulate(pi.probs_exact)]
    w1 = 0.0
    kol = 0.0
    for i in range(m):
        lo, hi, c = i / m, (i + 1) / m, cum[i]
        f_lo, f_hi = fz(lo), fz(hi)
        kol = max(kol, abs(c - f_lo), abs(c - f_hi))
        cuts = [lo, hi]
        if f_lo < c < f_hi:
            root = optimize.brentq(lambda x: fz(x) - c, lo, hi, xtol=1e-16, rtol=1e-15)
            cuts.insert(1, root)
        for u, v in zip(cuts, cuts[1:]):
            part, _ = integrate.quad(
                lambda x: abs(fz(x) - c), u, v, epsabs=1e-19, epsrel=1e-11, limit=100
            )
            w1 += part
    return w1, kol


class TestLargeN:
    """W1 and Kolmogorov against an independent scipy oracle at large n."""

    @pytest.mark.parametrize(
        "n,a,b",
        [(200, F(1, 10), F(1, 10)), (300, F(7, 3), F(11, 5)), (400, F(1, 2), F(3, 2))],
    )
    def test_against_scipy_oracle(self, n, a, b):
        pi = stationary_ratio_product(ModelParams(n, a, b))
        w1, kol = oracle_distances(pi, a, b)
        assert wasserstein(pi) == pytest.approx(w1, rel=1e-9, abs=0.0)
        assert kolmogorov(pi) == pytest.approx(kol, abs=1e-12)

    def test_against_30_digit_oracle(self):
        # The first accuracy figure of the `wasserstein` docstring: 5.3e-12,
        # nearly all of it from the crossings inside the endpoint margin.
        n, a, b = 200, F(1, 10), F(1, 10)
        pi = stationary_ratio_product(ModelParams(n, a, b))
        oracle = wasserstein_mpmath(pi)
        assert wasserstein(pi) == pytest.approx(oracle, rel=1e-11, abs=0.0)

    def test_interior_crossings_against_30_digit_oracle(self):
        # Read from the left atom, an interior crossing no longer carries the
        # difference of the F_Z noise at the crossing and at the atom: 8.0e-13
        # here, where a second F_Z evaluation per crossing gave 4.9e-12.
        n, a, b = 400, F(1, 2), F(3, 2)
        pi = stationary_ratio_product(ModelParams(n, a, b))
        oracle = wasserstein_mpmath(pi)
        assert wasserstein(pi) == pytest.approx(oracle, rel=2e-12, abs=0.0)


SWEEP_GRID = [
    (n, a, b)
    for a in (F(1, 2), F(1), F(2)) for b in (F(1, 2), F(1), F(2)) for n in (25, 50, 100, 200)
]


def crossing_pieces(pi):
    """The indices i of the pieces [i/m, (i+1)/m] where F_W = c lies strictly
    between F_Z at the piece's ends."""
    fz = distance._atoms(2 * pi.n, (pi.params.a, pi.params.b))[0]
    cum = accumulate(pi.probs)
    return [i for i, (c, f_lo, f_hi) in enumerate(zip(cum, fz, fz[1:])) if f_lo < c < f_hi]


@contextmanager
def newton_only():
    """Every crossing solved by Newton to the root tolerance: the bound for
    keeping a corrected estimate set to 0."""
    bound = distance._ONE_EVAL_BOUND
    distance._ONE_EVAL_BOUND = 0.0
    try:
        yield
    finally:
        distance._ONE_EVAL_BOUND = bound


def record_crossings(monkeypatch):
    """A list that collects, per crossing W1 solves, the arguments of
    `_crossing_gain` and the (x, F_Z, f_Z) of each evaluation it makes."""
    crossings, active = [], []
    real_gain, real_eval = distance._crossing_gain, distance._cdf_pdf

    def gain(*args):
        evals = []
        crossings.append((args, evals))
        active.append(evals)
        try:
            return real_gain(*args)
        finally:
            active.pop()

    def evaluate(a, b, ln_beta, x):
        fz, dens = real_eval(a, b, ln_beta, x)
        if active:
            active[-1].append((x, fz, dens))
        return fz, dens

    monkeypatch.setattr(distance, "_crossing_gain", gain)
    monkeypatch.setattr(distance, "_cdf_pdf", evaluate)
    return crossings


SMALL_OR_ODD = st.one_of(
    st.fractions(min_value=F(1, 20), max_value=20, max_denominator=1000),
    st.sampled_from([F(1, 10), F(1, 7), F(2, 7), F(355, 113), F(103, 37)]),
)


class TestCrossings:
    def test_one_evaluation_per_crossing_on_the_sweep_grid(self, monkeypatch):
        # Each crossing is read from one F_Z evaluation at its Hermite start
        # unless that estimate is refused; the atom pass makes 2n - 1.
        calls = spy_cdf_pdf(monkeypatch)
        atom_calls = crossings = 0
        for n, a, b in SWEEP_GRID:
            pi = stationary_ratio_product(ModelParams(n, a, b))
            distance._reset_atoms()
            wasserstein(pi)
            atom_calls += 2 * n - 1
            crossings += len(crossing_pieces(pi))
        assert len(calls) <= 14_000
        assert len(calls) - atom_calls <= 1.1 * crossings

    def test_only_margin_crossings_evaluate_the_cdf(self, monkeypatch):
        # An interior crossing is read from the moments of f_Z on its piece:
        # F_Z is evaluated at the atoms and, through `_crossing_gain`, at the
        # crossings within the endpoint margin alone.
        solved = record_crossings(monkeypatch)
        calls = spy_cdf_pdf(monkeypatch)
        atom_calls = margin = interior = 0
        for n, a, b in SWEEP_GRID:
            pi = stationary_ratio_product(ModelParams(n, a, b))
            distance._reset_atoms()
            wasserstein(pi)
            m, j = 2 * n, distance._interior_margin(float(a), float(b))
            atom_calls += m - 1
            for i in crossing_pieces(pi):
                if j <= i < m - j:
                    interior += 1
                else:
                    margin += 1
        assert interior > 4 * margin > 0
        assert len(solved) == margin
        assert len(calls) == atom_calls + sum(len(evals) for _, evals in solved)

    def test_zero_bound_sends_every_crossing_to_newton(self, monkeypatch):
        # With the bound at 0 no corrected estimate is kept: each crossing
        # stops only once its Newton step is within the root tolerance.
        crossings = record_crossings(monkeypatch)
        for n, a, b in SWEEP_GRID:
            pi = stationary_ratio_product(ModelParams(n, a, b))
            distance._reset_atoms()
            w1 = wasserstein(pi)
            crossings.clear()
            with newton_only():
                newton = wasserstein(pi)
            assert len(crossings) == len(crossing_pieces(pi)) > 0, (n, a, b)
            for (*_, lo, hi, _, _, _, _, c), evals in crossings:
                _, fz, dens = evals[-1]
                tol = distance._ROOT_REL_TOL * (hi - lo)
                assert abs(c - fz) / dens <= tol, (n, a, b)
            assert w1 == pytest.approx(newton, rel=2e-10, abs=0.0), (n, a, b)

    def test_newton_continues_from_the_first_evaluation(self, monkeypatch):
        # A crossing whose first estimate is not kept goes on from that
        # evaluation: its second point is the Newton step from the first, or
        # the bisection of the bracket that evaluation narrowed.
        crossings = record_crossings(monkeypatch)
        with newton_only():
            for n, a, b in SWEEP_GRID:
                pi = stationary_ratio_product(ModelParams(n, a, b))
                wasserstein(pi)
        continued = 0
        for (*_, lo, hi, _, _, _, _, c), evals in crossings:
            if len(evals) < 2:
                continue
            (x, fz, dens), (second, _, _) = evals[:2]
            left = x if fz < c else lo
            right = x if fz > c else hi
            step = (c - fz) / dens
            if not left < x + step < right:
                step = 0.5 * (left + right) - x
            assert second == x + step, (lo, hi, c)
            continued += 1
        assert continued > len(crossings) / 2 > 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 300), SMALL_OR_ODD, SMALL_OR_ODD)
    def test_matches_newton_crossings(self, n, a, b):
        # Shapes down to 1/20.  Below about 1/100 W1 is small enough that the
        # rounding noise of F_Z at the crossing points, on either path, is
        # itself near 2e-10 of it.
        assume(a + b < 2 * n)
        pi = stationary_ratio_product(ModelParams(n, a, b))
        distance._reset_atoms()
        w1 = wasserstein(pi)
        with newton_only():
            newton = wasserstein(pi)
        assert w1 == pytest.approx(newton, rel=2e-10, abs=0.0)


class TestInteriorMoments:
    """The 6-point Gauss-Legendre rule behind each interior crossing."""

    def test_rule_matches_numpy_to_one_ulp(self):
        nodes, weights = np.polynomial.legendre.leggauss(len(distance._GL_NODES))
        pairs = [*zip(distance._GL_NODES, nodes), *zip(distance._GL_WEIGHTS, weights)]
        for mine, ref in pairs:
            assert abs(mine - float(ref)) <= math.ulp(float(ref))

    def test_margin_grows_with_the_shapes(self):
        # The bound's margin at the shapes its docstring names.
        margin = distance._interior_margin
        assert [margin(1 + s / 2, 1 + s / 2) for s in (0, 1, 2, 4, 100)] == [13, 17, 20, 26, 302]
        assert margin(0.5, 1.5) == margin(1.5, 0.5) == 17

    @settings(max_examples=40, deadline=None)
    @given(
        st.fractions(min_value=F(1, 20), max_value=50, max_denominator=100),
        st.fractions(min_value=F(1, 20), max_value=50, max_denominator=100),
        st.integers(1, 20_000),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_moments_match_mpmath(self, a, b, m, where, frac):
        # I0 = int_lo^x f_Z and I1 = int_lo^x (u - lo) f_Z on interior
        # pieces, against mpmath at 40 digits on the same float inputs: the
        # rule's bound, 2^-60 relative, plus a few ulps of rounding.
        import mpmath

        a, b = float(a), float(b)
        j = distance._interior_margin(a, b)
        assume(m > 2 * j)
        i = j + int(where * (m - 2 * j - 1))
        lo, hi = i / m, (i + 1) / m
        x = lo + frac * (hi - lo)
        assume(lo < x < hi)
        d_lo = special._cdf_pdf(a, b, log_beta(a, b), lo)[1]
        i0, i1, f = distance._moments(a - 1.0, b - 1.0, lo, x, d_lo)
        with mpmath.workdps(40):
            ma, mb, mlo, mx, md = map(mpmath.mpf, (a, b, lo, x, d_lo))
            w = mx - mlo

            def ratio(s):
                # f_Z(lo + w s) / f_Z(lo)
                return (1 + w * s / mlo) ** (ma - 1) * (1 - w * s / (1 - mlo)) ** (mb - 1)

            want = (
                w * md * mpmath.quad(ratio, [0, 1]),
                w * w * md * mpmath.quad(lambda s: s * ratio(s), [0, 1]),
                md * ratio(1),
            )
            tol = distance._MOMENT_REL_BOUND + 8 * 2.0**-53
            for got, ref in zip((i0, i1, f), want):
                assert abs(float((got - ref) / ref)) <= tol, (a, b, m, i, x)


GAP_SHAPES = (F(1, 10), F(1, 2), F(1), F(2), F(5), F(20), F(355, 113), F(103, 37))


def test_twice_gap_h_at_most_w1():
    # Kantorovich-Rubinstein: |h'| = |1/2 - x| <= 1/2 on [0, 1], so
    # |E h(W) - E h(Z)| <= W1 / 2.
    points = [
        (n, a, b) for a in GAP_SHAPES for b in GAP_SHAPES for n in (3, 10, 50, 200)
        if a + b < 2 * n
    ]
    assert len(points) == 216
    for n, a, b in points:
        p = ModelParams(n, a, b)
        w1 = wasserstein(stationary_ratio_product(p))
        assert 2 * float(gap_h(p)) <= w1, (n, a, b)


class TestKolmogorov:
    def test_point_mass_against_uniform(self):
        assert kolmogorov(point_mass_at_half()) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_in_unit_interval(self):
        for n, a, b in [(2, 1, 1), (8, F(1, 2), 5)]:
            pi = stationary_ratio_product(ModelParams(n, a, b))
            val = kolmogorov(pi)
            assert 0.0 <= val <= 1.0

    def test_matches_dense_grid_supremum(self):
        from scipy import stats

        n, a, b = 6, 2.0, 5.0
        pi = stationary_ratio_product(ModelParams(n, 2, 5))
        mine = kolmogorov(pi)
        xs = np.linspace(1e-9, 1 - 1e-9, 400001)
        cum = np.cumsum(pi.probs)
        idx = np.minimum((xs * 2 * n).astype(int), 2 * n)
        brute = np.abs(cum[idx] - stats.beta.cdf(xs, a, b)).max()
        assert mine >= brute - 1e-12
        assert mine == pytest.approx(brute, abs=5e-5)

    def test_nonincreasing_in_n(self):
        a, b = 2, 3
        vals = [
            kolmogorov(stationary_ratio_product(ModelParams(n, a, b)))
            for n in (5, 10, 20, 40)
        ]
        assert all(v2 <= v1 * 1.1 for v1, v2 in zip(vals, vals[1:]))
