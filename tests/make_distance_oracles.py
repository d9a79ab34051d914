"""Write tests/data/distance_oracles.json: W1 and Kolmogorov oracles at 30 digits.

    python tests/make_distance_oracles.py

Each point (n; a, b) of `POINTS` gets the Wasserstein and Kolmogorov
distances between the Moran chain's stationary law on {0, ..., 2n}/(2n)
and Beta(a, b), computed in mpmath at `DPS` = 30 significant digits with
no part of the package.  The law is Beta-Binomial(m, alpha, beta), m = 2n,
alpha = m a/(m - a - b), beta = m b/(m - a - b) (Ewens 2004), so

    pi(i) = exp(ln C(m, i) + ln B(i + alpha, m - i + beta) - ln B(alpha, beta))

from log-gamma values, state by state: no exact walk, and memory that does
not grow with n, as the pass holds one lattice piece at a time.  On each
piece [lo, hi] F_W is the constant c; with G(x) = int_0^x F_Z =
(x - mu) F_Z(x) + x(1-x) f_Z(x)/(a+b), mu = a/(a+b), the piece adds
|G(hi) - G(lo) - c (hi - lo)|, or, where F_Z crosses c at x*,
c (2x* - lo - hi) + G(lo) + G(hi) - 2 G(x*), with x* from a Newton loop on
mpmath's regularized incomplete beta function.  Kolmogorov is the largest
|F_W - F_Z| at the atoms, from either side.  The file records this script's
argv and digits; the test suite compares the package's floats with it, and
`oracles.wasserstein_mpmath` runs the same `distances` on a law's exact
weights.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable, Iterator
from fractions import Fraction
from pathlib import Path

import mpmath

DPS = 30

# The eight points of the `wasserstein` docstring, (1, 1), where the
# endpoint margin's s = |a-1| + |b-1| is 0, (3, 3), where it is 4,
# (51, 51), where it is 100, and n = 20000 and 100000 at (1/2, 3/2).
POINTS = (
    (200, "1/10", "1/10"),
    (400, "1/2", "3/2"),
    (1000, "1/10", "1/10"),
    (1000, "355/113", "103/37"),
    (2000, "1/2", "3/2"),
    (5000, "1/2", "3/2"),
    (2000, "7/3", "11/5"),
    (111, "1/1000", "811/1000"),
    (1000, "1", "1"),
    (1000, "3", "3"),
    (1000, "51", "51"),
    (20000, "1/2", "3/2"),
    (100000, "1/2", "3/2"),
)

OUT = Path(__file__).resolve().parent / "data" / "distance_oracles.json"


def beta_binomial(n: int, a: Fraction, b: Fraction) -> Iterator[mpmath.mpf]:
    """pi(0), ..., pi(2n) from the log-gamma closed form, one at a time."""
    mpf, lg = mpmath.mpf, mpmath.loggamma
    m = 2 * n
    alpha, beta = (mpf(m * s.numerator) / (s.denominator * (m - a - b)) for s in (a, b))
    # ln C(m, i) B(i + alpha, m - i + beta) / B(alpha, beta), less its i terms
    ln_law = lg(m + 1) + lg(alpha + beta) - lg(alpha) - lg(beta) - lg(m + alpha + beta)
    for i in range(m + 1):
        ln_i = lg(i + alpha) + lg(m - i + beta) - lg(i + 1) - lg(m - i + 1)
        yield mpmath.exp(ln_law + ln_i)


def distances(
    n: int, a: Fraction, b: Fraction, probs: Iterable[mpmath.mpf]
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(W1, Kolmogorov) between the law `probs` = pi(0), ..., pi(2n) and
    Beta(a, b), at the working precision."""
    mpf = mpmath.mpf
    m = 2 * n
    sa, sb = (mpf(s.numerator) / s.denominator for s in (a, b))
    mu = sa / (sa + sb)
    ln_beta = mpmath.loggamma(sa) + mpmath.loggamma(sb) - mpmath.loggamma(sa + sb)

    def cdf_pdf(x):
        dens = mpmath.exp((sa - 1) * mpmath.log(x) + (sb - 1) * mpmath.log1p(-x) - ln_beta)
        return mpmath.betainc(sa, sb, 0, x, regularized=True), dens

    def antiderivative(x, fz, dens):
        return (x - mu) * fz + x * (1 - x) * dens / (sa + sb)

    def crossing(lo, hi, f_lo, f_hi, c):
        # x* and G(x*): Newton from the chord's root, bisecting the bracket
        # when a step leaves it.  The piece is stationary in x*, so x* to
        # 1e-15 of the piece width moves it by about 1e-30 of its size.
        left, right = lo, hi
        x = lo + (c - f_lo) / (f_hi - f_lo) * (hi - lo)
        tol = (hi - lo) * mpf(10) ** -15
        for _ in range(100):
            fz, dens = cdf_pdf(x)
            if fz < c:
                left = x
            else:
                right = x
            step = (c - fz) / dens
            if abs(step) <= tol:
                return x, antiderivative(x, fz, dens)
            x = x + step if left < x + step < right else (left + right) / 2
        raise ArithmeticError(f"F_Z(x) = {c} not solved on [{left}, {right}]")

    w1 = kol = cum = f_lo = g_lo = mpf(0)
    for i, p in enumerate(probs):
        prev, cum = cum, cum + p
        kol = max(kol, abs(cum - f_lo), abs(prev - f_lo))
        if i == m:
            return w1, kol
        lo, hi = mpf(i) / m, mpf(i + 1) / m
        if i + 1 == m:
            f_hi, g_hi = mpf(1), 1 - mu
        else:
            f_hi, dens = cdf_pdf(hi)
            g_hi = antiderivative(hi, f_hi, dens)
        piece = g_hi - g_lo - cum * (hi - lo)
        if f_lo < cum < f_hi:
            x, g_x = crossing(lo, hi, f_lo, f_hi, cum)
            piece = cum * (2 * x - lo - hi) + g_lo + g_hi - 2 * g_x
        w1 += abs(piece)
        f_lo, g_lo = f_hi, g_hi


def main() -> None:
    points = []
    with mpmath.workdps(DPS):
        for n, a, b in POINTS:
            start = time.perf_counter()
            law = beta_binomial(n, Fraction(a), Fraction(b))
            w1, kol = (mpmath.nstr(d, DPS) for d in distances(n, Fraction(a), Fraction(b), law))
            points.append({"n": n, "a": a, "b": b, "wasserstein": w1, "kolmogorov": kol})
            secs = time.perf_counter() - start
            print(f"{n}:{a}:{b}: W1 {w1}, Kolmogorov {kol} ({secs:.1f} s)", flush=True)
    doc = {"argv": ["tests/make_distance_oracles.py"], "dps": DPS, "points": points}
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
