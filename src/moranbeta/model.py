"""The two-allele Moran chain on {0, ..., 2n}.

A population of 2n genes with per-step symmetric reproduction and mutation
rates u (type 1 -> type 2) and v (type 2 -> type 1) gives the birth-death
kernel

    p(i, i-1) = [i(2n-i)(1-v) + u i^2] / (2n)^2
    p(i, i+1) = [i(2n-i)(1-u) + v (2n-i)^2] / (2n)^2
    p(i, i)   = 1 - p(i, i-1) - p(i, i+1).

Parameters are carried in the rescaled form a = 2nv, b = 2nu, the regime in
which the rescaled count W = I/(2n) under the stationary law approaches a
Beta(a,b) variable.  This module holds the kernel, as integer rows over one
common denominator (`ModelParams`), the exact stationary law walked along
those rows (`stationary_ratio_product`), and seeded sampling from the law
and from the chain.  Floating values are correctly rounded quotients of
the integers, never the other way around.  The independent oracles the
test suite checks the law against live with the tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

__all__ = [
    "RationalLike",
    "ModelParams",
    "LatticeDistribution",
    "stationary_ratio_product",
    "sample_stationary",
    "simulate_chain",
]

RationalLike = Union[int, str, Fraction, float]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce to an exact Fraction (strings may be 'p/q' or decimal)."""
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class ModelParams:
    """Population scale n and rescaled mutation rates (a, b) = (2nv, 2nu).

    Requires a > 0, b > 0 and a + b < 2n, so u + v < 1 and the closed-form
    constants of the stationary law stay finite and positive; a and b must
    also be at least the smallest normal float, so the float shapes of the
    Beta target are normal positive numbers.  With
    q = lcm(den a, den b), qa = q a, qb = q b, m = 2n and kernel_den = q m^3,

        p(i,i-1) = D_i / kernel_den,  D_i = i(m-i)(qm - qa) + qb i^2,
        p(i,i+1) = U_i / kernel_den,  U_i = i(m-i)(qm - qb) + qa (m-i)^2;

    `down_poly` and `up_poly` hold the coefficients of D and U in powers of
    i.  Construction builds the rows (D_i) and (U_i) once, checks
    p(i,i) >= 0 in every row and keeps them for `kernel_rows`.
    """

    n: int
    a: Fraction
    b: Fraction
    q: int = field(init=False, repr=False, compare=False)
    qa: int = field(init=False, repr=False, compare=False)
    qb: int = field(init=False, repr=False, compare=False)
    down_poly: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    up_poly: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    kernel_den: int = field(init=False, repr=False, compare=False)
    _rows: tuple[tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __init__(self, n: int, a: RationalLike, b: RationalLike) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        a, b = as_fraction(a), as_fraction(b)
        if a <= 0 or b <= 0:
            raise ValueError(f"mutation parameters must be positive, got a={a}, b={b}")
        if a + b >= 2 * n:
            raise ValueError(
                f"need a + b < 2n for a valid mutation regime, got "
                f"a + b = {a + b} with 2n = {2 * n}"
            )
        if min(float(a), float(b)) < sys.float_info.min:
            raise ValueError(
                f"mutation parameters must be at least {sys.float_info.min!r} "
                f"(the smallest normal float), got a={float(a)!r}, b={float(b)!r}"
            )
        m = 2 * n
        q = math.lcm(a.denominator, b.denominator)
        qa, qb, qm = int(q * a), int(q * b), q * m
        down_poly = (0, m * (qm - qa), qa + qb - qm)
        up_poly = (qa * m * m, m * (qm - qb - 2 * qa), qa + qb - qm)
        down = tuple(_quadratic(down_poly, i) for i in range(m + 1))
        up = tuple(_quadratic(up_poly, i) for i in range(m + 1))
        self.__dict__.update(  # frozen: set the fields once, past __setattr__
            n=n, a=a, b=b, q=q, qa=qa, qb=qb, kernel_den=qm * m * m,
            down_poly=down_poly, up_poly=up_poly, _rows=(down, up),
        )
        for i, (d, u) in enumerate(zip(down, up)):
            if d + u > self.kernel_den:
                raise ValueError(
                    f"kernel row {i} has negative holding probability p(i,i); "
                    f"parameters outside the valid regime"
                )

    @property
    def u(self) -> Fraction:
        return self.b / (2 * self.n)

    @property
    def v(self) -> Fraction:
        return self.a / (2 * self.n)

    @property
    def lam(self) -> Fraction:
        """The exchangeable-pair scaling constant 1/(4n^2)."""
        return Fraction(1, 4 * self.n * self.n)

    def kernel_rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Numerators (D_i, U_i) of p(i,i-1) and p(i,i+1), i = 0..2n."""
        return self._rows


def _quadratic(coef: tuple[int, int, int], i: int) -> int:
    return coef[0] + i * (coef[1] + i * coef[2])


@dataclass(frozen=True, eq=False)
class LatticeDistribution:
    """Exact probability vector on {0,...,2n}: pi(i) = weights[i] / total.

    `probs` is the floating mirror used for numerics, each entry the
    correctly rounded quotient; `probs_exact`, the same values as
    `Fraction`s, is built on first access.  No command reads it: it is kept
    for `perfbench/tracer.py`, which reads the bit length of pi(0)'s
    reduced denominator.
    """

    n: int
    probs: np.ndarray
    weights: tuple[int, ...]
    total: int

    @classmethod
    def from_weights(
        cls, n: int, weights: Sequence[int], total: int
    ) -> "LatticeDistribution":
        """Exact law pi(i) = weights[i] / total; int division rounds correctly."""
        return cls(n, np.array([w / total for w in weights]), tuple(weights), total)

    @cached_property
    def probs_exact(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.total) for w in self.weights)


def stationary_ratio_product(params: ModelParams) -> LatticeDistribution:
    """Stationary law via exact detailed-balance ratios, walked along the
    kernel rows (D_i, U_i) of `ModelParams.kernel_rows`.

    For a birth-death chain, pi(i+1)/pi(i) = p(i,i+1)/p(i+1,i) = U_i/D_{i+1},
    so pi(i) is proportional to (prod_{k<i} U_k)(prod_{k>i} D_k).  With
    m = 2n every D_k with k >= 1 is a multiple of k, and dividing the
    product by m! = prod_{k>=1} k leaves the integer weights

        w_0 = prod_{k>=1} D_k / k,   w_{i+1} = w_i U_i / D_{i+1},

    where w_0 comes from a balanced product tree and every step divides
    exactly: one big-by-small multiply and one exact division by a small
    integer per state.  pi(i) = w_i / sum_j w_j is the reference
    representation of pi.
    """
    down, up = params.kernel_rows()
    m = 2 * params.n
    w = _product([down[k] // k for k in range(1, m + 1)])
    weights = [w]
    for i in range(m):
        w = w * up[i] // down[i + 1]
        weights.append(w)
    return LatticeDistribution.from_weights(params.n, weights, sum(weights))


def _product(xs: list[int]) -> int:
    # Balanced product tree: multiplies operands of similar size.
    while len(xs) > 1:
        xs = [math.prod(xs[i : i + 2]) for i in range(0, len(xs), 2)]
    return xs[0]


def _float_kernel(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    down, up = params.kernel_rows()
    den = params.kernel_den
    stay = [den - d - u for d, u in zip(down, up)]
    return tuple(np.array([x / den for x in row]) for row in (down, stay, up))


def sample_stationary(
    dist: LatticeDistribution, seed: int, count: int
) -> np.ndarray:
    """`count` i.i.d. state indices by inverse-CDF lookup; seeded, reproducible."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    cdf = np.cumsum(dist.probs)
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, 2 * dist.n).astype(np.int64)


def simulate_chain(
    params: ModelParams, start: int, steps: int, seed: int
) -> np.ndarray:
    """Trajectory of `steps` kernel steps from `start` (length steps + 1).

    Each step draws one uniform and moves down / stays / moves up according
    to the cumulative ordering (down, stay, up).  Deterministic given seed.
    """
    if not 0 <= start <= 2 * params.n:
        raise IndexError(f"start state {start} outside {{0,...,{2 * params.n}}}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    down, stay, _ = _float_kernel(params)
    t1 = down.tolist()
    t2 = (down + stay).tolist()
    rng = np.random.default_rng(seed)
    us = rng.random(steps)
    path = np.empty(steps + 1, dtype=np.int64)
    path[0] = start
    i = start
    for k in range(steps):
        u = us[k]
        if u < t1[i]:
            i -= 1
        elif u >= t2[i]:
            i += 1
        path[k + 1] = i
    return path
