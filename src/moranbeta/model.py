"""The two-allele Moran chain on {0, ..., 2n}.

A population of 2n genes with per-step symmetric reproduction and mutation
rates u (type 1 -> type 2) and v (type 2 -> type 1) gives the birth-death
kernel

    p(i, i-1) = [i(2n-i)(1-v) + u i^2] / (2n)^2
    p(i, i+1) = [i(2n-i)(1-u) + v (2n-i)^2] / (2n)^2
    p(i, i)   = 1 - p(i, i-1) - p(i, i+1).

Parameters are carried in the rescaled form a = 2nv, b = 2nu, the regime in
which the rescaled count W = I/(2n) under the stationary law approaches a
Beta(a,b) variable.  Exact quantities are integers over one common
denominator (see `ModelParams` and `stationary_ratio_product`); floating
mirrors are their correctly rounded quotients, never the other way around.

The stationary distribution is computed three independent ways: exact
detailed-balance ratio products (the reference), the closed Gamma-function
formula (validating that formula numerically), and a power-iteration
fixed point (a brute-force oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .special import ConvergenceError, Tolerance, log_gamma

__all__ = [
    "RationalLike",
    "ModelParams",
    "TransitionTriple",
    "LatticeDistribution",
    "transition",
    "stationary_ratio_product",
    "stationary_closed_form",
    "closed_form_log_weights",
    "power_iteration_oracle",
    "sample_stationary",
    "simulate_chain",
    "apply_kernel",
    "apply_kernel_exact",
    "detailed_balance_residuals",
    "DEFAULT_POWER_TOL",
]

RationalLike = Union[int, str, Fraction, float]

DEFAULT_POWER_TOL = Tolerance(abs_eps=1e-14, rel_eps=1e-12, max_iter=5_000_000)


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce to an exact Fraction (strings may be 'p/q' or decimal)."""
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class TransitionTriple:
    """One row of the kernel: exact (down, stay, up) probabilities."""

    down: Fraction
    stay: Fraction
    up: Fraction

    def __post_init__(self) -> None:
        for name in ("down", "stay", "up"):
            p = getattr(self, name)
            if not (0 <= p <= 1):
                raise ValueError(f"transition probability {name}={p} outside [0,1]")
        if self.down + self.stay + self.up != 1:
            raise ValueError("transition probabilities must sum to 1 exactly")


@dataclass(frozen=True)
class ModelParams:
    """Population scale n and rescaled mutation rates (a, b) = (2nv, 2nu).

    Requires a > 0, b > 0 and a + b < 2n, so u + v < 1 and the closed-form
    constants of the stationary law stay finite and positive.  With
    q = lcm(den a, den b), qa = q a, qb = q b, m = 2n and kernel_den = q m^3,

        p(i,i-1) = D_i / kernel_den,  D_i = i(m-i)(qm - qa) + qb i^2,
        p(i,i+1) = U_i / kernel_den,  U_i = i(m-i)(qm - qb) + qa (m-i)^2;

    `down_poly` and `up_poly` hold the coefficients of D and U in powers of
    i.  Construction checks p(i,i) >= 0 in every row.
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
        m = 2 * n
        q = math.lcm(a.denominator, b.denominator)
        qa, qb, qm = int(q * a), int(q * b), q * m
        self.__dict__.update(  # frozen: set the fields once, past __setattr__
            n=n, a=a, b=b, q=q, qa=qa, qb=qb, kernel_den=qm * m * m,
            down_poly=(0, m * (qm - qa), qa + qb - qm),
            up_poly=(qa * m * m, m * (qm - qb - 2 * qa), qa + qb - qm),
        )
        for i, (d, u) in enumerate(zip(*self.kernel_rows())):
            if d + u > self.kernel_den:
                raise ValueError(
                    f"kernel row {i} has negative holding probability p(i,i); "
                    f"parameters outside the valid regime"
                )

    @classmethod
    def from_rates(cls, n: int, u: RationalLike, v: RationalLike) -> "ModelParams":
        """Construct from the raw per-step mutation rates (u, v)."""
        u = as_fraction(u)
        v = as_fraction(v)
        return cls(n, a=2 * n * v, b=2 * n * u)

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

    def kernel_rows(self) -> tuple[list[int], list[int]]:
        """Numerators (D_i, U_i) of p(i,i-1) and p(i,i+1), i = 0..2n."""
        states = range(2 * self.n + 1)
        down = [_quadratic(self.down_poly, i) for i in states]
        return down, [_quadratic(self.up_poly, i) for i in states]


def _quadratic(coef: tuple[int, int, int], i: int) -> int:
    return coef[0] + i * (coef[1] + i * coef[2])


def transition(params: ModelParams, i: int) -> TransitionTriple:
    """Exact kernel row at state i."""
    if not 0 <= i <= 2 * params.n:
        raise IndexError(f"state {i} outside {{0,...,{2 * params.n}}}")
    den = params.kernel_den
    down, up = _quadratic(params.down_poly, i), _quadratic(params.up_poly, i)
    return TransitionTriple(*(Fraction(x, den) for x in (down, den - down - up, up)))


@dataclass(frozen=True, eq=False)
class LatticeDistribution:
    """Probability vector on {0,...,2n}, support points w_i = i/(2n).

    An exact law carries integer `weights` with pi(i) = weights[i] / total;
    `probs_exact`, the same values as `Fraction`s, is built on first access.
    `probs` is the floating mirror used for numerics.
    """

    n: int
    probs: np.ndarray
    weights: tuple[int, ...] | None = None
    total: int = 1

    @classmethod
    def from_weights(
        cls, n: int, weights: Sequence[int], total: int
    ) -> "LatticeDistribution":
        """Exact law pi(i) = weights[i] / total; int division rounds correctly."""
        return cls(n, np.array([w / total for w in weights]), tuple(weights), total)

    @classmethod
    def from_exact(cls, n: int, probs: Sequence[Fraction]) -> "LatticeDistribution":
        probs = [Fraction(p) for p in probs]
        if len(probs) != 2 * n + 1:
            raise ValueError(f"expected {2 * n + 1} probabilities, got {len(probs)}")
        total = math.lcm(*(p.denominator for p in probs))
        weights = [p.numerator * (total // p.denominator) for p in probs]
        if any(w < 0 for w in weights):
            raise ValueError("negative probability entry")
        if sum(weights) != total:
            raise ValueError("exact probabilities must sum to 1")
        return cls.from_weights(n, weights, total)

    @classmethod
    def from_floats(cls, n: int, probs: np.ndarray) -> "LatticeDistribution":
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (2 * n + 1,):
            raise ValueError(f"expected shape ({2 * n + 1},), got {probs.shape}")
        if np.any(probs < -1e-15):
            raise ValueError("negative probability entry")
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if not math.isfinite(total) or total <= 0:
            raise ValueError("probabilities must have positive finite mass")
        return cls(n=n, probs=probs / total)

    @cached_property
    def probs_exact(self) -> tuple[Fraction, ...] | None:
        if self.weights is None:
            return None
        return tuple(Fraction(w, self.total) for w in self.weights)

    @property
    def support(self) -> np.ndarray:
        """Float support points i/(2n)."""
        return np.arange(2 * self.n + 1) / (2 * self.n)

    def w(self, i: int) -> Fraction:
        return Fraction(i, 2 * self.n)

    def require_weights(self) -> tuple[tuple[int, ...], int]:
        if self.weights is None:
            raise ValueError("operation requires an exact rational distribution")
        return self.weights, self.total

    def moment_exact(self, r: int) -> Fraction:
        """Exact E[W^r] by brute-force summation over the support."""
        weights, total = self.require_weights()
        m = 2 * self.n
        return Fraction(sum(w * i**r for i, w in enumerate(weights)), total * m**r)

    def tv(self, other: "LatticeDistribution") -> float:
        """Total variation distance against another lattice law (floats)."""
        if other.n != self.n:
            raise ValueError("distributions live on different lattices")
        return 0.5 * float(np.abs(self.probs - other.probs).sum())


def stationary_ratio_product(params: ModelParams) -> LatticeDistribution:
    """Stationary law via exact detailed-balance ratios.

    For a birth-death chain, pi(i+1)/pi(i) = p(i,i+1)/p(i+1,i) = U_i/D_{i+1},
    so pi(i) = w_i / sum_j w_j with the integer weights
    w_i = (prod_{k<i} U_k)(prod_{k>i} D_k): suffix products of D times a
    running prefix product of U.  This is the reference representation of pi.
    """
    down, up = params.kernel_rows()
    weights = [1] * len(down)
    for i in range(len(down) - 1, 0, -1):
        weights[i - 1] = weights[i] * down[i]
    prefix = 1
    for i, u in enumerate(up):
        weights[i] *= prefix
        prefix *= u
    return LatticeDistribution.from_weights(params.n, weights, sum(weights))


def closed_form_log_weights(params: ModelParams) -> np.ndarray:
    """Log of the closed-form stationary weights, including the pi(0) constant.

    With A = 2nv/(1-u-v), B = 2n(1-v)/(1-u-v), C = 2nu/(1-u-v),
    D = 2n/(1-u-v) and pi(0) = Gamma(B)Gamma(A+C)/[Gamma(D)Gamma(C)],

        ln pi(i) = ln pi(0) + ln (2n)! - ln i! - ln (2n-i)!
                   + ln Gamma(i+A) + ln Gamma(B-i) - ln Gamma(A) - ln Gamma(B).

    Exponentiating these and summing should give 1 up to floating error;
    `stationary_closed_form` renormalizes anyway.  Gamma arguments are
    assembled exactly as rationals before rounding to float so no accuracy
    is lost to argument cancellation.
    """
    n = params.n
    m = 2 * n
    one_minus = 1 - params.u - params.v  # positive by construction
    A = m * params.v / one_minus
    B = m * (1 - params.v) / one_minus
    C = m * params.u / one_minus
    D = Fraction(m) / one_minus
    lg = log_gamma
    ln_pi0 = lg(float(B)) + lg(float(A + C)) - lg(float(D)) - lg(float(C))
    const = ln_pi0 + lg(m + 1) - lg(float(A)) - lg(float(B))
    out = np.empty(m + 1, dtype=float)
    for i in range(m + 1):
        out[i] = math.fsum(
            (
                const,
                -lg(i + 1),
                -lg(m - i + 1),
                lg(float(A + i)),
                lg(float(B - i)),
            )
        )
    return out


def stationary_closed_form(params: ModelParams) -> LatticeDistribution:
    """Stationary law from the closed Gamma-function formula (floating).

    Exponentiation goes through a log-sum-exp shift, so the result is a
    normalized probability vector even when individual weights underflow
    plain `exp`.
    """
    logw = closed_form_log_weights(params)
    shift = logw.max()
    w = np.exp(logw - shift)
    w /= w.sum()
    return LatticeDistribution(n=params.n, probs=w)


def _float_kernel(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    down, up = params.kernel_rows()
    den = params.kernel_den
    stay = [den - d - u for d, u in zip(down, up)]
    return tuple(np.array([x / den for x in row]) for row in (down, stay, up))


def apply_kernel(params: ModelParams, probs: np.ndarray) -> np.ndarray:
    """One step of the chain acting on a float row vector: returns probs @ P."""
    down, stay, up = _float_kernel(params)
    probs = np.asarray(probs, dtype=float)
    out = stay * probs
    out[:-1] += probs[1:] * down[1:]
    out[1:] += probs[:-1] * up[:-1]
    return out


def apply_kernel_exact(
    params: ModelParams, probs: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """One exact step: returns probs @ P in rational arithmetic."""
    down, up = params.kernel_rows()
    den = params.kernel_den
    out = [p * (den - d - u) for p, d, u in zip(probs, down, up)]
    for i in range(2 * params.n):
        out[i] += probs[i + 1] * down[i + 1]
        out[i + 1] += probs[i] * up[i]
    return tuple(x / den for x in out)


def detailed_balance_residuals(
    params: ModelParams, pi: LatticeDistribution
) -> tuple[Fraction, ...]:
    """Exact residuals pi(i)p(i,i+1) - pi(i+1)p(i+1,i) along every edge."""
    weights, total = pi.require_weights()
    down, up = params.kernel_rows()
    den = total * params.kernel_den
    return tuple(
        Fraction(weights[i] * up[i] - weights[i + 1] * down[i + 1], den)
        for i in range(2 * params.n)
    )


def power_iteration_oracle(
    params: ModelParams, tol: Tolerance = DEFAULT_POWER_TOL
) -> LatticeDistribution:
    """Brute-force fixed point: iterate the kernel from the uniform vector.

    Stops when successive iterates differ by less than tol.abs_eps in total
    variation.  Slowly mixing for large n (relaxation time ~ 4n^2/(a+b)), so
    intended as an independent oracle at desk scale, not a production path.
    """
    down, stay, up = _float_kernel(params)
    size = 2 * params.n + 1
    pi = np.full(size, 1.0 / size)
    for _ in range(tol.max_iter):
        new = stay * pi
        new[:-1] += pi[1:] * down[1:]
        new[1:] += pi[:-1] * up[:-1]
        new /= new.sum()
        tv = 0.5 * float(np.abs(new - pi).sum())
        pi = new
        if tv < tol.abs_eps:
            return LatticeDistribution(n=params.n, probs=pi)
    raise ConvergenceError(
        f"power iteration did not reach TV < {tol.abs_eps} in {tol.max_iter} sweeps"
    )


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
