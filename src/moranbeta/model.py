"""The two-allele Moran chain on {0, ..., 2n}.

A population of 2n genes with per-step symmetric reproduction and mutation
rates u (type 1 -> type 2) and v (type 2 -> type 1) gives the birth-death
kernel

    p(i, i-1) = [i(2n-i)(1-v) + u i^2] / (2n)^2
    p(i, i+1) = [i(2n-i)(1-u) + v (2n-i)^2] / (2n)^2
    p(i, i)   = 1 - p(i, i-1) - p(i, i+1).

Parameters are carried in the rescaled form a = 2nv, b = 2nu, the regime in
which the rescaled count W = I/(2n) under the stationary law approaches a
Beta(a,b) variable.  Everything rational is kept as exact `Fraction`s;
floating-point mirrors are always derived from the rationals, never the
other way around.

The stationary distribution is computed three independent ways: exact
detailed-balance ratio products (the reference), the closed Gamma-function
formula (validating that formula numerically), and a power-iteration
fixed point (a brute-force oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    constants of the stationary law stay finite and positive.  Every kernel
    row is checked to have p(i,i) >= 0 at construction.
    """

    n: int
    a: Fraction
    b: Fraction
    _triples: tuple[TransitionTriple, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __init__(self, n: int, a: RationalLike, b: RationalLike) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", as_fraction(a))
        object.__setattr__(self, "b", as_fraction(b))
        if self.a <= 0 or self.b <= 0:
            raise ValueError(
                f"mutation parameters must be positive, got a={self.a}, b={self.b}"
            )
        if self.a + self.b >= 2 * n:
            raise ValueError(
                f"need a + b < 2n for a valid mutation regime, got "
                f"a + b = {self.a + self.b} with 2n = {2 * n}"
            )
        object.__setattr__(self, "_triples", self._build_triples())

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

    @property
    def states(self) -> int:
        """Number of lattice states, 2n + 1."""
        return 2 * self.n + 1

    def w(self, i: int) -> Fraction:
        """Rescaled support point w_i = i/(2n)."""
        return Fraction(i, 2 * self.n)

    def _build_triples(self) -> tuple[TransitionTriple, ...]:
        m = 2 * self.n
        u, v = self.u, self.v
        denom = m * m
        one_minus_u = 1 - u
        one_minus_v = 1 - v
        rows = []
        for i in range(m + 1):
            j = m - i
            down = (i * j * one_minus_v + u * i * i) / denom
            up = (i * j * one_minus_u + v * j * j) / denom
            stay = 1 - down - up
            if stay < 0:
                raise ValueError(
                    f"kernel row {i} has negative holding probability "
                    f"p(i,i) = {stay}; parameters outside the valid regime"
                )
            rows.append(TransitionTriple(down=down, stay=stay, up=up))
        return tuple(rows)


def transition(params: ModelParams, i: int) -> TransitionTriple:
    """Exact kernel row at state i."""
    if not 0 <= i <= 2 * params.n:
        raise IndexError(f"state {i} outside {{0,...,{2 * params.n}}}")
    return params._triples[i]


@dataclass(frozen=True, eq=False)
class LatticeDistribution:
    """Probability vector on {0,...,2n}, support points w_i = i/(2n).

    `probs_exact` is present when the distribution was produced by exact
    rational arithmetic; `probs` is the floating mirror used for numerics.
    """

    n: int
    probs: np.ndarray
    probs_exact: tuple[Fraction, ...] | None = None

    @classmethod
    def from_exact(
        cls, n: int, probs: Sequence[Fraction], validate: bool = True
    ) -> "LatticeDistribution":
        probs = tuple(Fraction(p) for p in probs)
        if len(probs) != 2 * n + 1:
            raise ValueError(f"expected {2 * n + 1} probabilities, got {len(probs)}")
        if validate:
            if any(p < 0 for p in probs):
                raise ValueError("negative probability entry")
            if sum(probs) != 1:
                raise ValueError("exact probabilities must sum to 1")
        mirror = np.array([float(p) for p in probs], dtype=float)
        return cls(n=n, probs=mirror, probs_exact=probs)

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
        return cls(n=n, probs=probs / total, probs_exact=None)

    @property
    def support(self) -> np.ndarray:
        """Float support points i/(2n)."""
        return np.arange(2 * self.n + 1) / (2 * self.n)

    def w(self, i: int) -> Fraction:
        return Fraction(i, 2 * self.n)

    def require_exact(self) -> tuple[Fraction, ...]:
        if self.probs_exact is None:
            raise ValueError("operation requires an exact rational distribution")
        return self.probs_exact

    def moment_exact(self, r: int) -> Fraction:
        """Exact E[W^r] by brute-force summation over the support."""
        probs = self.require_exact()
        m = 2 * self.n
        return sum(
            (p * Fraction(i, m) ** r for i, p in enumerate(probs)), Fraction(0)
        )

    def tv(self, other: "LatticeDistribution") -> float:
        """Total variation distance against another lattice law (floats)."""
        if other.n != self.n:
            raise ValueError("distributions live on different lattices")
        return 0.5 * float(np.abs(self.probs - other.probs).sum())


def stationary_ratio_product(params: ModelParams) -> LatticeDistribution:
    """Stationary law via exact detailed-balance ratios.

    For a birth-death chain, pi(i+1)/pi(i) = p(i,i+1)/p(i+1,i); the products
    are accumulated and normalized in exact rational arithmetic.  This is
    the reference representation of pi.
    """
    m = 2 * params.n
    triples = params._triples
    weights = [Fraction(1)]
    for i in range(m):
        up = triples[i].up
        down_next = triples[i + 1].down
        if down_next == 0:
            raise ZeroDivisionError(
                f"p({i + 1},{i}) = 0; detailed-balance ratios undefined"
            )
        weights.append(weights[-1] * up / down_next)
    total = sum(weights)
    probs = tuple(w / total for w in weights)
    return LatticeDistribution.from_exact(params.n, probs, validate=False)


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
    return LatticeDistribution(n=params.n, probs=w, probs_exact=None)


def _float_kernel(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    triples = params._triples
    down = np.array([float(t.down) for t in triples])
    stay = np.array([float(t.stay) for t in triples])
    up = np.array([float(t.up) for t in triples])
    return down, stay, up


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
    triples = params._triples
    m = 2 * params.n
    out = [probs[i] * triples[i].stay for i in range(m + 1)]
    for i in range(m):
        out[i] += probs[i + 1] * triples[i + 1].down
        out[i + 1] += probs[i] * triples[i].up
    return tuple(out)


def detailed_balance_residuals(
    params: ModelParams, pi: LatticeDistribution
) -> tuple[Fraction, ...]:
    """Exact residuals pi(i)p(i,i+1) - pi(i+1)p(i+1,i) along every edge."""
    probs = pi.require_exact()
    triples = params._triples
    return tuple(
        probs[i] * triples[i].up - probs[i + 1] * triples[i + 1].down
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
            return LatticeDistribution(n=params.n, probs=pi, probs_exact=None)
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
