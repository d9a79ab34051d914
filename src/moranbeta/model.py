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
common denominator (`ModelParams.rows`), the exact stationary law read off
those rows (`stationary_ratio_product`: floats and enclosures by one
interval walk, exact sums only on demand).  Floating values are correctly
rounded quotients of the integers, never the other way around.  The
independent oracles the test suite checks the law against live with the
tests.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from fractions import Fraction
from typing import Union

from .special import _LANCZOS_MIN_T, _decimal_text

__all__ = [
    "RationalLike",
    "ModelParams",
    "LatticeDistribution",
    "stationary_ratio_product",
]

RationalLike = Union[int, str, Fraction, float]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce to an exact Fraction (strings may be 'p/q' or decimal)."""
    return x if isinstance(x, Fraction) else Fraction(x)


class _Frozen:
    """Rejects attribute assignment and deletion on instances.  Constructors
    set their fields through `__dict__`, as `cached_property` does."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ModelParams(_Frozen):
    """Population scale n and rescaled mutation rates (a, b) = (2nv, 2nu).

    Requires a > 0, b > 0 and a + b < 2n (a refusal shows each value to 17
    significant digits, whatever its size), so u + v < 1 and the closed-form
    constants of the stationary law stay finite and positive.  a and b must
    also be at least 1e-300 (`special._LANCZOS_MIN_T`), the one shape floor
    of the package: below it ln Gamma of a shape needs its recurrence, and both
    laws sit so close to the endpoints that the float W1 is rounding noise
    (1.1e-13 at n=10, a=2.3e-308, b=3e-308, where a 30-digit oracle gives
    below 1e-31).  Nor may a or b exceed the largest float (checked before
    the floor, which compares floats): that needs n > 5e307, more than
    10^308 states, and K(a,b) is never a finite float there.  With
    q = lcm(den a, den b), qa = q a, qb = q b, m = 2n, kernel_den = q m^3
    and c = qm - qa - qb = q(m - a - b) > 0, each kept as a field (the law's
    `total` and `moment_recursion` read c from here too),

        p(i,i-1) = D_i / kernel_den,  D_i = i(c(m-i) + qb m),
        p(i,i+1) = U_i / kernel_den,  U_i = (m-i)(c i + qa m),

    and S_i = 2((qa+qb) i - qa m)(i - n), the numerators of the condition 2
    remainder S(i/m) over 2 kernel_den, negative only strictly between
    m a/(a+b) and n.  `rows`, the table (D_i), (U_i), (S_i), is built on
    first read, checked for p(i,i) >= 0 in every row and kept, so a gate
    that only constructs the points does no per-state work.  The check
    never fires in the regime: writing m^2 = (i + (m-i))^2,

        p(i,i) kernel_den = (qm - qb) i^2 + (qm - qa)(m-i)^2 + (qa + qb) i(m-i),

    and a + b < 2n gives qm > qa and qm > qb, so every term is nonnegative
    and one of the first two is positive.  It stays as a guard on the
    row formulas; the CLI reads the rows inside its guard, so a failure
    there would be an internal error (exit 3).  Instances are immutable,
    and equal, hashed and shown by (n, a, b).
    """

    n: int
    a: Fraction
    b: Fraction
    q: int
    qa: int
    qb: int
    c: int
    kernel_den: int

    def __init__(self, n: int, a: RationalLike, b: RationalLike) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        a, b = as_fraction(a), as_fraction(b)
        if a <= 0 or b <= 0:
            raise ValueError(
                f"mutation parameters must be positive, "
                f"got a={_decimal_text(a)}, b={_decimal_text(b)}"
            )
        if a + b >= 2 * n:
            raise ValueError(
                f"need a + b < 2n for a valid mutation regime, got "
                f"a + b = {_decimal_text(a + b)} with 2n = {2 * n}"
            )
        if max(a, b) > sys.float_info.max:
            raise ValueError(
                f"mutation parameters must be at most the largest float {sys.float_info.max!r}, "
                f"got a={_decimal_text(a)}, b={_decimal_text(b)}"
            )
        if min(float(a), float(b)) < _LANCZOS_MIN_T:
            raise ValueError(
                f"mutation parameters must be at least {_LANCZOS_MIN_T!r} (below it ln Gamma needs "
                f"its recurrence and W1 is rounding noise), got a={float(a)!r}, b={float(b)!r}"
            )
        m = 2 * n
        q = math.lcm(a.denominator, b.denominator)
        qa, qb = int(q * a), int(q * b)
        # frozen: set the fields once, past __setattr__
        self.__dict__.update(
            n=n, a=a, b=b, q=q, qa=qa, qb=qb, c=q * m - qa - qb, kernel_den=q * m**3
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.a, self.b) == (other.n, other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.n, self.a, self.b))

    def __repr__(self) -> str:
        return f"ModelParams(n={self.n!r}, a={self.a!r}, b={self.b!r})"

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

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Numerators (D_i), (U_i) and (S_i), i = 0..2n."""
        n, qa, qb, c = self.n, self.qa, self.qb, self.c
        m, states = 2 * n, range(2 * n + 1)
        down = tuple(i * (c * (m - i) + qb * m) for i in states)
        up = tuple((m - i) * (c * i + qa * m) for i in states)
        for i, (d, u) in enumerate(zip(down, up)):
            if d + u > self.kernel_den:
                raise ValueError(
                    f"kernel row {i} has negative holding probability p(i,i); "
                    f"parameters outside the valid regime"
                )
        return down, up, tuple(2 * ((qa + qb) * i - qa * m) * (i - n) for i in states)


class LatticeDistribution(_Frozen):
    """The stationary law of one point on {0,...,2n}: pi(i) = w_i / total.

    Kept: `probs`, the floats RN(w_i / total), and `enclosures`, bounds
    (lo, hi) in one unit w_0 2**e, which cancels from every ratio, on the
    sums total = sum_i w_i and neg_s_sum = sum_i w_i S_i^-, where S_i^- =
    max(-S_i, 0) for S_i of `ModelParams.rows`.  Built on first access and
    kept, for `--exact` and `stein`'s fallback: those two sums exactly
    (total in closed form, neg_s_sum 0 with no split where no S_i < 0).
    `probs_exact`, the reduced `Fraction`s w_i / total from each state's
    own weight (`_weight`), is for the tests and `perfbench/tracer.py`;
    the exact walk of all the weights lives with the tests.  Immutable;
    compares by identity.
    """

    params: ModelParams
    probs: tuple[float, ...]
    enclosures: tuple[tuple[int, int], tuple[int, int]]

    def __init__(self, params: ModelParams, probs: tuple[float, ...], enclosures) -> None:
        self.__dict__.update(params=params, probs=probs, enclosures=enclosures)

    @property
    def n(self) -> int:
        return self.params.n

    @cached_property
    def total(self) -> int:
        return _total(self.params)

    @cached_property
    def neg_s_sum(self) -> int:
        down, up, s = self.params.rows
        if min(s) >= 0:  # no S_i < 0 (a = b, say): nothing to split
            return 0
        return _split(down, up, s, 0, len(down))[2] // math.factorial(2 * self.n)

    @cached_property
    def probs_exact(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(_weight(self.params, i), self.total) for i in range(2 * self.n + 1))


# Bits of each bound in the interval walk.  Wider only makes a state left
# to its own exact weight rarer; the bounds hold at any width.
_MIRROR_BITS = 192


def stationary_ratio_product(params: ModelParams) -> LatticeDistribution:
    """Stationary law via exact detailed-balance ratios along the kernel
    rows (D_i, U_i) of the table `ModelParams.rows`.

    For a birth-death chain, pi(i+1)/pi(i) = p(i,i+1)/p(i+1,i) = U_i/D_{i+1},
    so pi(i) is proportional to (prod_{k<i} U_k)(prod_{k>i} D_k).  With
    m = 2n every D_k with k >= 1 is a multiple of k, and dividing by
    m! = prod_{k>=1} k leaves the integer weights

        w_0 = prod_{k>=1} D_k / k,   w_{i+1} = w_i U_i / D_{i+1},

    and pi(i) = w_i / total.  This is Beta-Binomial(m, alpha, beta) with
    alpha = m a/(m-a-b), beta = m b/(m-a-b) (Ewens 2004), so for the c of
    `ModelParams`, total = sum_j w_j = prod_{j<m} (c j + (qa+qb) m), which
    is c^m times the rising factorial (alpha+beta)^(m).

    One interval walk gives what `LatticeDistribution` keeps.  All it keeps
    are ratios of sums over the weights, so it walks w_i / w_0 from 1:
    bounds lo_i 2**e_i <= w_i / w_0 <= hi_i 2**e_i, hi_i <= 2**(bits + 1)
    for bits = `_MIRROR_BITS`, follow the recursion, with products,
    quotients and renormalising right shifts rounded down for lo and up for
    hi and exact left shifts, so they hold at any width, with no
    accumulated-error constant.  Each enclosure adds c_i lo_i 2**(e_i - e)
    floored and c_i hi_i 2**(e_i - e) ceiled, e = max e_i, for c_i = 1 and,
    only where S_i < 0, c_i = S_i^-.  Each pi(i) is RN(w_i / total) read
    from lo_i 2**(e_i - e) and hi_i 2**(e_i - e) over that enclosure of
    total by `_round_enclosed`.  A state it leaves undecided (a near-tie,
    rare at 192 bits), and every state where a narrow width loses the
    bound on z_lo below, is RN(w_i / total) from its own weight alone
    (`_weight`), with total (`_total`) built at most once and not kept.
    The law builds its exact sums only when read: total as that product,
    neg_s_sum by `_split` where some S_i < 0.
    """
    bits = _MIRROR_BITS
    down, up, s_row = params.rows
    states = [(1 << bits, 1 << bits, -bits)]  # (lo_0, hi_0, e_0): w_0 / w_0
    for u, d in zip(up, down[1:]):
        states.append(_scaled(*states[-1], u, d, bits))
    top = max(e for _, _, e in states)
    z_lo = z_hi = s_lo = s_hi = 0
    for (lo, hi, e), s in zip(states, s_row):
        k = top - e
        z_lo += lo >> k
        z_hi -= -hi >> k
        if s < 0:  # S_i^- = -s
            s_lo += lo * -s >> k
            s_hi -= hi * s >> k
    # Each hi_i <= 2**(bits + 1) and z_lo >= 2**(bits - 2), checked as a
    # narrow width can lose it, so past a shift of 1100 both quotients are
    # below 2**-1097 and round to 0: a longer shift need not be built.
    total, probs = 0, []
    for i, (lo, hi, e) in enumerate(states):
        k = min(top - e, 1100)
        p = _round_enclosed(lo, hi, z_lo << k, z_hi << k) if z_lo >> (bits - 2) else None
        if p is None:  # undecided: RN(w_i / total) from the state's own weight
            total = total or _total(params)
            p = _weight(params, i) / total
        probs.append(p)
    return LatticeDistribution(params, tuple(probs), ((z_lo, z_hi), (s_lo, s_hi)))


# Segments of at most this many states are folded in one loop.
_SPLIT_LEAVES = 16


def _split(down, up, s, lo: int, hi: int) -> tuple[int, int, int]:
    # Binary splitting (Haible & Papanikolaou 1998) over the states lo..hi-1:
    # the products PU, PD of their U_k and D_k, and T = sum_i S_i^-
    # (prod_{k<i} U_k)(prod_{k>i} D_k).  Segments merge as (PU1 PU2,
    # PD1 PD2, T1 PD2 + PU1 T2); the root's T over m! is neg_s_sum.
    if hi - lo <= _SPLIT_LEAVES:
        pu, pd, t = 1, 1, 0
        for i in range(lo, hi):
            d = down[i]
            t = t * d + pu * max(-s[i], 0)
            pu *= up[i]
            pd *= d
        return pu, pd, t
    mid = (lo + hi) // 2
    pu1, pd1, t1 = _split(down, up, s, lo, mid)
    pu2, pd2, t2 = _split(down, up, s, mid, hi)
    return pu1 * pu2, pd1 * pd2, t1 * pd2 + pu1 * t2


def _round_enclosed(n_lo: int, n_hi: int, d_lo: int, d_hi: int) -> float | None:
    """RN(n / d) for any n in [n_lo, n_hi] and d in [d_lo, d_hi], all
    integers >= 0, where both ends of that enclosure round alike; None
    where they differ or d_lo is 0.

    Rounding to nearest is monotone, so RN(n_lo / d_hi) <= RN(n / d) <=
    RN(n_hi / d_lo), and where the ends agree every value in between
    rounds to them.  Int true division rounds each end correctly, into
    the subnormals and to 0, so this holds over the whole float range.
    """
    if d_lo and (x := n_lo / d_hi) == n_hi / d_lo:
        return x
    return None


def _total(params: ModelParams) -> int:
    # Z = sum_i w_i = prod_{j<m} (c j + (qa+qb) m), m = 2n: the
    # Beta-Binomial normaliser of `stationary_ratio_product`.
    m = 2 * params.n
    return _rising((params.qa + params.qb) * m, params.c, m)


def _rising(base: int, c: int, k: int) -> int:
    # prod_{j<k} (base + c j), pairwise so Karatsuba pays: at k = 20000, 1/4 of math.prod's time.
    factors = [base + c * j for j in range(k)] or [1]
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


def _weight(params: ModelParams, i: int) -> int:
    # w_i alone: C(m,i) prod_{j<i} (qa m + c j) prod_{j<m-i} (qb m + c j).
    m, c = 2 * params.n, params.c
    return math.comb(m, i) * _rising(params.qa * m, c, i) * _rising(params.qb * m, c, m - i)


def _scaled(lo: int, hi: int, exp: int, num: int, den: int, bits: int):
    # Bounds on (lo, hi) * num / den, renormalised so the quotient keeps
    # about `bits` bits: floor for lo, ceil for hi, exact left shifts.
    lo, hi = lo * num, hi * num
    excess = hi.bit_length() - den.bit_length() - bits
    if excess > 0:
        lo, hi = lo >> excess, -(-hi >> excess)
    else:
        lo, hi = lo << -excess, hi << -excess
    return lo // den, -(-hi // den), exp + excess

