"""Order-statistic transforms of a parent distribution.

``min_order`` and ``max_order`` give the series- and parallel-system
lifetimes; ``KthOrder`` covers the general (n-k+1)-out-of-n system via a
direct binomial sum (n capped at 60).  Its sf sums the terms i < k and its
cdf the terms i >= k, so neither is formed as one minus the other; every
term is nonnegative, so a plain sum is accurate.  Likewise the complements
of the extremes, ``MinOrder.cdf`` and ``MaxOrder.sf``, are
-expm1(n log1p(-G)) with G the parent's cdf or sf, not 1 - sf or 1 - cdf.
As for every distribution, ``cdf``, ``sf`` and ``pdf`` take a float or a
float64 array, and the same formulas run on the parent's values of either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import Distribution, FloatOrArray, Support, _check_p, _piecewise, _xp
from .errors import InvalidOrder

#: largest sample size of an order statistic
MAX_N = 60

#: float binomial coefficients C(n, i), i = 0..n, for every n <= MAX_N
_BINOM = tuple(tuple(float(math.comb(n, i)) for i in range(n + 1)) for n in range(MAX_N + 1))


@dataclass(frozen=True)
class OrderSpec:
    """Rank k out of a sample of size n; 1 <= k <= n."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1 or not (1 <= self.k <= self.n):
            raise InvalidOrder(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.n > MAX_N:
            raise InvalidOrder(f"n capped at {MAX_N} to avoid catastrophic cancellation")


def _check_n(n: int) -> None:
    if n < 1:
        raise InvalidOrder(f"sample size must be >= 1, got {n}")
    if n > MAX_N:
        raise InvalidOrder(f"n capped at {MAX_N}")


@dataclass(frozen=True)
class MinOrder(Distribution):
    """Distribution of X_{1:n}: sf = parent sf to the n-th power."""

    parent: Distribution
    n: int

    def __post_init__(self) -> None:
        _check_n(self.n)

    @cached_property
    def support(self) -> Support:
        return self.parent.support

    @property
    def breakpoints(self) -> tuple[float, ...]:  # type: ignore[override]
        return self.parent.breakpoints

    @property
    def has_finite_mean(self) -> bool:  # type: ignore[override]
        # sf^n <= sf, so a finite parent mean is sufficient; the folded-Cramer
        # tail 1/(1+tx)^n also integrates for n >= 2
        return self.parent.has_finite_mean or self.n >= 2

    def sf(self, x: FloatOrArray) -> FloatOrArray:
        return self.parent.sf(x) ** self.n

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return _one_minus_power(self.parent.cdf(x), self.n)

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        return _weighted_density(self.n * self.parent.sf(x) ** (self.n - 1), self.parent.pdf(x))

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        _check_p(p)
        # 1 - (1 - p)^(1/n) without the cancellation that loses a small p; numpy's
        # log1p and expm1 for a float too, which round otherwise than the C library's
        q = -np.expm1(np.log1p(-p) / self.n)
        return self.parent.quantile(q if isinstance(p, np.ndarray) else float(q))

    def hazard_rate(self, t: float) -> float:
        return self.n * self.parent.hazard_rate(t)


@dataclass(frozen=True)
class MaxOrder(Distribution):
    """Distribution of X_{n:n}: cdf = parent cdf to the n-th power."""

    parent: Distribution
    n: int

    def __post_init__(self) -> None:
        _check_n(self.n)

    @cached_property
    def support(self) -> Support:
        return self.parent.support

    @property
    def breakpoints(self) -> tuple[float, ...]:  # type: ignore[override]
        return self.parent.breakpoints

    @property
    def has_finite_mean(self) -> bool:  # type: ignore[override]
        return self.parent.has_finite_mean

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return self.parent.cdf(x) ** self.n

    def sf(self, x: FloatOrArray) -> FloatOrArray:
        return _one_minus_power(self.parent.sf(x), self.n)

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        return _weighted_density(self.n * self.parent.cdf(x) ** (self.n - 1), self.parent.pdf(x))

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        _check_p(p)
        return self.parent.quantile(_root(p, self.n))

    def reversed_hazard(self, t: float) -> float:
        return self.n * self.parent.reversed_hazard(t)


@dataclass(frozen=True)
class KthOrder(Distribution):
    """Distribution of X_{k:n} for a general rank k."""

    parent: Distribution
    spec: OrderSpec

    @cached_property
    def support(self) -> Support:
        return self.parent.support

    @property
    def breakpoints(self) -> tuple[float, ...]:  # type: ignore[override]
        return self.parent.breakpoints

    @property
    def has_finite_mean(self) -> bool:  # type: ignore[override]
        return self.parent.has_finite_mean or self.spec.n - self.spec.k + 1 >= 2

    def sf(self, x: FloatOrArray) -> FloatOrArray:
        return _lower_binomial_sum(self.spec.n, self.spec.k, self.parent.cdf(x), self.parent.sf(x))

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        # the terms i >= k of the binomial sum, i.e. the terms j = n - i < n - k + 1
        # with the roles of F and S swapped
        k, n = self.spec.k, self.spec.n
        return _lower_binomial_sum(n, n - k + 1, self.parent.sf(x), self.parent.cdf(x))

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        k, n = self.spec.k, self.spec.n
        weight = k * math.comb(n, k) * self.parent.cdf(x) ** (k - 1) * self.parent.sf(x) ** (n - k)
        return _weighted_density(weight, self.parent.pdf(x))

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        """The base-class bisection, run for each element of an array as for a float.

        numpy's exp and power can round otherwise than the C library's, and the
        binomial sum adds up several such terms.  Near p = 1 the cdf is flat, so
        a bisection of the whole array through the array cdf can end far from
        the float's quantile: 1.4e-5 away at p = 1 - 5.2e-12 for
        ``KthOrder(TwoExpMax(), 3:4)``, 1.2e-8 at p = 1 - 2.6e-10 for
        ``KthOrder(Exponential(1), 2:5)``.
        """
        if isinstance(p, np.ndarray):
            _check_p(p)
            return np.array([self.quantile(q) for q in p.tolist()], dtype=np.float64)
        return super().quantile(p)


def min_order(d: Distribution, n: int) -> Distribution:
    """Lifetime of a series system of n iid components."""
    _check_n(n)
    return d if n == 1 else MinOrder(d, n)


def max_order(d: Distribution, n: int) -> Distribution:
    """Lifetime of a parallel system of n iid components."""
    _check_n(n)
    return d if n == 1 else MaxOrder(d, n)


def kth_order(d: Distribution, k: int, n: int) -> Distribution:
    spec = OrderSpec(k, n)
    if k == 1:
        return min_order(d, n)
    if k == n:
        return max_order(d, n)
    return KthOrder(d, spec)


def kth_order_sf(d: Distribution, spec: OrderSpec, x: float) -> float:
    """P(X_{k:n} > x) = sum_{i<k} C(n,i) F^i S^(n-i) with F, S the parent cdf, sf at x."""
    return _lower_binomial_sum(spec.n, spec.k, d.cdf(x), d.sf(x))


def _root(p: FloatOrArray, n: int) -> FloatOrArray:
    """p ** (1/n), rounded for an array exactly as the scalar ``**`` rounds it.

    ``np.float_power`` calls the C library's pow, as Python's float ``**`` does;
    numpy's vectorized ``power`` can differ in the last bit, and the parent's
    quantile amplifies that bit near p = 0 and p = 1.
    """
    return np.float_power(p, 1.0 / n) if isinstance(p, np.ndarray) else p ** (1.0 / n)


def _one_minus_power(g: FloatOrArray, n: int) -> FloatOrArray:
    """1 - (1 - g)^n, accurate when g is small: the complement of an extreme order."""
    return _piecewise(g, 0.0, 1.0, 0.0, 1.0, lambda h: -_xp(h).expm1(n * _xp(h).log1p(-h)))


def _weighted_density(weight: FloatOrArray, f: FloatOrArray) -> FloatOrArray:
    """weight * f, and 0 where the weight is 0.

    The parent's density f can be infinite there (at 0, for a Weibull or
    Power shape below 1), where 0 * inf would give nan.
    """
    if isinstance(weight, np.ndarray):
        return weight * np.where(weight == 0.0, 0.0, f)
    return weight * f if weight != 0.0 else 0.0


def _lower_binomial_sum(n: int, m: int, F: FloatOrArray, S: FloatOrArray) -> FloatOrArray:
    """sum_{i<m} C(n,i) F^i S^(n-i), as S^(n-m+1) times a Horner sum in S; elementwise for arrays."""
    row = _BINOM[n]
    acc = 0.0
    Fi = 1.0
    for i in range(m):
        acc = acc * S + row[i] * Fi
        Fi *= F
    return acc * S ** (n - m + 1)
