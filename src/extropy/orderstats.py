"""Order-statistic transforms of a parent distribution.

``min_order`` and ``max_order`` give the series- and parallel-system
lifetimes; ``KthOrder`` covers the general (n-k+1)-out-of-n system via a
direct binomial sum (n capped at 60).  Its sf sums the terms i < k and its
cdf the terms i >= k, so neither is formed as one minus the other; every
term is nonnegative, so a plain sum is accurate.  Likewise the complements
of the extremes, ``MinOrder.cdf`` and ``MaxOrder.sf``, are
-expm1(n log1p(-G)) with G the parent's cdf or sf, not 1 - sf or 1 - cdf.
As for every distribution, the formulas are written over arrays, and a
float reaches them as a one-element array (``distributions._elementwise``).
Each class writes its sf and cdf once, in ``_level``, as a formula of the
parent's cdf and sf values; ``sf`` and ``cdf`` run it on the parent's calls
at x, and a sweep over several orders of one parent runs it on values it
shares between them (``distributions._shared_values``).  ``KthOrder`` has no
closed-form quantile and takes the base class's bracketed Newton inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import Distribution, Support, Values, _at, _check_p, _piecewise
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


class _Order(Distribution):
    """An order statistic of ``self.parent``: its support and breakpoints, and sf and cdf by ``_level``."""

    @cached_property
    def support(self) -> Support:
        return self.parent.support

    @property
    def breakpoints(self) -> tuple[float, ...]:  # type: ignore[override]
        return self.parent.breakpoints

    def sf(self, x: np.ndarray) -> np.ndarray:
        return self._level(_at(x), True)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return self._level(_at(x), False)


@dataclass(frozen=True)
class MinOrder(_Order):
    """Distribution of X_{1:n}: sf = parent sf to the n-th power."""

    parent: Distribution
    n: int

    def __post_init__(self) -> None:
        _check_n(self.n)

    @property
    def has_finite_mean(self) -> bool:  # type: ignore[override]
        # sf^n <= sf, so a finite parent mean is sufficient; the folded-Cramer
        # tail 1/(1+tx)^n also integrates for n >= 2
        return self.parent.has_finite_mean or self.n >= 2

    def _level(self, values: Values, residual: bool) -> np.ndarray:
        if residual:
            return values(self.parent, "sf") ** self.n
        return _one_minus_power(values(self.parent, "cdf"), self.n)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return _weighted_density(self.n * self.parent.sf(x) ** (self.n - 1), self.parent.pdf(x))

    def quantile(self, p: np.ndarray) -> np.ndarray:
        _check_p(p)
        # 1 - (1 - p)^(1/n) without the cancellation that loses a small p
        return self.parent.quantile(-np.expm1(np.log1p(-p) / self.n))


@dataclass(frozen=True)
class MaxOrder(_Order):
    """Distribution of X_{n:n}: cdf = parent cdf to the n-th power."""

    parent: Distribution
    n: int

    def __post_init__(self) -> None:
        _check_n(self.n)

    @property
    def has_finite_mean(self) -> bool:  # type: ignore[override]
        return self.parent.has_finite_mean

    def _level(self, values: Values, residual: bool) -> np.ndarray:
        if residual:
            return _one_minus_power(values(self.parent, "sf"), self.n)
        return values(self.parent, "cdf") ** self.n

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return _weighted_density(self.n * self.parent.cdf(x) ** (self.n - 1), self.parent.pdf(x))

    def quantile(self, p: np.ndarray) -> np.ndarray:
        _check_p(p)
        # the C library's pow: numpy's power may round the last bit otherwise, which the parent amplifies
        return self.parent.quantile(np.float_power(p, 1.0 / self.n))


@dataclass(frozen=True)
class KthOrder(_Order):
    """Distribution of X_{k:n} for a general rank k."""

    parent: Distribution
    spec: OrderSpec

    @property
    def has_finite_mean(self) -> bool:  # type: ignore[override]
        return self.parent.has_finite_mean or self.spec.n - self.spec.k + 1 >= 2

    def _level(self, values: Values, residual: bool) -> np.ndarray:
        k, n = self.spec.k, self.spec.n
        F, S = values(self.parent, "cdf"), values(self.parent, "sf")
        if residual:
            return _lower_binomial_sum(n, k, F, S)
        # the terms i >= k of the binomial sum, i.e. the terms j = n - i < n - k + 1
        # with the roles of F and S swapped
        return _lower_binomial_sum(n, n - k + 1, S, F)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        k, n = self.spec.k, self.spec.n
        weight = k * math.comb(n, k) * self.parent.cdf(x) ** (k - 1) * self.parent.sf(x) ** (n - k)
        return _weighted_density(weight, self.parent.pdf(x))


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
    return KthOrder(d, spec).sf(x)


def _one_minus_power(g: np.ndarray, n: int) -> np.ndarray:
    """1 - (1 - g)^n, accurate when g is small: the complement of an extreme order."""
    return _piecewise(g, 0.0, 1.0, 0.0, 1.0, lambda h: -np.expm1(n * np.log1p(-h)))


def _weighted_density(weight: np.ndarray, f: np.ndarray) -> np.ndarray:
    """weight * f, and 0 where the weight is 0.

    The parent's density f can be infinite there (at 0, for a Weibull or
    Power shape below 1), where 0 * inf would give nan.
    """
    return weight * np.where(weight == 0.0, 0.0, f)


def _lower_binomial_sum(n: int, m: int, F: np.ndarray, S: np.ndarray) -> np.ndarray:
    """sum_{i<m} C(n,i) F^i S^(n-i), as S^(n-m+1) times a Horner sum in S, elementwise."""
    row = _BINOM[n]
    acc = 0.0
    Fi = 1.0
    for i in range(m):
        acc = acc * S + row[i] * Fi
        Fi *= F
    return acc * S ** (n - m + 1)
