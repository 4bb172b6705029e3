"""Parametric lifetime distributions and their reliability functionals.

Every family exposes the same small surface: ``cdf``, ``sf``, ``pdf``,
``quantile``, ``hazard_rate``, ``reversed_hazard``, ``mean``,
``mean_residual_life`` and ``expected_inactivity_time``.  Closed forms are
used wherever the family admits one; the base class falls back to adaptive
quadrature and bracketed bisection.  ``cdf_array`` and ``sf_array`` evaluate
cdf and sf at every element of a float64 array, by the same formulas written
with numpy; ``quantile`` takes a float or an array.  ``cdf`` and ``sf`` stay
scalar: they run once per quadrature node, where a type test would cost a
sizeable share of each call.

All objects are immutable and all methods are pure, so instances can be
shared freely across threads.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from math import exp, inf
from typing import Any, Mapping, Sequence, Union

import numpy as np

from .errors import (
    DegenerateHead,
    DegenerateTail,
    DivergentMean,
    InvalidScale,
    ParamDomainError,
    QuantileOutOfRange,
    SchemaError,
)
from .quadrature import integrate_array, integrate_panels

#: sf/cdf below this is treated as degenerate rather than extrapolated.
DEGENERATE_EPS = 1e-13

_QUANTILE_ATOL = 1e-12

#: a float, or a 1-D float64 array evaluated elementwise into the same shape
FloatOrArray = Union[float, np.ndarray]


def _piecewise(x: np.ndarray, lower: float, upper: float, below: float, above: float, f) -> np.ndarray:
    """``below`` where x <= lower, ``above`` where x >= upper, and ``f`` strictly between.

    The array form of the scalar methods' early returns at the ends of a
    range; ``f`` only sees the points inside, so it raises no domain warnings.
    """
    out = np.where(x <= lower, below, above)
    inside = (x > lower) & (x < upper)
    out[inside] = f(x[inside])
    return out


@dataclass(frozen=True)
class Support:
    """Closed support interval; ``upper`` may be ``math.inf``."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (self.lower < self.upper):
            raise ParamDomainError(f"support lower {self.lower} must be < upper {self.upper}")
        if self.lower < 0:
            raise ParamDomainError("lifetime support must be nonnegative")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.upper)


class Distribution(ABC):
    """Abstract lifetime distribution."""

    @property
    @abstractmethod
    def support(self) -> Support: ...

    @abstractmethod
    def cdf(self, x: float) -> float: ...

    @abstractmethod
    def pdf(self, x: float) -> float: ...

    def sf(self, x: float) -> float:
        return 1.0 - self.cdf(x)

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        """``cdf`` at every element of a float64 array; families override this with numpy."""
        return np.array([self.cdf(v) for v in x.tolist()], dtype=np.float64)

    def sf_array(self, x: np.ndarray) -> np.ndarray:
        """``sf`` at every element of a float64 array; a family that overrides ``sf`` overrides this."""
        return 1.0 - self.cdf_array(x)

    def pdf_array(self, x: np.ndarray) -> np.ndarray:
        """``pdf`` at every element of a float64 array."""
        return np.array([self.pdf(v) for v in x.tolist()], dtype=np.float64)

    #: True when the mean integral converges.
    has_finite_mean: bool = True

    #: Interior points where cdf/sf are not smooth; integrals split there.
    breakpoints: tuple[float, ...] = ()

    #: True when ``quantile`` bisects an array of probabilities as a whole.
    array_cdf: bool = False

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        """Inverse cdf by bracketed bisection; subclasses override with closed forms.

        An array of probabilities is bisected as a whole through ``cdf_array``
        when ``array_cdf`` is set, and mapped through the scalar bisection
        otherwise.  (Where the array cdf rounds otherwise than the scalar one,
        as for ``KthOrder``, the whole-array bisection can end up to its
        tolerance away.)
        """
        _check_p(p)
        if isinstance(p, np.ndarray):
            if self.array_cdf:
                return self._bisect_array(p)
            return np.array([self.quantile(q) for q in p.tolist()], dtype=np.float64)
        lo = self.support.lower
        hi = self.support.upper
        if not math.isfinite(hi):
            hi = max(lo + 1.0, 1.0)
            while self.cdf(hi) < p:
                hi = lo + 2.0 * (hi - lo)
                if hi > 1e300:  # pragma: no cover - guards pathological tails
                    raise QuantileOutOfRange(f"failed to bracket quantile at p={p}")
        while hi - lo > _QUANTILE_ATOL:
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def _bisect_array(self, p: np.ndarray) -> np.ndarray:
        """The scalar bisection run elementwise: same brackets, midpoints and stop."""
        lower, upper = self.support.lower, self.support.upper
        lo = np.full_like(p, lower)
        if math.isfinite(upper):
            hi = np.full_like(p, upper)
        else:
            hi = np.full_like(p, max(lower + 1.0, 1.0))
            grow = self.cdf_array(hi) < p
            while grow.any():
                hi = np.where(grow, lower + 2.0 * (hi - lower), hi)
                if (hi > 1e300).any():  # pragma: no cover - guards pathological tails
                    raise QuantileOutOfRange(f"failed to bracket quantile at p={p[hi > 1e300][0]}")
                grow &= self.cdf_array(hi) < p
        # whole-array steps; an element whose bracket is narrow enough stops moving
        active = hi - lo > _QUANTILE_ATOL
        while active.any():
            mid = 0.5 * (lo + hi)
            below = self.cdf_array(mid) < p
            lo = np.where(active & below, mid, lo)
            hi = np.where(active & ~below, mid, hi)
            active = hi - lo > _QUANTILE_ATOL
        return 0.5 * (lo + hi)

    def hazard_rate(self, t: float) -> float:
        s = self.sf(t)
        if s <= DEGENERATE_EPS:
            raise DegenerateTail(f"sf({t}) is zero")
        return self.pdf(t) / s

    def reversed_hazard(self, t: float) -> float:
        c = self.cdf(t)
        if c <= DEGENERATE_EPS:
            raise DegenerateHead(f"cdf({t}) is zero")
        return self.pdf(t) / c

    def mean(self) -> float:
        if not self.has_finite_mean:
            raise DivergentMean(f"{self!r} has no finite mean")
        lo = self.support.lower
        value, _ = integrate_array(self.sf_array, lo, self.support.upper, self.breakpoints)
        return lo + value

    def mean_residual_life(self, t: float) -> float:
        return float(self.conditional_means([t], "residual")[0][0])

    def expected_inactivity_time(self, t: float) -> float:
        return float(self.conditional_means([t], "past")[0][0])

    def conditional_means(self, ts: Sequence[float], side: str) -> tuple[np.ndarray, np.ndarray]:
        """``mean_residual_life`` (side "residual") or ``expected_inactivity_time`` (side "past")
        at every age of ts, with their abs error estimates.

        A family's own closed form is used where it has one, with error 0.
        Otherwise every age is one integral, int_t^hi sf / sf(t) or
        int_lo^t cdf / cdf(t), split at the breakpoints, and all of them
        go to one ``integrate_panels`` call.
        """
        if side not in ("residual", "past"):
            raise ValueError(f"side must be residual|past, got {side!r}")
        residual = side == "residual"
        name = "mean_residual_life" if residual else "expected_inactivity_time"
        scalar = getattr(type(self), name)
        if scalar is not getattr(Distribution, name):
            return np.array([scalar(self, t) for t in ts], dtype=np.float64), np.zeros(len(ts))
        if residual and not self.has_finite_mean:
            raise DivergentMean(f"{self!r} has no finite mean")
        levels = []
        for t in ts:
            level = self.sf(t) if residual else self.cdf(t)
            if level <= DEGENERATE_EPS:
                raise DegenerateTail(f"sf({t}) is zero") if residual else DegenerateHead(f"cdf({t}) is zero")
            levels.append(level)
        lo, hi = self.support.lower, self.support.upper
        g = self.sf_array if residual else self.cdf_array
        a, b = (ts, [hi] * len(ts)) if residual else ([lo] * len(ts), ts)
        values, errors = integrate_panels(lambda x, rows: g(x.ravel()).reshape(x.shape), a, b, self.breakpoints)
        return values / levels, errors / levels

    def affine(self, scale: float, shift: float) -> "Affine":
        return Affine(self, scale, shift)


def _check_p(p: FloatOrArray) -> None:
    if isinstance(p, np.ndarray):
        outside = ~((p > 0.0) & (p < 1.0))  # NaN is outside
        if outside.any():
            raise QuantileOutOfRange(f"quantile requires p in (0,1), got {p[outside][0]}")
    elif not (0.0 < p < 1.0):
        raise QuantileOutOfRange(f"quantile requires p in (0,1), got {p}")


def _xp(p: FloatOrArray):
    """``math`` for a float and ``numpy`` for an array, so a formula is written once."""
    return np if isinstance(p, np.ndarray) else math


def _require_positive(name: str, value: float) -> None:
    # chained comparisons are False for NaN, so NaN is rejected too
    if not (0 < value < inf):
        raise ParamDomainError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on [a, b], a < b, a >= 0."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0 <= self.a < self.b < inf):
            raise ParamDomainError(f"uniform requires 0 <= a < b < inf, got a={self.a}, b={self.b}")

    @cached_property
    def support(self) -> Support:
        return Support(self.a, self.b)

    def cdf(self, x: float) -> float:
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, self.a, self.b, 0.0, 1.0, lambda y: (y - self.a) / (self.b - self.a))

    def pdf(self, x: float) -> float:
        return 1.0 / (self.b - self.a) if self.a <= x <= self.b else 0.0

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        _check_p(p)
        return self.a + p * (self.b - self.a)

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def mean_residual_life(self, t: float) -> float:
        if t <= self.a:
            return self.mean() - t
        if t >= self.b:
            raise DegenerateTail(f"sf({t}) is zero")
        return 0.5 * (self.b - t)

    def expected_inactivity_time(self, t: float) -> float:
        if t <= self.a:
            raise DegenerateHead(f"cdf({t}) is zero")
        return 0.5 * (min(t, self.b) - self.a) if t <= self.b else t - self.mean()


@dataclass(frozen=True)
class FiniteRange(Distribution):
    """sf(x) = (1 - a x)^b on (0, 1/a); a, b > 0."""

    a: float
    b: float

    def __post_init__(self) -> None:
        _require_positive("a", self.a)
        _require_positive("b", self.b)

    @cached_property
    def support(self) -> Support:
        return Support(0.0, 1.0 / self.a)

    def sf(self, x: float) -> float:
        if x <= 0:
            return 1.0
        if x >= 1.0 / self.a:
            return 0.0
        return (1.0 - self.a * x) ** self.b

    def sf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, 1.0 / self.a, 1.0, 0.0, lambda y: (1.0 - self.a * y) ** self.b)

    def cdf(self, x: float) -> float:
        return 1.0 - self.sf(x)

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - self.sf_array(x)

    def pdf(self, x: float) -> float:
        if not (0 <= x <= 1.0 / self.a):
            return 0.0
        return self.a * self.b * (1.0 - self.a * x) ** (self.b - 1.0)

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        _check_p(p)
        return (1.0 - (1.0 - p) ** (1.0 / self.b)) / self.a

    def mean(self) -> float:
        return 1.0 / (self.a * (self.b + 1.0))

    def mean_residual_life(self, t: float) -> float:
        if self.sf(t) <= DEGENERATE_EPS:
            raise DegenerateTail(f"sf({t}) is zero")
        return (1.0 - self.a * max(t, 0.0)) / (self.a * (self.b + 1.0))


@dataclass(frozen=True)
class Weibull(Distribution):
    """sf(x) = exp(-lam * x**theta); lam, theta > 0."""

    lam: float
    theta: float

    def __post_init__(self) -> None:
        _require_positive("lam", self.lam)
        _require_positive("theta", self.theta)

    @cached_property
    def support(self) -> Support:
        return Support(0.0, inf)

    def sf(self, x: float) -> float:
        return 1.0 if x <= 0 else exp(-self.lam * x**self.theta)

    def sf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: np.exp(-self.lam * y**self.theta))

    def cdf(self, x: float) -> float:
        return 0.0 if x <= 0 else -math.expm1(-self.lam * x**self.theta)

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: -np.expm1(-self.lam * y**self.theta))

    def pdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        if x == 0:
            # theta < 1 diverges at 0, theta > 1 vanishes; report the limit where defined
            return self.lam if self.theta == 1.0 else (inf if self.theta < 1 else 0.0)
        return self.lam * self.theta * x ** (self.theta - 1.0) * self.sf(x)

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        _check_p(p)
        return (-_xp(p).log1p(-p) / self.lam) ** (1.0 / self.theta)

    def mean(self) -> float:
        return math.gamma(1.0 + 1.0 / self.theta) / self.lam ** (1.0 / self.theta)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Constant-hazard special case, rate lam > 0."""

    lam: float

    def __post_init__(self) -> None:
        _require_positive("lam", self.lam)

    @cached_property
    def support(self) -> Support:
        return Support(0.0, inf)

    def sf(self, x: float) -> float:
        return 1.0 if x <= 0 else exp(-self.lam * x)

    def sf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: np.exp(-self.lam * y))

    def cdf(self, x: float) -> float:
        return 0.0 if x <= 0 else -math.expm1(-self.lam * x)

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: -np.expm1(-self.lam * y))

    def pdf(self, x: float) -> float:
        return 0.0 if x < 0 else self.lam * exp(-self.lam * x)

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        _check_p(p)
        return -_xp(p).log1p(-p) / self.lam

    def mean(self) -> float:
        return 1.0 / self.lam

    def mean_residual_life(self, t: float) -> float:
        return 1.0 / self.lam

    def hazard_rate(self, t: float) -> float:
        return self.lam


@dataclass(frozen=True)
class FoldedCramer(Distribution):
    """sf(x) = 1 / (1 + theta x); theta > 0.  Heavy tail: no finite mean."""

    theta: float
    has_finite_mean = False

    def __post_init__(self) -> None:
        _require_positive("theta", self.theta)

    @cached_property
    def support(self) -> Support:
        return Support(0.0, inf)

    def sf(self, x: float) -> float:
        return 1.0 if x <= 0 else 1.0 / (1.0 + self.theta * x)

    def sf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: 1.0 / (1.0 + self.theta * y))

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return 1.0 if x == inf else self.theta * x / (1.0 + self.theta * x)

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: self.theta * y / (1.0 + self.theta * y))

    def pdf(self, x: float) -> float:
        return 0.0 if x < 0 else self.theta / (1.0 + self.theta * x) ** 2

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        _check_p(p)
        return p / (self.theta * (1.0 - p))


@dataclass(frozen=True)
class Pareto(Distribution):
    """sf(x) = (lam / (x + lam))**theta; lam > 0, theta > 1 for a finite mean."""

    lam: float
    theta: float

    def __post_init__(self) -> None:
        _require_positive("lam", self.lam)
        if not (1 < self.theta < inf):
            raise ParamDomainError(f"pareto requires 1 < theta < inf, got {self.theta}")

    @cached_property
    def support(self) -> Support:
        return Support(0.0, inf)

    def sf(self, x: float) -> float:
        return 1.0 if x <= 0 else (self.lam / (x + self.lam)) ** self.theta

    def sf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: (self.lam / (y + self.lam)) ** self.theta)

    def cdf(self, x: float) -> float:
        return 1.0 - self.sf(x)

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - self.sf_array(x)

    def pdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        return self.theta / self.lam * (self.lam / (x + self.lam)) ** (self.theta + 1.0)

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        _check_p(p)
        return self.lam * ((1.0 - p) ** (-1.0 / self.theta) - 1.0)

    def mean(self) -> float:
        return self.lam / (self.theta - 1.0)

    def mean_residual_life(self, t: float) -> float:
        return (self.lam + max(t, 0.0)) / (self.theta - 1.0)


#: GPD lambda this close to zero is evaluated through the exponential limit.
_GPD_EXP_EPS = 1e-9


@dataclass(frozen=True)
class GPD(Distribution):
    """Generalized Pareto: sf(x) = (theta/(lam x + theta))**(1/lam + 1).

    theta > 0, lam > -1.  lam -> 0 degenerates to the exponential with scale
    theta; lam > 0 is Lomax; -1 < lam < 0 has bounded support [0, -theta/lam].
    """

    theta: float
    lam: float

    def __post_init__(self) -> None:
        _require_positive("theta", self.theta)
        if not (-1 < self.lam < inf):
            raise ParamDomainError(f"gpd requires -1 < lam < inf, got {self.lam}")

    @property
    def _exponential_limit(self) -> bool:
        return abs(self.lam) < _GPD_EXP_EPS

    @cached_property
    def support(self) -> Support:
        if self.lam < -_GPD_EXP_EPS:
            return Support(0.0, -self.theta / self.lam)
        return Support(0.0, inf)

    def _log_sf(self, x: float) -> float:
        """log sf(x) for x > 0; log1p keeps the digits of a small lam * x."""
        if self._exponential_limit:
            return -x / self.theta
        z = self.lam * x / self.theta
        if z <= -1.0:
            return -inf
        return -(1.0 + self.lam) / self.lam * math.log1p(z)

    def _log_sf_array(self, x: np.ndarray) -> np.ndarray:
        if self._exponential_limit:
            return -x / self.theta
        z = self.lam * x / self.theta
        return _piecewise(z, -1.0, inf, -inf, -inf, lambda w: -(1.0 + self.lam) / self.lam * np.log1p(w))

    def sf(self, x: float) -> float:
        return 1.0 if x <= 0 else exp(self._log_sf(x))

    def sf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: np.exp(self._log_sf_array(y)))

    def cdf(self, x: float) -> float:
        return 0.0 if x <= 0 else -math.expm1(self._log_sf(x))

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: -np.expm1(self._log_sf_array(y)))

    def pdf(self, x: float) -> float:
        if x < 0 or x > self.support.upper:
            return 0.0
        if self._exponential_limit:
            return exp(-x / self.theta) / self.theta
        z = self.lam * x / self.theta
        if z <= -1.0:
            return 0.0
        return (1.0 + self.lam) / self.theta * exp(-(1.0 + 2.0 * self.lam) / self.lam * math.log1p(z))

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        _check_p(p)
        xp = _xp(p)
        if self._exponential_limit:
            return -self.theta * xp.log1p(-p)
        return self.theta * xp.expm1(-self.lam / (1.0 + self.lam) * xp.log1p(-p)) / self.lam

    def hazard_rate(self, t: float) -> float:
        if t > self.support.upper - DEGENERATE_EPS:
            raise DegenerateTail(f"sf({t}) is zero")
        return (1.0 + self.lam) / (self.lam * max(t, 0.0) + self.theta)

    def mean(self) -> float:
        return self.theta

    def mean_residual_life(self, t: float) -> float:
        if self.sf(t) <= DEGENERATE_EPS:
            raise DegenerateTail(f"sf({t}) is zero")
        return self.lam * max(t, 0.0) + self.theta


@dataclass(frozen=True)
class Power(Distribution):
    """cdf(x) = (x/b)**c on [0, b]; b, c > 0."""

    b: float
    c: float

    def __post_init__(self) -> None:
        _require_positive("b", self.b)
        _require_positive("c", self.c)

    @cached_property
    def support(self) -> Support:
        return Support(0.0, self.b)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x / self.b) ** self.c

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, self.b, 0.0, 1.0, lambda y: (y / self.b) ** self.c)

    def pdf(self, x: float) -> float:
        if not (0 <= x <= self.b):
            return 0.0
        if x == 0:
            return self.c / self.b if self.c == 1.0 else (inf if self.c < 1 else 0.0)
        return self.c / self.b * (x / self.b) ** (self.c - 1.0)

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        _check_p(p)
        return self.b * p ** (1.0 / self.c)

    def mean(self) -> float:
        return self.b * self.c / (self.c + 1.0)

    def expected_inactivity_time(self, t: float) -> float:
        if t <= 0:
            raise DegenerateHead(f"cdf({t}) is zero")
        return min(t, self.b) / (self.c + 1.0) if t <= self.b else t - self.mean()

    def reversed_hazard(self, t: float) -> float:
        if t <= 0:
            raise DegenerateHead(f"cdf({t}) is zero")
        if t >= self.b:
            return 0.0
        return self.c / t


class TwoExpMax(Distribution):
    """Maximum of independent Exp(1) and Exp(2): sf = e^-x + e^-2x - e^-3x.

    Hard coded with analytic pdf; the prime example of a lifetime whose
    dynamic residual-extropy curve is not monotone.
    """

    @cached_property
    def support(self) -> Support:
        return Support(0.0, inf)

    def sf(self, x: float) -> float:
        if x <= 0:
            return 1.0
        return exp(-x) + exp(-2.0 * x) - exp(-3.0 * x)

    def sf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: np.exp(-y) + np.exp(-2.0 * y) - np.exp(-3.0 * y))

    array_cdf = True

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return -math.expm1(-x) * -math.expm1(-2.0 * x)

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: -np.expm1(-y) * -np.expm1(-2.0 * y))

    def pdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        return exp(-x) + 2.0 * exp(-2.0 * x) - 3.0 * exp(-3.0 * x)

    def mean(self) -> float:
        return 1.0 + 0.5 - 1.0 / 3.0

    def __repr__(self) -> str:
        return "TwoExpMax()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TwoExpMax)

    def __hash__(self) -> int:
        return hash("TwoExpMax")


_PB_BREAK = exp(-1.5)  # cdf value at the junction x = 1


class PiecewiseBounded(Distribution):
    """Bounded lifetime on (0, 2] with a kinked cdf.

    cdf(x) = exp(-1/2 - 1/x) on (0, 1], exp(-2 + x^2/2) on (1, 2], 1 beyond.
    Its dynamic past-extropy curve on (1, 2) is not monotone.  The density at
    the junctions is taken as the left limit (integrals are insensitive to
    point values).
    """

    breakpoints = (1.0,)

    @cached_property
    def support(self) -> Support:
        return Support(0.0, 2.0)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        if x <= 1.0:
            return exp(-0.5 - 1.0 / x)
        if x <= 2.0:
            return exp(-2.0 + 0.5 * x * x)
        return 1.0

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        def inside(y: np.ndarray) -> np.ndarray:
            # 1/y overflows to inf for a subnormal y; exp(-inf) = 0, as on the scalar path
            with np.errstate(over="ignore"):
                return np.where(y <= 1.0, np.exp(-0.5 - 1.0 / y), np.exp(-2.0 + 0.5 * y * y))

        return _piecewise(x, 0.0, 2.0, 0.0, 1.0, inside)

    def pdf(self, x: float) -> float:
        if x <= 0 or x > 2.0:
            return 0.0
        if x <= 1.0:
            return exp(-0.5 - 1.0 / x) / (x * x)
        return x * exp(-2.0 + 0.5 * x * x)

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        _check_p(p)
        xp = _xp(p)

        def head(q):
            return 1.0 / (-xp.log(q) - 0.5)

        def tail(q):
            return xp.sqrt(4.0 + 2.0 * xp.log(q))

        if xp is math:
            return head(p) if p <= _PB_BREAK else tail(p)
        x = np.empty_like(p)
        low = p <= _PB_BREAK
        x[low], x[~low] = head(p[low]), tail(p[~low])
        return x

    def __repr__(self) -> str:
        return "PiecewiseBounded()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PiecewiseBounded)

    def __hash__(self) -> int:
        return hash("PiecewiseBounded")


class Affine(Distribution):
    """Y = scale * X + shift with scale > 0, shift >= 0."""

    def __init__(self, base: Distribution, scale: float, shift: float) -> None:
        if not (0 < scale < inf):
            raise InvalidScale(f"scale must be finite and > 0, got {scale}")
        if not (0 <= shift < inf):
            raise ParamDomainError(f"shift must be finite and >= 0, got {shift}")
        self.base = base
        self.scale = float(scale)
        self.shift = float(shift)

    @cached_property
    def support(self) -> Support:
        s = self.base.support
        return Support(self.scale * s.lower + self.shift, self.scale * s.upper + self.shift)

    @property
    def has_finite_mean(self) -> bool:  # type: ignore[override]
        return self.base.has_finite_mean

    @property
    def breakpoints(self) -> tuple[float, ...]:  # type: ignore[override]
        return tuple(self.scale * p + self.shift for p in self.base.breakpoints)

    def _pull(self, x: FloatOrArray) -> FloatOrArray:
        return (x - self.shift) / self.scale

    def cdf(self, x: float) -> float:
        return self.base.cdf(self._pull(x))

    def sf(self, x: float) -> float:
        return self.base.sf(self._pull(x))

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        return self.base.cdf_array(self._pull(x))

    def sf_array(self, x: np.ndarray) -> np.ndarray:
        return self.base.sf_array(self._pull(x))

    def pdf(self, x: float) -> float:
        return self.base.pdf(self._pull(x)) / self.scale

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        return self.scale * self.base.quantile(p) + self.shift

    def mean(self) -> float:
        return self.scale * self.base.mean() + self.shift

    def mean_residual_life(self, t: float) -> float:
        return self.scale * self.base.mean_residual_life(self._pull(t))

    def expected_inactivity_time(self, t: float) -> float:
        return self.scale * self.base.expected_inactivity_time(self._pull(t))

    def __repr__(self) -> str:
        return f"Affine({self.base!r}, scale={self.scale}, shift={self.shift})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Affine)
            and self.base == other.base
            and self.scale == other.scale
            and self.shift == other.shift
        )

    def __hash__(self) -> int:
        return hash((self.base, self.scale, self.shift))


class Mixture(Distribution):
    """Finite mixture sum(w_i * F_i); weights positive and summing to one."""

    def __init__(self, components: list[tuple[float, Distribution]]) -> None:
        from .errors import BadWeights

        if not components:
            raise BadWeights("mixture needs at least one component")
        weights = [w for w, _ in components]
        if not all(w > 0 for w in weights):
            raise BadWeights(f"weights must be positive, got {weights}")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise BadWeights(f"weights must sum to 1, got {sum(weights)}")
        self.components = tuple((float(w), d) for w, d in components)

    @cached_property
    def support(self) -> Support:
        return Support(
            min(d.support.lower for _, d in self.components),
            max(d.support.upper for _, d in self.components),
        )

    @property
    def has_finite_mean(self) -> bool:  # type: ignore[override]
        return all(d.has_finite_mean for _, d in self.components)

    @property
    def breakpoints(self) -> tuple[float, ...]:  # type: ignore[override]
        # a component's support ends are kinks of the mixture cdf
        points = {p for _, d in self.components for p in d.breakpoints}
        for _, d in self.components:
            points.update(x for x in (d.support.lower, d.support.upper) if math.isfinite(x))
        return tuple(sorted(points))

    def cdf(self, x: float) -> float:
        return sum(w * d.cdf(x) for w, d in self.components)

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        return sum(w * d.cdf_array(x) for w, d in self.components)

    def pdf(self, x: float) -> float:
        return sum(w * d.pdf(x) for w, d in self.components)

    def mean(self) -> float:
        return sum(w * d.mean() for w, d in self.components)

    def __repr__(self) -> str:
        return f"Mixture({list(self.components)!r})"


# ---------------------------------------------------------------------------
# JSON distribution specs
# ---------------------------------------------------------------------------

_FAMILY_PARAMS: Mapping[str, tuple[str, ...]] = {
    "uniform": ("a", "b"),
    "finite-range": ("a", "b"),
    "weibull": ("lambda", "theta"),
    "folded-cramer": ("theta",),
    "pareto": ("lambda", "theta"),
    "gpd": ("theta", "lambda"),
    "power": ("b", "c"),
    "exponential": ("lambda",),
    "two-exp-max": (),
    "piecewise-bounded": (),
    "affine": ("base", "scale", "shift"),
}


def from_spec(spec: Mapping[str, Any]) -> Distribution:
    """Build a distribution from a JSON-style spec dict.

    Schema: ``{"family": <name>, "params": {...}}``; unknown keys are
    rejected with :class:`SchemaError`, bad parameter values with
    :class:`ParamDomainError`.
    """
    if not isinstance(spec, Mapping):
        raise SchemaError(f"spec must be an object, got {type(spec).__name__}")
    extra = set(spec) - {"family", "params"}
    if extra:
        raise SchemaError(f"unknown keys in spec: {sorted(extra)}")
    family = spec.get("family")
    if family not in _FAMILY_PARAMS:
        raise SchemaError(f"unknown family {family!r}; expected one of {sorted(_FAMILY_PARAMS)}")
    params = spec.get("params", {})
    if not isinstance(params, Mapping):
        raise SchemaError("params must be an object")
    allowed = _FAMILY_PARAMS[family]
    extra = set(params) - set(allowed)
    if extra:
        raise SchemaError(f"unknown params for {family}: {sorted(extra)}")
    missing = set(allowed) - set(params)
    if missing:
        raise SchemaError(f"missing params for {family}: {sorted(missing)}")

    def num(name: str) -> float:
        try:
            value = float(params[name])
        except (TypeError, ValueError):
            raise ParamDomainError(f"{family} param {name} must be a number, got {params[name]!r}") from None
        if not math.isfinite(value):
            raise ParamDomainError(f"{family} param {name} must be finite, got {params[name]!r}")
        return value

    if family == "uniform":
        return Uniform(num("a"), num("b"))
    if family == "finite-range":
        return FiniteRange(num("a"), num("b"))
    if family == "weibull":
        return Weibull(num("lambda"), num("theta"))
    if family == "folded-cramer":
        return FoldedCramer(num("theta"))
    if family == "pareto":
        return Pareto(num("lambda"), num("theta"))
    if family == "gpd":
        return GPD(num("theta"), num("lambda"))
    if family == "power":
        return Power(num("b"), num("c"))
    if family == "exponential":
        return Exponential(num("lambda"))
    if family == "two-exp-max":
        return TwoExpMax()
    if family == "piecewise-bounded":
        return PiecewiseBounded()
    # affine
    return Affine(from_spec(params["base"]), num("scale"), num("shift"))
