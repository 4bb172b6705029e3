"""Parametric lifetime distributions and their reliability functionals.

Every family exposes the same small surface: ``cdf``, ``sf``, ``pdf``,
``quantile``, ``hazard_rate``, ``reversed_hazard``, ``mean``,
``mean_residual_life`` and ``expected_inactivity_time``.  Closed forms are
used wherever the family admits one; the base class falls back to adaptive
quadrature and bracketed bisection.  ``cdf``, ``sf``, ``pdf`` and
``quantile`` take a float or a 1-D float64 array, and each formula is
written once: a float goes through ``math`` and gets a Python float back,
an array goes through numpy and gets an array of the same shape.
``cdf_array``, ``sf_array`` and ``pdf_array`` are aliases of ``cdf``, ``sf``
and ``pdf``.

All objects are immutable and all methods are pure, so instances can be
shared freely across threads.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    DegenerateHead,
    DegenerateTail,
    DivergentMean,
    ExtropyError,
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


def _xp(x: FloatOrArray):
    """``math`` for a float and ``numpy`` for an array, so a formula is written once."""
    return np if isinstance(x, np.ndarray) else math


def _piecewise(x: FloatOrArray, lower: float, upper: float, below: float, above: float, f) -> FloatOrArray:
    """``below`` where x <= lower, ``above`` where x >= upper, and ``f`` strictly between.

    ``f`` only sees the points inside, so it raises no domain errors or warnings.
    """
    if not isinstance(x, np.ndarray):
        return below if x <= lower else above if x >= upper else f(x)
    out = np.where(x <= lower, below, above)
    inside = (x > lower) & (x < upper)
    out[inside] = f(x[inside])
    return out


def _density(x: FloatOrArray, lower: float, upper: float, f) -> FloatOrArray:
    """0 outside the closed interval [lower, upper] and ``f`` on it, its ends included."""
    # x <= nextafter(lower, -inf) is x < lower for every float, and likewise at the upper end
    return _piecewise(x, math.nextafter(lower, -inf), math.nextafter(upper, inf), 0.0, 0.0, f)


def _split(x: FloatOrArray, at: float, head, tail) -> FloatOrArray:
    """``head`` where x <= at and ``tail`` elsewhere; each sees only its own points."""
    if not isinstance(x, np.ndarray):
        return head(x) if x <= at else tail(x)
    out = np.empty_like(x)
    low = x <= at
    out[low], out[~low] = head(x[low]), tail(x[~low])
    return out


def _power(u: FloatOrArray, e: float) -> FloatOrArray:
    """u**e for u >= 0, and at u = 0 its limit from above: inf for e < 0, where a density diverges."""
    at_zero = 1.0 if e == 0.0 else (inf if e < 0 else 0.0)
    return _piecewise(u, 0.0, inf, at_zero, inf**e, lambda v: v**e)


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
    """Abstract lifetime distribution.

    ``cdf``, ``sf`` and ``pdf`` take a float, and give a Python float, or a
    1-D float64 array, and give an array of the same shape.
    """

    @property
    @abstractmethod
    def support(self) -> Support: ...

    @abstractmethod
    def cdf(self, x: FloatOrArray) -> FloatOrArray: ...

    @abstractmethod
    def pdf(self, x: FloatOrArray) -> FloatOrArray: ...

    def sf(self, x: FloatOrArray) -> FloatOrArray:
        return 1.0 - self.cdf(x)

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        return self.cdf(x)

    def sf_array(self, x: np.ndarray) -> np.ndarray:
        return self.sf(x)

    def pdf_array(self, x: np.ndarray) -> np.ndarray:
        return self.pdf(x)

    #: True when the mean integral converges.
    has_finite_mean: bool = True

    #: Interior points where cdf/sf are not smooth; integrals split there.
    breakpoints: tuple[float, ...] = ()

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        """Inverse cdf by bracketed bisection; subclasses override with closed forms.

        An array of probabilities is bisected as a whole through ``cdf``.
        Where the array cdf rounds otherwise than the float one, an element
        can end up to the bisection's tolerance away from the quantile of the
        same float, and further where the cdf is flat (see ``KthOrder``).
        """
        _check_p(p)
        if isinstance(p, np.ndarray):
            return self._bisect_array(p)
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
            grow = self.cdf(hi) < p
            while grow.any():
                hi = np.where(grow, lower + 2.0 * (hi - lower), hi)
                if (hi > 1e300).any():  # pragma: no cover - guards pathological tails
                    raise QuantileOutOfRange(f"failed to bracket quantile at p={p[hi > 1e300][0]}")
                grow &= self.cdf(hi) < p
        # whole-array steps; an element whose bracket is narrow enough stops moving
        active = hi - lo > _QUANTILE_ATOL
        while active.any():
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < p
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
        value, _ = integrate_array(self.sf, lo, self.support.upper, self.breakpoints)
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
        go to one ``integrate_panels`` call; the first degenerate age raises.
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
        levels, errors, _ = _levels(self, residual, ts)
        for error in errors:
            if error is not None:
                raise error
        lo, hi = self.support.lower, self.support.upper
        g = self.sf if residual else self.cdf
        a, b = (ts, [hi] * len(ts)) if residual else ([lo] * len(ts), ts)
        values, errors = integrate_panels(lambda x, rows: g(x.ravel()).reshape(x.shape), a, b, self.breakpoints)
        return values / levels, errors / levels

    def affine(self, scale: float, shift: float) -> "Affine":
        return Affine(self, scale, shift)


def _levels(
    d: Distribution, residual: bool, ages: Sequence[float]
) -> tuple[list[float], list[Optional[ExtropyError]], list[float]]:
    """What a dynamic measure of d conditions on at every age, from one array call.

    Returns the levels (sf(t) on the residual side, cdf(t) on the past
    side), the error each age raises (``DegenerateTail`` or
    ``DegenerateHead`` where its level is at most ``DEGENERATE_EPS``, None
    elsewhere), and the term t - hi that the past side adds beyond the upper
    support end hi, where the cdf stays 1.
    """
    # far out in a tail an intermediate power can overflow (Weibull's t**theta); the level is its limit 0
    with np.errstate(over="ignore"):
        level = (d.sf if residual else d.cdf)(np.array(ages, dtype=np.float64)).tolist()
    if residual:
        errors = [DegenerateTail(f"sf({t}) is zero") if lv <= DEGENERATE_EPS else None for t, lv in zip(ages, level)]
        return level, errors, [0.0] * len(ages)
    hi = d.support.upper
    errors = [DegenerateHead(f"cdf({t}) is zero") if lv <= DEGENERATE_EPS else None for t, lv in zip(ages, level)]
    return level, errors, [t - hi if t > hi else 0.0 for t in ages]


def _check_p(p: FloatOrArray) -> None:
    if isinstance(p, np.ndarray):
        outside = ~((p > 0.0) & (p < 1.0))  # NaN is outside
        if outside.any():
            raise QuantileOutOfRange(f"quantile requires p in (0,1), got {p[outside][0]}")
    elif not (0.0 < p < 1.0):
        raise QuantileOutOfRange(f"quantile requires p in (0,1), got {p}")


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

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, self.a, self.b, 0.0, 1.0, lambda y: (y - self.a) / (self.b - self.a))

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        return _density(x, self.a, self.b, lambda y: 1.0 / (self.b - self.a))

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

    def sf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, 1.0 / self.a, 1.0, 0.0, lambda y: (1.0 - self.a * y) ** self.b)

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return 1.0 - self.sf(x)

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        return _density(x, 0.0, 1.0 / self.a, lambda y: self.a * self.b * _power(1.0 - self.a * y, self.b - 1.0))

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

    def sf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: _xp(y).exp(-self.lam * y**self.theta))

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: -_xp(y).expm1(-self.lam * y**self.theta))

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        return _density(x, 0.0, inf, lambda y: self.lam * self.theta * _power(y, self.theta - 1.0) * self.sf(y))

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

    def sf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: _xp(y).exp(-self.lam * y))

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: -_xp(y).expm1(-self.lam * y))

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        return _density(x, 0.0, inf, lambda y: self.lam * _xp(y).exp(-self.lam * y))

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

    def sf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: 1.0 / (1.0 + self.theta * y))

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: self.theta * y / (1.0 + self.theta * y))

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        return _density(x, 0.0, inf, lambda y: self.theta / (1.0 + self.theta * y) ** 2)

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

    def sf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: (self.lam / (y + self.lam)) ** self.theta)

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return 1.0 - self.sf(x)

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        c = self.theta / self.lam
        return _density(x, 0.0, inf, lambda y: c * (self.lam / (y + self.lam)) ** (self.theta + 1.0))

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

    def _log_sf(self, x: FloatOrArray) -> FloatOrArray:
        """log sf(x) for x > 0; log1p keeps the digits of a small lam * x."""
        if self._exponential_limit:
            return -x / self.theta
        return _piecewise(
            self.lam * x / self.theta, -1.0, inf, -inf, -inf, lambda z: -(1.0 + self.lam) / self.lam * _xp(z).log1p(z)
        )

    def sf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: _xp(y).exp(self._log_sf(y)))

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: -_xp(y).expm1(self._log_sf(y)))

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        if self._exponential_limit:
            return _density(x, 0.0, inf, lambda y: _xp(y).exp(-y / self.theta) / self.theta)
        c, e = (1.0 + self.lam) / self.theta, -(1.0 + 2.0 * self.lam) / self.lam

        def inside(y: FloatOrArray) -> FloatOrArray:
            # c (1 + z)^e with z = lam x / theta; 0 where z reaches -1, at the bounded upper end
            z = self.lam * y / self.theta
            return _piecewise(z, -1.0, inf, 0.0, 0.0, lambda w: c * _xp(w).exp(e * _xp(w).log1p(w)))

        return _density(x, 0.0, self.support.upper, inside)

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

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, self.b, 0.0, 1.0, lambda y: (y / self.b) ** self.c)

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        return _density(x, 0.0, self.b, lambda y: self.c / self.b * _power(y / self.b, self.c - 1.0))

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

    def sf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: (xp := _xp(y)).exp(-y) + xp.exp(-2.0 * y) - xp.exp(-3.0 * y))

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: -(xp := _xp(y)).expm1(-y) * -xp.expm1(-2.0 * y))

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        return _density(
            x, 0.0, inf, lambda y: (xp := _xp(y)).exp(-y) + 2.0 * xp.exp(-2.0 * y) - 3.0 * xp.exp(-3.0 * y)
        )

    def mean(self) -> float:
        return 1.0 + 0.5 - 1.0 / 3.0

    def __repr__(self) -> str:
        return "TwoExpMax()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TwoExpMax)

    def __hash__(self) -> int:
        return hash("TwoExpMax")


_PB_BREAK = math.exp(-1.5)  # cdf value at the junction x = 1

#: PiecewiseBounded's cdf exp(-1/2 - 1/x), and so its density, is 0 in double precision for x <= 1e-3
_PB_ZERO = 1e-3


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

    @staticmethod
    def _head(x: FloatOrArray) -> FloatOrArray:
        return _xp(x).exp(-0.5 - 1.0 / x)

    @staticmethod
    def _tail(x: FloatOrArray) -> FloatOrArray:
        return _xp(x).exp(-2.0 + 0.5 * x * x)

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return _piecewise(x, _PB_ZERO, 2.0, 0.0, 1.0, lambda y: _split(y, 1.0, self._head, self._tail))

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
        return _density(
            x, _PB_ZERO, 2.0, lambda y: _split(y, 1.0, lambda u: self._head(u) / (u * u), lambda u: u * self._tail(u))
        )

    def quantile(self, p: FloatOrArray) -> FloatOrArray:
        _check_p(p)
        xp = _xp(p)
        return _split(p, _PB_BREAK, lambda q: 1.0 / (-xp.log(q) - 0.5), lambda q: xp.sqrt(4.0 + 2.0 * xp.log(q)))

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

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return self.base.cdf(self._pull(x))

    def sf(self, x: FloatOrArray) -> FloatOrArray:
        return self.base.sf(self._pull(x))

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
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

    def cdf(self, x: FloatOrArray) -> FloatOrArray:
        return sum(w * d.cdf(x) for w, d in self.components)

    def pdf(self, x: FloatOrArray) -> FloatOrArray:
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
