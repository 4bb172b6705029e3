"""Parametric lifetime distributions and their reliability functionals.

Every family exposes the same small surface: ``cdf``, ``sf``, ``pdf``,
``quantile``, ``hazard_rate``, ``reversed_hazard``, ``mean``,
``mean_residual_life`` and ``expected_inactivity_time``.  Closed forms are
used wherever the family admits one; the base class falls back to adaptive
quadrature and a bracketed Newton inverse.  ``cdf``, ``sf``, ``pdf`` and
``quantile`` take a float or a 1-D float64 array, and each formula is
written once, in numpy, over arrays.  A float goes in as a one-element
array and comes back as a Python float (``_elementwise``), so a float and
the same value in an array give the same bits.

The two rates and the two conditional means are written once, on
``Distribution``.  They and the dynamic measures condition on an age by one
rule, ``_levels``: a degenerate level raises, and an age outside the support
is clamped to its nearest end, the stretch beyond it added exactly.  A
family with a closed-form mrl or eit writes it once, in ``_closed_mean``;
the mean is lo + mrl(lo), so a closed mrl gives a closed mean.

All objects are immutable and all methods are pure, so instances can be
shared freely across threads.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, wraps
from math import inf
from typing import Any, Callable, Mapping, Optional, Sequence, Union

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
from .quadrature import integrate_panels

#: sf/cdf below this is treated as degenerate rather than extrapolated.
DEGENERATE_EPS = 1e-13

_QUANTILE_ATOL = 1e-12

#: a float, or a 1-D float64 array evaluated elementwise into the same shape
FloatOrArray = Union[float, np.ndarray]

#: values(g, source): distribution g's "sf" or "cdf" at some fixed points (see ``Distribution._level``)
Values = Callable[["Distribution", str], np.ndarray]


def _elementwise(method: Callable) -> Callable:
    """The one boundary of ``cdf``, ``sf``, ``pdf`` and ``quantile``: the formulas behind it see arrays only.

    An array goes straight through.  A float goes in as a one-element array
    and comes back as a Python float with the bits it gets in an array.  An
    overflow on the way raises ``OverflowError`` only when the result is not
    finite; a finite limit (sf far out in a tail is 0) is returned, as in an
    array, where the overflow gives numpy's warning.
    """

    @wraps(method)
    def boundary(self: "Distribution", x: FloatOrArray) -> FloatOrArray:
        if isinstance(x, np.ndarray):
            return method(self, x)
        x = np.array([x], dtype=np.float64)
        try:
            with np.errstate(over="raise"):
                return float(method(self, x)[0])
        except FloatingPointError as exc:
            with np.errstate(all="ignore"):
                value = float(method(self, x)[0])
            if math.isfinite(value):
                return value
            raise OverflowError(str(exc)) from None

    return boundary


def _piecewise(x: np.ndarray, lower: float, upper: float, below: float, above: float, f) -> np.ndarray:
    """``below`` where x <= lower, ``above`` where x >= upper, ``f`` strictly between, and nan at nan.

    ``f`` only sees the points inside, so it raises no domain errors or warnings.

    Fast path: when every element lies strictly inside (then none is nan,
    since the min and max of an array with a nan are nan), the result is
    ``f`` of the whole array, with no masks, scatters or nan pass; a
    constant ``f`` is broadcast to the array's shape.  The bits are those
    of the masked path: numpy's elementwise functions give an element the
    same bits wherever it sits in a C-contiguous array, and the masked path
    hands ``f`` a C-contiguous copy of the inside points, so a
    non-contiguous array is copied before ``f`` sees it.  ``f`` computes a
    new array, so the result never aliases x.
    """
    if x.size and lower < np.minimum.reduce(x, axis=None) and np.maximum.reduce(x, axis=None) < upper:
        out = f(_contiguous(x))
        return np.full(x.shape, out) if np.ndim(out) == 0 else out
    out = np.where(x <= lower, below, above)
    inside = (x > lower) & (x < upper)
    out[inside] = f(x[inside])
    out[np.isnan(x)] = math.nan
    return out


def _contiguous(x: np.ndarray) -> np.ndarray:
    """x itself if it is C-contiguous, else a C-contiguous copy of it."""
    return x if x.flags.c_contiguous else x.copy()


def _density(x: np.ndarray, lower: float, upper: float, f) -> np.ndarray:
    """0 outside the closed interval [lower, upper] and ``f`` on it, its ends included."""
    # x <= nextafter(lower, -inf) is x < lower for every float, and likewise at the upper end
    return _piecewise(x, math.nextafter(lower, -inf), math.nextafter(upper, inf), 0.0, 0.0, f)


def _split(x: np.ndarray, at: float, head, tail) -> np.ndarray:
    """``head`` where x <= at and ``tail`` elsewhere; each sees only its own points.

    An array that lies on one side only, with no nan, goes whole to that
    side's formula, with the bits of the masked path (see ``_piecewise``).
    """
    if x.size and np.maximum.reduce(x, axis=None) <= at:
        return head(_contiguous(x))
    if x.size and at < np.minimum.reduce(x, axis=None):
        return tail(_contiguous(x))
    out = np.empty_like(x)
    low = x <= at
    out[low], out[~low] = head(x[low]), tail(x[~low])
    return out


def _power(u: np.ndarray, e: float) -> np.ndarray:
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

    ``cdf``, ``sf``, ``pdf`` and ``quantile`` take a float, and give a
    Python float, or a 1-D float64 array, and give an array of the same
    shape.  A subclass writes each of them over arrays only, in numpy: the
    class applies ``_elementwise`` to every one it defines, and a float
    reaches the formula as a one-element array.  It defines no rate or
    mean: a closed-form mrl or eit goes in ``_closed_mean``.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for name in ("cdf", "sf", "pdf", "quantile"):
            if name in vars(cls):
                setattr(cls, name, _elementwise(vars(cls)[name]))

    @property
    @abstractmethod
    def support(self) -> Support: ...

    @abstractmethod
    def cdf(self, x: FloatOrArray) -> FloatOrArray: ...

    @abstractmethod
    def pdf(self, x: FloatOrArray) -> FloatOrArray: ...

    @_elementwise
    def sf(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - self.cdf(x)

    def _level(self, values: Values, residual: bool) -> np.ndarray:
        """sf (residual) or cdf at the points that ``values`` gives functionals at.

        An order statistic overrides this with its sf and cdf written as a
        formula of its parent's values, which its own ``sf`` and ``cdf`` run
        too.  So ``_levels`` with one shared ``values`` calls a parent once
        for all of its orders, and each order gets the bits of its own call.
        """
        return values(self, "sf" if residual else "cdf")

    #: True when the mean integral converges.
    has_finite_mean: bool = True

    #: Interior points where cdf/sf are not smooth; integrals split there.
    breakpoints: tuple[float, ...] = ()

    @_elementwise
    def quantile(self, p: np.ndarray) -> np.ndarray:
        """Inverse cdf by bracketed Newton, each element in its own bracket; subclasses override with closed forms.

        Up to p = 1/2 it solves cdf(x) = p, above it sf(x) = 1 - p: there
        1 - p is exact, and sf keeps the tail's digits where the cdf rounds
        to multiples of eps.  Each element stops once its bracket is
        narrower than 1e-12 and returns the bracket's midpoint (``_invert``).
        """
        _check_p(p)
        x = np.empty_like(p)
        head = p <= 0.5
        if head.any():
            x[head] = _invert(self, lambda y, t: self.cdf(y) - t, p[head])
        if not head.all():
            x[~head] = _invert(self, lambda y, t: t - self.sf(y), 1.0 - p[~head])
        return x

    def hazard_rate(self, t: float) -> float:
        """pdf(t) / sf(t); ``DegenerateTail`` where sf(t) is degenerate, as ``dcrex(t)`` raises."""
        return _rate(self, True, t)

    def reversed_hazard(self, t: float) -> float:
        """pdf(t) / cdf(t); ``DegenerateHead`` where cdf(t) is degenerate, as ``dcpex(t)`` raises."""
        return _rate(self, False, t)

    def mean(self) -> float:
        """lo + mrl(lo): the mean residual life at the support's lower end, where the level is 1."""
        lo = self.support.lower
        return lo + self.mean_residual_life(lo)

    def mean_residual_life(self, t: float) -> float:
        """E[X - t | X > t]: ``conditional_means`` at one age, side "residual"."""
        return float(self.conditional_means([t], "residual")[0][0])

    def expected_inactivity_time(self, t: float) -> float:
        """E[t - X | X <= t]: ``conditional_means`` at one age, side "past"."""
        return float(self.conditional_means([t], "past")[0][0])

    def conditional_means(self, ts: Sequence[float], side: str) -> tuple[np.ndarray, np.ndarray]:
        """``mean_residual_life`` (side "residual") or ``expected_inactivity_time`` (side "past")
        at every age of ts, with their abs error estimates.

        The first degenerate age raises.  At the ages clamped into the
        support (``_levels``) a family's ``_closed_mean`` gives the values,
        with error 0; else each is one integral, int_t^hi sf / sf(t) or
        int_lo^t cdf / cdf(t), all in one ``integrate_panels`` call.  The
        stretch outside the support is added exactly.
        """
        if side not in ("residual", "past"):
            raise ValueError(f"side must be residual|past, got {side!r}")
        residual = side == "residual"
        if residual and not self.has_finite_mean:
            raise DivergentMean(f"{self!r} has no finite mean")
        levels, degenerate, at, beyond = _levels(self, residual, ts)
        if degenerate.any():
            raise _degenerate(residual, ts[int(np.argmax(degenerate))])
        closed = self._closed_mean(at, residual)
        if closed is not None:
            return closed + beyond, np.zeros(at.size)
        g = self.sf if residual else self.cdf
        a, b = (at, np.full(at.size, self.support.upper)) if residual else (np.full(at.size, self.support.lower), at)
        values, errors = integrate_panels(lambda x, rows: g(x.ravel()).reshape(x.shape), a, b, self.breakpoints)
        return values / levels + beyond, errors / levels

    def _closed_mean(self, at: np.ndarray, residual: bool) -> Optional[np.ndarray]:
        """The closed-form mrl (residual) or eit at ages inside the support, or None where there is none."""
        return None

    def affine(self, scale: float, shift: float) -> "Affine":
        return Affine(self, scale, shift)


def _levels(
    d: Distribution, residual: bool, ages: Sequence[float], values: Optional[Values] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What every functional of d that conditions on an age reads there, from one array call.

    Returns four arrays: the levels (sf(t) on the residual side, cdf(t) on
    the past side); whether each age is degenerate (level at most
    ``DEGENERATE_EPS``, or nan: ``_degenerate`` is what it raises); the ages
    clamped into the support [lo, hi]; and the stretch where the level stays
    1, lo - t below lo (residual) or t - hi above hi (past), to add exactly.
    ``values`` gives the functionals at the ages (``_at(ages)`` by default);
    a ``_shared_values(ages)`` passed to the calls for several distributions
    calls each (distribution, functional) once between them, with the same bits.
    """
    ages = np.asarray(ages, dtype=np.float64)
    # far out in a tail an intermediate power can overflow (Weibull's t**theta); the level is its limit 0
    with np.errstate(over="ignore"):
        level = d._level(values or _at(ages), residual)
    degenerate = ~(level > DEGENERATE_EPS)
    lo, hi = d.support.lower, d.support.upper
    beyond = np.where(ages < lo, lo - ages, 0.0) if residual else np.where(ages > hi, ages - hi, 0.0)
    return level, degenerate, np.clip(ages, lo, hi), beyond


def _rates(d: Distribution, residual: bool, ages: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The hazard rate pdf/sf (residual) or reversed hazard pdf/cdf at every age, and the degenerate ages (rate 0)."""
    ages = np.asarray(ages, dtype=np.float64)
    level, degenerate, _, _ = _levels(d, residual, ages)
    rate = np.zeros(ages.size)
    rate[~degenerate] = d.pdf(ages[~degenerate]) / level[~degenerate]
    return rate, degenerate


def _rate(d: Distribution, residual: bool, t: float) -> float:
    """``_rates`` at one age, which raises where it is degenerate."""
    (rate,), (degenerate,) = _rates(d, residual, [t])
    if degenerate:
        raise _degenerate(residual, t)
    return float(rate)


def _at(x: np.ndarray) -> Values:
    """The ``values`` that calls g's sf or cdf at x."""
    return lambda g, source: getattr(g, source)(x)


def _shared_values(ages: np.ndarray) -> Values:
    """The ``values`` that calls each (distribution, functional) at the ages once, however often asked."""
    memo: dict[tuple[int, str], np.ndarray] = {}

    def values(g: Distribution, source: str) -> np.ndarray:
        key = (id(g), source)
        if key not in memo:
            memo[key] = getattr(g, source)(ages)
        return memo[key]

    return values


def _degenerate(residual: bool, t: float) -> ExtropyError:
    """The error a dynamic measure raises at an age whose level is degenerate."""
    return DegenerateTail(f"sf({t}) is zero") if residual else DegenerateHead(f"cdf({t}) is zero")


def _check_p(p: np.ndarray) -> None:
    outside = ~((p > 0.0) & (p < 1.0))  # NaN is outside
    if outside.any():
        raise QuantileOutOfRange(f"quantile requires p in (0,1), got {p[outside][0]}")


def _invert(d: Distribution, g: Callable, target: np.ndarray) -> np.ndarray:
    """The x where g(x, target), d's cdf minus target or target minus its sf, rises through 0, elementwise, to 1e-12.

    A safeguarded Newton-bisection (rtsafe in *Numerical Recipes*): g has
    slope d.pdf, and each element keeps its own bracket g(lo) < 0 <= g(hi),
    grown by doubling on an unbounded support.  A round evaluates g and pdf
    at x once and shrinks the bracket there.  The next x is the Newton point
    when it lies strictly inside the bracket and its step is at most half
    the step before last, else the midpoint: so a zero, infinite or nan pdf
    bisects, and so does Newton creeping at a high-order zero.  A Newton
    step under atol/4 probes x +- 0.4 atol in one call, which closes the
    bracket below atol.  Every operation is elementwise, and the arrays keep
    only the open elements, so an element gets the bits of the same float
    alone.
    """
    lower, upper = d.support.lower, d.support.upper
    lo = np.full_like(target, lower)
    if math.isfinite(upper):
        hi = np.full_like(target, upper)
    else:
        hi = np.full_like(target, max(lower + 1.0, 1.0))
        grow = np.flatnonzero(g(hi, target) < 0)
        while grow.size:
            lo[grow] = hi[grow]
            hi[grow] = lower + 2.0 * (hi[grow] - lower)
            if (hi[grow] > 1e300).any():  # pragma: no cover - guards pathological tails
                raise QuantileOutOfRange(f"failed to bracket the quantile at level {target[grow][0]}")
            grow = grow[g(hi[grow], target[grow]) < 0]
    out = np.empty_like(target)
    at = np.arange(target.size)
    x = 0.5 * (lo + hi)
    last = before = hi - lo  # the sizes of the last step and of the one before it
    while True:
        # adjacent floats wider than atol (past x = 8192) have no midpoint strictly between them
        open_ = (hi - lo > _QUANTILE_ATOL) & (lo < x) & (x < hi)
        if not open_.all():
            out[at] = 0.5 * (lo + hi)
            keep = np.flatnonzero(open_)
            if not keep.size:
                return out
            at, target, lo, hi, x, last, before = (a.take(keep) for a in (at, target, lo, hi, x, last, before))
        gx = g(x, target)
        slope = d.pdf(x)
        with np.errstate(all="ignore"):
            step = gx / slope
        below = gx < 0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        newton = x - step
        size = np.abs(step)
        near = np.flatnonzero(size < 0.25 * _QUANTILE_ATOL)
        if near.size:
            points = np.concatenate((x[near] - 0.4 * _QUANTILE_ATOL, x[near] + 0.4 * _QUANTILE_ATOL))
            negative = g(points, np.concatenate((target[near], target[near]))) < 0
            # the higher probe below the root raises lo, the lower one at or above it lowers hi
            lo[near] = np.maximum(lo[near], np.where(negative, points, -inf).reshape(2, -1).max(axis=0))
            hi[near] = np.minimum(hi[near], np.where(negative, inf, points).reshape(2, -1).min(axis=0))
        mid = 0.5 * (lo + hi)
        use = (lo < newton) & (newton < hi) & (size <= 0.5 * before)
        before, last = last, np.where(use, size, mid - lo)
        x = np.where(use, newton, mid)


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

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, self.a, self.b, 0.0, 1.0, lambda y: (y - self.a) / (self.b - self.a))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return _density(x, self.a, self.b, lambda y: 1.0 / (self.b - self.a))

    def quantile(self, p: np.ndarray) -> np.ndarray:
        _check_p(p)
        return self.a + p * (self.b - self.a)

    def _closed_mean(self, at: np.ndarray, residual: bool) -> np.ndarray:
        return 0.5 * (self.b - at) if residual else 0.5 * (at - self.a)


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

    def sf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, 1.0 / self.a, 1.0, 0.0, lambda y: (1.0 - self.a * y) ** self.b)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - self.sf(x)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return _density(x, 0.0, 1.0 / self.a, lambda y: self.a * self.b * _power(1.0 - self.a * y, self.b - 1.0))

    def quantile(self, p: np.ndarray) -> np.ndarray:
        _check_p(p)
        return (1.0 - (1.0 - p) ** (1.0 / self.b)) / self.a

    def _closed_mean(self, at: np.ndarray, residual: bool) -> Optional[np.ndarray]:
        return (1.0 - self.a * at) / (self.a * (self.b + 1.0)) if residual else None


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

    def sf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: np.exp(-self.lam * y**self.theta))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: -np.expm1(-self.lam * y**self.theta))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return _density(x, 0.0, inf, lambda y: self.lam * self.theta * _power(y, self.theta - 1.0) * self.sf(y))

    def quantile(self, p: np.ndarray) -> np.ndarray:
        _check_p(p)
        return (-np.log1p(-p) / self.lam) ** (1.0 / self.theta)

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

    def sf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: np.exp(-self.lam * y))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: -np.expm1(-self.lam * y))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return _density(x, 0.0, inf, lambda y: self.lam * np.exp(-self.lam * y))

    def quantile(self, p: np.ndarray) -> np.ndarray:
        _check_p(p)
        return -np.log1p(-p) / self.lam

    def _closed_mean(self, at: np.ndarray, residual: bool) -> Optional[np.ndarray]:
        return np.full(at.size, 1.0 / self.lam) if residual else None


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

    def sf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, self._sf_inside)

    def _sf_inside(self, y: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + self.theta * y)
        # s is 0 only where theta y overflowed, so theta > 1 and y + 1/theta is finite:
        # (1/theta) / (y + 1/theta) is the same sf, and keeps its subnormal tail
        far = s == 0.0
        if far.any():
            s[far] = (1.0 / self.theta) / (y[far] + 1.0 / self.theta)
        return s

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, self._cdf_inside)

    def _cdf_inside(self, y: np.ndarray) -> np.ndarray:
        # theta y / (1 + theta y) rounds to 1.0 once theta y >= 2**54, so capping
        # theta y near 2**60 keeps every bit and stops it overflowing to inf / inf
        z = self.theta * np.minimum(y, 2.0**60 / self.theta)
        return z / (1.0 + z)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return _density(x, 0.0, inf, self._pdf_inside)

    def _pdf_inside(self, y: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            square = (1.0 + self.theta * y) ** 2
        f = self.theta / square
        # past sqrt of the float range the square is inf: theta sf^2 is the same density there
        far = square == inf
        if far.any():
            s = self._sf_inside(y[far])
            f[far] = self.theta * s * s
        return f

    def quantile(self, p: np.ndarray) -> np.ndarray:
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

    def sf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: (self.lam / (y + self.lam)) ** self.theta)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - self.sf(x)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        c = self.theta / self.lam
        return _density(x, 0.0, inf, lambda y: c * (self.lam / (y + self.lam)) ** (self.theta + 1.0))

    def quantile(self, p: np.ndarray) -> np.ndarray:
        _check_p(p)
        return self.lam * ((1.0 - p) ** (-1.0 / self.theta) - 1.0)

    def _closed_mean(self, at: np.ndarray, residual: bool) -> Optional[np.ndarray]:
        return (self.lam + at) / (self.theta - 1.0) if residual else None


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

    def _log_sf(self, x: np.ndarray) -> np.ndarray:
        """log sf(x) for x > 0; log1p keeps the digits of a small lam * x."""
        if self._exponential_limit:
            return -x / self.theta
        with np.errstate(over="ignore"):  # a ratio past the float range is inf, where log sf is -inf
            z = self.lam * x / self.theta
        return _piecewise(z, -1.0, inf, -inf, -inf, lambda z: -(1.0 + self.lam) / self.lam * np.log1p(z))

    def sf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: np.exp(self._log_sf(y)))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: -np.expm1(self._log_sf(y)))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        if self._exponential_limit:
            return _density(x, 0.0, inf, lambda y: np.exp(-y / self.theta) / self.theta)
        c, e = (1.0 + self.lam) / self.theta, -(1.0 + 2.0 * self.lam) / self.lam

        def inside(y: np.ndarray) -> np.ndarray:
            # c (1 + z)^e with z = lam x / theta; 0 where z reaches -1, at the bounded upper end
            z = self.lam * y / self.theta
            return _piecewise(z, -1.0, inf, 0.0, 0.0, lambda w: c * np.exp(e * np.log1p(w)))

        return _density(x, 0.0, self.support.upper, inside)

    def quantile(self, p: np.ndarray) -> np.ndarray:
        _check_p(p)
        if self._exponential_limit:
            return -self.theta * np.log1p(-p)
        return self.theta * np.expm1(-self.lam / (1.0 + self.lam) * np.log1p(-p)) / self.lam

    def _closed_mean(self, at: np.ndarray, residual: bool) -> Optional[np.ndarray]:
        return self.lam * at + self.theta if residual else None


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

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, self.b, 0.0, 1.0, lambda y: (y / self.b) ** self.c)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return _density(x, 0.0, self.b, lambda y: self.c / self.b * _power(y / self.b, self.c - 1.0))

    def quantile(self, p: np.ndarray) -> np.ndarray:
        _check_p(p)
        return self.b * p ** (1.0 / self.c)

    def mean(self) -> float:
        return self.b * self.c / (self.c + 1.0)

    def _closed_mean(self, at: np.ndarray, residual: bool) -> Optional[np.ndarray]:
        return None if residual else at / (self.c + 1.0)


class TwoExpMax(Distribution):
    """Maximum of independent Exp(1) and Exp(2): sf = e^-x + e^-2x - e^-3x.

    Hard coded with analytic pdf; the prime example of a lifetime whose
    dynamic residual-extropy curve is not monotone.
    """

    @cached_property
    def support(self) -> Support:
        return Support(0.0, inf)

    def sf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 1.0, 0.0, lambda y: np.exp(-y) + np.exp(-2.0 * y) - np.exp(-3.0 * y))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, 0.0, inf, 0.0, 1.0, lambda y: -np.expm1(-y) * -np.expm1(-2.0 * y))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return _density(x, 0.0, inf, lambda y: np.exp(-y) + 2.0 * np.exp(-2.0 * y) - 3.0 * np.exp(-3.0 * y))

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
    def _head(x: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 - 1.0 / x)

    @staticmethod
    def _tail(x: np.ndarray) -> np.ndarray:
        return np.exp(-2.0 + 0.5 * x * x)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return _piecewise(x, _PB_ZERO, 2.0, 0.0, 1.0, lambda y: _split(y, 1.0, self._head, self._tail))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return _density(
            x, _PB_ZERO, 2.0, lambda y: _split(y, 1.0, lambda u: self._head(u) / (u * u), lambda u: u * self._tail(u))
        )

    def quantile(self, p: np.ndarray) -> np.ndarray:
        _check_p(p)
        return _split(p, _PB_BREAK, lambda q: 1.0 / (-np.log(q) - 0.5), lambda q: np.sqrt(4.0 + 2.0 * np.log(q)))

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

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return self.base.cdf(self._pull(x))

    def sf(self, x: np.ndarray) -> np.ndarray:
        return self.base.sf(self._pull(x))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return self.base.pdf(self._pull(x)) / self.scale

    def quantile(self, p: np.ndarray) -> np.ndarray:
        return self.scale * self.base.quantile(p) + self.shift

    def mean(self) -> float:
        return self.scale * self.base.mean() + self.shift

    def conditional_means(self, ts: Sequence[float], side: str) -> tuple[np.ndarray, np.ndarray]:
        values, errors = self.base.conditional_means(self._pull(np.asarray(ts, dtype=np.float64)), side)
        return self.scale * values, self.scale * errors

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

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return sum(w * d.cdf(x) for w, d in self.components)

    def sf(self, x: np.ndarray) -> np.ndarray:
        # not 1 - cdf: in a tail that is rounding noise, this keeps the components' precision
        return sum(w * d.sf(x) for w, d in self.components)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return sum(w * d.pdf(x) for w, d in self.components)

    def mean(self) -> float:
        return sum(w * d.mean() for w, d in self.components)

    def __repr__(self) -> str:
        return f"Mixture({list(self.components)!r})"


# ---------------------------------------------------------------------------
# JSON distribution specs
# ---------------------------------------------------------------------------

#: family name -> (class, its params in constructor order); affine's base is a nested spec
_FAMILIES: Mapping[str, tuple[Callable[..., Distribution], tuple[str, ...]]] = {
    "uniform": (Uniform, ("a", "b")),
    "finite-range": (FiniteRange, ("a", "b")),
    "weibull": (Weibull, ("lambda", "theta")),
    "folded-cramer": (FoldedCramer, ("theta",)),
    "pareto": (Pareto, ("lambda", "theta")),
    "gpd": (GPD, ("theta", "lambda")),
    "power": (Power, ("b", "c")),
    "exponential": (Exponential, ("lambda",)),
    "two-exp-max": (TwoExpMax, ()),
    "piecewise-bounded": (PiecewiseBounded, ()),
    "affine": (Affine, ("base", "scale", "shift")),
}
_FAMILY_PARAMS: Mapping[str, tuple[str, ...]] = {family: params for family, (_, params) in _FAMILIES.items()}


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

    if family == "affine":
        return Affine(from_spec(params["base"]), num("scale"), num("shift"))
    cls, names = _FAMILIES[family]
    return cls(*(num(name) for name in names))
