"""Cumulative residual/past extropy, entropy analogues, and dynamic versions.

``evaluate`` dispatches a :class:`MeasureKind` against a distribution:
closed forms from the catalog when the (family, kind) pair has one, adaptive
quadrature otherwise.  The catalog contains only formulas with an exact
derivation; everything else is integrated numerically, split at the
distribution's breakpoints.  ``evaluate_grid`` gives a dynamic measure on a
whole increasing age grid from one sweep of short panels.

Sign conventions: the extropy family (extropy, crex, cpex and the dynamic
versions) is always <= 0; the entropy analogues (cren, cpen) are >= 0.

Static residual measures integrate from the lower support endpoint, so they
are insensitive to a pure location shift (this is what makes the
location-family equality checks meaningful).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .distributions import (
    DEGENERATE_EPS,
    Distribution,
    Exponential,
    FiniteRange,
    FoldedCramer,
    GPD,
    Pareto,
    Power,
    Uniform,
    Weibull,
)
from .errors import (
    DegenerateHead,
    DegenerateTail,
    ExtropyError,
    UnboundedSupport,
    VanishingDensity,
)
from .quadrature import integrate, integrate_panels

RESIDUAL_KINDS = frozenset({"extropy", "cren", "crex", "crex-min", "dcrex", "dcrex-min"})
PAST_KINDS = frozenset({"cpen", "cpex", "cpex-max", "dcpex", "dcpex-max"})
DYNAMIC_KINDS = frozenset({"dcrex", "dcrex-min", "dcpex", "dcpex-max"})
ALL_KINDS = RESIDUAL_KINDS | PAST_KINDS


@dataclass(frozen=True)
class MeasureKind:
    """Which measure, at which order n and (for dynamic kinds) age t."""

    name: str
    n: int = 1
    t: Optional[float] = None

    def __post_init__(self) -> None:
        if self.name not in ALL_KINDS:
            raise ExtropyError(f"unknown measure {self.name!r}")
        if self.n < 1:
            raise ExtropyError(f"order n must be >= 1, got {self.n}")
        if self.name in DYNAMIC_KINDS and self.t is None:
            raise ExtropyError(f"{self.name} requires an age t")


def extropy() -> MeasureKind:
    return MeasureKind("extropy")


def cren() -> MeasureKind:
    return MeasureKind("cren")


def cpen() -> MeasureKind:
    return MeasureKind("cpen")


def crex() -> MeasureKind:
    return MeasureKind("crex")


def cpex() -> MeasureKind:
    return MeasureKind("cpex")


def crex_min(n: int) -> MeasureKind:
    return MeasureKind("crex-min", n=n)


def cpex_max(n: int) -> MeasureKind:
    return MeasureKind("cpex-max", n=n)


def dcrex(t: float) -> MeasureKind:
    return MeasureKind("dcrex", t=t)


def dcrex_min(n: int, t: float) -> MeasureKind:
    return MeasureKind("dcrex-min", n=n, t=t)


def dcpex(t: float) -> MeasureKind:
    return MeasureKind("dcpex", t=t)


def dcpex_max(n: int, t: float) -> MeasureKind:
    return MeasureKind("dcpex-max", n=n, t=t)


@dataclass(frozen=True)
class MeasureValue:
    value: float
    method: str  # "closed-form" | "quadrature"
    abs_error_estimate: float

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "abs_error_estimate": self.abs_error_estimate,
        }


# ---------------------------------------------------------------------------
# Closed-form catalog
# ---------------------------------------------------------------------------


def _cf_crex_min(d: Distribution, n: int, t: Optional[float] = None) -> Optional[float]:
    if isinstance(d, Uniform):
        return -(d.b - d.a) / (2.0 * (2.0 * n + 1.0))
    if isinstance(d, FiniteRange):
        return -1.0 / (2.0 * d.a * (1.0 + 2.0 * n * d.b))
    if isinstance(d, Weibull):
        return -math.gamma(1.0 / d.theta) / (2.0 * d.theta * (2.0 * n * d.lam) ** (1.0 / d.theta))
    if isinstance(d, Exponential):
        return -1.0 / (4.0 * n * d.lam)
    if isinstance(d, FoldedCramer):
        return -1.0 / (2.0 * (2.0 * n - 1.0) * d.theta)
    if isinstance(d, Pareto):
        return -d.lam / (2.0 * (2.0 * n * d.theta - 1.0))
    return None


def _cf_dcrex_min(d: Distribution, n: int, t: float) -> Optional[float]:
    if isinstance(d, GPD):
        return -(d.theta + d.lam * t) / (2.0 * (2.0 * n * (1.0 + d.lam) - d.lam))
    if isinstance(d, Exponential):
        return -1.0 / (4.0 * n * d.lam)
    if isinstance(d, FiniteRange):
        return -((1.0 + d.b) / (1.0 + 2.0 * n * d.b)) * d.mean_residual_life(t) / 2.0
    if isinstance(d, Pareto) and n == 1:
        return -(d.lam + t) / (4.0 * d.theta - 2.0)
    return None


def _cf_cpex_max(d: Distribution, n: int, t: Optional[float] = None) -> Optional[float]:
    if isinstance(d, Power):
        return -d.b / (2.0 * (2.0 * n * d.c + 1.0))
    if isinstance(d, Uniform):
        return -(d.b - d.a) / (2.0 * (2.0 * n + 1.0))
    return None


def _cf_dcpex_max(d: Distribution, n: int, t: float) -> Optional[float]:
    if isinstance(d, Power) and t <= d.b:
        return -t / (2.0 * (2.0 * n * d.c + 1.0))
    if isinstance(d, Uniform) and t <= d.b:
        return -(t - d.a) / (2.0 * (2.0 * n + 1.0))
    return None


#: kind name -> catalog lookup (d, n, t) -> closed-form value or None.  A plain
#: kind at order n integrates the same (sf or cdf)^{2n} as its extreme-order
#: kind, so both look up the same closed form.
_CATALOG: dict[str, Callable[[Distribution, int, Optional[float]], Optional[float]]] = {
    "crex": _cf_crex_min,
    "crex-min": _cf_crex_min,
    "dcrex": _cf_dcrex_min,
    "dcrex-min": _cf_dcrex_min,
    "cpex": _cf_cpex_max,
    "cpex-max": _cf_cpex_max,
    "dcpex": _cf_dcpex_max,
    "dcpex-max": _cf_dcpex_max,
}


def _closed_form(d: Distribution, kind: MeasureKind) -> Optional[float]:
    lookup = _CATALOG.get(kind.name)
    return None if lookup is None else lookup(d, kind.n, kind.t)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _require_bounded(d: Distribution, kind: str) -> None:
    if not d.support.bounded:
        raise UnboundedSupport(f"{kind} requires a finite upper support endpoint")


def _degenerate_age(d: Distribution, kind: MeasureKind) -> Optional[ExtropyError]:
    """The error a dynamic measure raises at a conditioning age with zero mass."""
    if kind.name.startswith("dcrex") and d.sf(kind.t) <= DEGENERATE_EPS:
        return DegenerateTail(f"sf({kind.t}) is zero")
    if kind.name.startswith("dcpex") and d.cdf(kind.t) <= DEGENERATE_EPS:
        return DegenerateHead(f"cdf({kind.t}) is zero")
    return None


def _quadrature_value(d: Distribution, kind: MeasureKind) -> tuple[float, float]:
    lo, hi = d.support.lower, d.support.upper
    n, t = kind.n, kind.t
    pts = d.breakpoints

    if kind.name == "extropy":
        value, err = integrate(lambda x: d.pdf(x) ** 2, lo, hi, pts)
        return -0.5 * value, 0.5 * err

    if kind.name == "cren":

        def integrand(x: float) -> float:
            s = d.sf(x)
            return -s * math.log(s) if s > 0.0 else 0.0

        value, err = integrate(integrand, lo, hi, pts)
        return value, err

    if kind.name == "cpen":
        _require_bounded(d, "cpen")

        def integrand(x: float) -> float:
            F = d.cdf(x)
            return -F * math.log(F) if F > 0.0 else 0.0

        value, err = integrate(integrand, lo, hi, pts)
        return value, err

    if kind.name in ("crex", "crex-min"):
        value, err = integrate(lambda x: d.sf(x) ** (2 * n), lo, hi, pts)
        return -0.5 * value, 0.5 * err

    if kind.name in ("cpex", "cpex-max"):
        _require_bounded(d, kind.name)
        value, err = integrate(lambda x: d.cdf(x) ** (2 * n), lo, hi, pts)
        return -0.5 * value, 0.5 * err

    if kind.name in ("dcrex", "dcrex-min"):
        st = d.sf(t)
        if st <= DEGENERATE_EPS:
            raise DegenerateTail(f"sf({t}) is zero")
        value, err = integrate(lambda x: (d.sf(x) / st) ** (2 * n), t, hi, pts)
        return -0.5 * value, 0.5 * err

    # dcpex / dcpex-max
    Ft = d.cdf(t)
    if Ft <= DEGENERATE_EPS:
        raise DegenerateHead(f"cdf({t}) is zero")
    value, err = integrate(lambda x: (d.cdf(x) / Ft) ** (2 * n), lo, min(t, hi), pts)
    if t > hi:  # cdf stays 1 beyond the support
        value += t - hi
    return -0.5 * value, 0.5 * err


def evaluate(d: Distribution, kind: MeasureKind, *, force_quadrature: bool = False) -> MeasureValue:
    """Evaluate one measure; closed form when cataloged, quadrature otherwise."""
    if not force_quadrature:
        cf = _closed_form(d, kind)
        if cf is not None:
            # closed forms still require a nondegenerate conditioning age
            degenerate = _degenerate_age(d, kind)
            if degenerate is not None:
                raise degenerate
            return MeasureValue(cf, "closed-form", 0.0)
    value, err = _quadrature_value(d, kind)
    return MeasureValue(value, "quadrature", err)


def crex_min_quantile_form(d: Distribution, n: int) -> MeasureValue:
    """CREx of the minimum through the quantile-form integral.

    -1/2 * int_0^1 u^{2n} / f(F^{-1}(1-u)) du; an independent route that must
    agree with ``evaluate(d, crex_min(n))`` within combined error estimates.
    """

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        # deep adaptive subdivision can round u to exactly 1; that endpoint
        # corresponds to the lower support boundary
        x = d.support.lower if u >= 1.0 else d.quantile(1.0 - u)
        f = d.pdf(x)
        if f <= 0.0 or math.isinf(f):
            raise VanishingDensity(f"density degenerate at quantile(1-{u})")
        return u ** (2 * n) / f

    value, err = integrate(integrand, 0.0, 1.0)
    return MeasureValue(-0.5 * value, "quadrature", 0.5 * err)


def dcrex_min_derivative(d: Distribution, n: int, t: float) -> tuple[float, float]:
    """Both sides of the age-derivative identity for residual extropy of minima.

    lhs: central finite difference of the dynamic measure at t
    rhs: 2n * hazard(t) * value(t) + 1/2
    """
    h = 1e-5 * max(1.0, abs(t))
    up = evaluate(d, dcrex_min(n, t + h)).value
    dn = evaluate(d, dcrex_min(n, t - h)).value
    lhs = (up - dn) / (2.0 * h)
    rhs = 2.0 * n * d.hazard_rate(t) * evaluate(d, dcrex_min(n, t)).value + 0.5
    return lhs, rhs


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    """Ordered (t, value) samples of a measure; degenerate points are flagged."""

    ts: tuple[float, ...]
    values: tuple[float, ...]
    skipped: tuple[float, ...] = ()

    def __len__(self) -> int:
        return len(self.ts)


def curve(
    d: Distribution,
    kind_for_t: Callable[[float], MeasureKind],
    t_grid: list[float] | tuple[float, ...],
) -> Curve:
    """Evaluate a dynamic measure pointwise over a strictly increasing grid."""
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ExtropyError("t_grid must be strictly increasing")
    ts: list[float] = []
    values: list[float] = []
    skipped: list[float] = []
    for t in t_grid:
        try:
            values.append(evaluate(d, kind_for_t(t)).value)
            ts.append(t)
        except (DegenerateTail, DegenerateHead):
            skipped.append(t)
    return Curve(tuple(ts), tuple(values), tuple(skipped))


GridValue = Union[MeasureValue, DegenerateTail, DegenerateHead]


def _evaluate_or_degenerate(d: Distribution, kind: MeasureKind) -> GridValue:
    try:
        return evaluate(d, kind)
    except (DegenerateTail, DegenerateHead) as exc:
        return exc


def evaluate_grid(
    d: Distribution,
    kind_for_t: Callable[[float], MeasureKind],
    t_grid: Sequence[float],
) -> list[GridValue]:
    """A dynamic measure at every age of a grid: what ``evaluate`` returns or raises there.

    Closed forms win pointwise.  On a strictly increasing grid the remaining
    ages t_1 < ... < t_m share one sweep of short panels.  Residual side, with
    D_i = int_{t_i}^{hi} (S/S(t_i))^{2n}:

        D_i = int_{t_i}^{t_{i+1}} (S/S(t_i))^{2n} + (S(t_{i+1})/S(t_i))^{2n} D_{i+1},

    so only D_m is a long (tail) integral.  The past side is the mirror
    image: it runs forward from the lower support end with (F/F(t_i))^{2n}
    and adds t - hi past the support.  The short panels, split at the
    breakpoints, are integrated together by ``integrate_panels`` on
    ``sf_array``/``cdf_array``; the tail integral goes to ``integrate``.  Error estimates combine with the same
    weights, which are at most 1.  Any other grid is evaluated pointwise.
    """
    kinds = [kind_for_t(t) for t in t_grid]
    ages = [kind.t for kind in kinds]
    if (
        not kinds
        or kinds[0].name not in DYNAMIC_KINDS
        or any((kind.name, kind.n) != (kinds[0].name, kinds[0].n) for kind in kinds)
        or any(b <= a for a, b in zip(ages, ages[1:]))
    ):
        return [_evaluate_or_degenerate(d, kind) for kind in kinds]

    residual = kinds[0].name.startswith("dcrex")
    g = d.sf if residual else d.cdf
    p = 2 * kinds[0].n
    out: list = [None] * len(kinds)
    swept: list[int] = []  # ages left to quadrature
    levels: list[float] = []  # sf or cdf at those ages
    for i, kind in enumerate(kinds):
        level = g(kind.t)
        if level <= DEGENERATE_EPS:
            out[i] = _degenerate_age(d, kind)
        elif (cf := _closed_form(d, kind)) is not None:
            out[i] = MeasureValue(cf, "closed-form", 0.0)
        else:
            swept.append(i)
            levels.append(level)
    if not swept:
        return out

    hi, pts = d.support.upper, d.breakpoints
    xs = [min(ages[i], hi) for i in swept]
    if residual:
        # panel j is [x_j, x_{j+1}] scaled by level j; the last age's tail alone
        values, errors = _panels(d.sf_array, xs, levels[:-1], p, pts)
        tail, tail_err = integrate(lambda y: (g(y) / levels[-1]) ** p, xs[-1], hi, pts)
        values, errors = np.append(values, tail), np.append(errors, tail_err)
    else:
        # panel j is [x_{j-1}, x_j] scaled by level j, from x_0 = lo
        values, errors = _panels(d.cdf_array, [d.support.lower] + xs, levels, p, pts)

    acc = err = prev_level = 0.0
    for j in reversed(range(len(swept))) if residual else range(len(swept)):
        t, level = ages[swept[j]], levels[j]
        w = (prev_level / level) ** p
        acc, err = float(values[j]) + w * acc, float(errors[j]) + w * err
        beyond = t - hi if t > hi else 0.0  # past side: cdf stays 1 beyond the support
        out[swept[j]] = MeasureValue(-0.5 * (acc + beyond), "quadrature", 0.5 * err)
        prev_level = level
    return out


def _panels(
    g: Callable[[np.ndarray], np.ndarray],
    edges: Sequence[float],
    levels: Sequence[float],
    p: int,
    pts: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """int_{e_j}^{e_{j+1}} (g/levels_j)^p for every j, split at the breakpoints, in one batch.

    ``g`` is ``sf_array`` or ``cdf_array``.
    """
    edges = np.asarray(edges, dtype=np.float64)
    knots = np.union1d(edges, [x for x in pts if edges[0] < x < edges[-1]])
    panel = np.searchsorted(edges, knots[:-1], side="right") - 1
    scale = np.asarray(levels, dtype=np.float64)[panel]

    def f(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return (g(x.ravel()).reshape(x.shape) / scale[rows, None]) ** p

    values, errors = integrate_panels(f, knots[:-1], knots[1:])
    m = len(edges) - 1
    return np.bincount(panel, values, m), np.bincount(panel, errors, m)


def sign_changes(values: tuple[float, ...] | list[float]) -> int:
    """Number of interior sign changes of the discrete derivative."""
    diffs = [b - a for a, b in zip(values, values[1:])]
    signs = [1 if v > 0 else -1 for v in diffs if v != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
