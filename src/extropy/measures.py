"""Cumulative residual/past extropy, entropy analogues, and dynamic versions.

``evaluate`` dispatches a :class:`MeasureKind` against a distribution:
closed forms from the catalog when the (family, kind) pair has one, adaptive
quadrature otherwise.  The catalog contains only formulas with an exact
derivation; everything else is integrated numerically by the batched engine
``quadrature.integrate_panels``, split at the distribution's breakpoints.

``evaluate`` is a batch of one of ``_evaluate_batch``, which integrates many
kinds at once and gives each the bits ``evaluate`` gives it.
``evaluate_grid`` gives a dynamic measure on a whole increasing age grid from
one sweep of short panels.  It is one curve of ``_sweep``, which sweeps
several curves (distribution, dynamic kind, n) on one age grid at once.
Both take their levels, sf(t) or cdf(t), and degenerate ages from
``distributions._levels``, one array ``sf``/``cdf`` call per (distribution,
side), and integrate in one ``_integrate`` call, whose integrand calls each
distinct (distribution, source) once per engine pass and raises every
integral to its own Python int power, so an integral's bits do not depend
on the rest of the call.

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
    Distribution,
    Exponential,
    FiniteRange,
    FoldedCramer,
    GPD,
    Pareto,
    Power,
    Uniform,
    Weibull,
    _levels,
)
from .errors import (
    DegenerateHead,
    DegenerateTail,
    ExtropyError,
    UnboundedSupport,
    VanishingDensity,
)
from .quadrature import integrate_array, integrate_panels

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
        if self.t is not None and math.isnan(self.t):
            raise ExtropyError(f"{self.name} requires an age t that is a number, got nan")


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


def _cf_crex_min(d: Distribution, n: int) -> Optional[Callable[[Optional[float]], Optional[float]]]:
    if isinstance(d, Uniform):
        value = -(d.b - d.a) / (2.0 * (2.0 * n + 1.0))
    elif isinstance(d, FiniteRange):
        value = -1.0 / (2.0 * d.a * (1.0 + 2.0 * n * d.b))
    elif isinstance(d, Weibull):
        value = -math.gamma(1.0 / d.theta) / (2.0 * d.theta * (2.0 * n * d.lam) ** (1.0 / d.theta))
    elif isinstance(d, Exponential):
        value = -1.0 / (4.0 * n * d.lam)
    elif isinstance(d, FoldedCramer):
        value = -1.0 / (2.0 * (2.0 * n - 1.0) * d.theta)
    elif isinstance(d, Pareto):
        value = -d.lam / (2.0 * (2.0 * n * d.theta - 1.0))
    else:
        return None
    return lambda t: value


def _cf_dcrex_min(d: Distribution, n: int) -> Optional[Callable[[Optional[float]], Optional[float]]]:
    if isinstance(d, GPD):
        den = 2.0 * (2.0 * n * (1.0 + d.lam) - d.lam)
        return lambda t: -(d.theta + d.lam * t) / den
    if isinstance(d, Exponential):
        value = -1.0 / (4.0 * n * d.lam)
        return lambda t: value
    if isinstance(d, FiniteRange):
        factor = -((1.0 + d.b) / (1.0 + 2.0 * n * d.b))
        return lambda t: factor * d.mean_residual_life(t) / 2.0
    if isinstance(d, Pareto) and n == 1:
        den = 4.0 * d.theta - 2.0
        return lambda t: -(d.lam + t) / den
    return None


def _cf_cpex_max(d: Distribution, n: int) -> Optional[Callable[[Optional[float]], Optional[float]]]:
    if isinstance(d, Power):
        value = -d.b / (2.0 * (2.0 * n * d.c + 1.0))
    elif isinstance(d, Uniform):
        value = -(d.b - d.a) / (2.0 * (2.0 * n + 1.0))
    else:
        return None
    return lambda t: value


def _cf_dcpex_max(d: Distribution, n: int) -> Optional[Callable[[Optional[float]], Optional[float]]]:
    # the formulas hold inside the support only
    if isinstance(d, Power):
        den = 2.0 * (2.0 * n * d.c + 1.0)
        return lambda t: -t / den if t <= d.b else None
    if isinstance(d, Uniform):
        den = 2.0 * (2.0 * n + 1.0)
        return lambda t: -(t - d.a) / den if t <= d.b else None
    return None


#: kind name -> catalog lookup (d, n) -> None, or the closed form as a function
#: of the age t (None at an age where it does not hold).  Whether a (family,
#: kind, n) has an entry is decided once per lookup, not once per age.  A plain
#: kind at order n integrates the same (sf or cdf)^{2n} as its extreme-order
#: kind, so both look up the same closed form.
_CATALOG: dict[str, Callable[[Distribution, int], Optional[Callable[[Optional[float]], Optional[float]]]]] = {
    "crex": _cf_crex_min,
    "crex-min": _cf_crex_min,
    "dcrex": _cf_dcrex_min,
    "dcrex-min": _cf_dcrex_min,
    "cpex": _cf_cpex_max,
    "cpex-max": _cf_cpex_max,
    "dcpex": _cf_dcpex_max,
    "dcpex-max": _cf_dcpex_max,
}


def _catalog_entry(d: Distribution, name: str, n: int) -> Optional[Callable[[Optional[float]], Optional[float]]]:
    lookup = _CATALOG.get(name)
    return None if lookup is None else lookup(d, n)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _require_bounded(d: Distribution, kind: str) -> None:
    if not d.support.bounded:
        raise UnboundedSupport(f"{kind} requires a finite upper support endpoint")


def _entropy_density(g: np.ndarray) -> np.ndarray:
    """-g log g, and 0 where g is 0."""
    positive = g > 0.0
    return np.where(positive, -g * np.log(np.where(positive, g, 1.0)), 0.0)


#: integrals that share a distribution d, a source and a power p: (d, source, p, levels, a, b)
_Block = tuple[Distribution, str, int, Sequence[float], Sequence[float], Sequence[float]]


def _integrate(blocks: Sequence[_Block]) -> tuple[list[float], list[float]]:
    """Every integral of every block in one ``integrate_panels`` call: (values, abs_error_estimates).

    A block (d, source, p, levels, a, b) holds the integrals over [a_i, b_i]
    of (g/level_i)^p, g = getattr(d, source), or of -(g/level_i) log(g/level_i)
    where p is 0.  The distributions must share breakpoints (an order
    statistic forwards its parent's); a ValueError otherwise.
    """
    points = blocks[0][0].breakpoints
    uses: dict[tuple[int, str], int] = {}  # (id of the distribution, source) -> its index in sources
    sources: list[Callable[[np.ndarray], np.ndarray]] = []
    of_use: list[int] = []
    of_power: list[int] = []
    for d, source, p, levels, _, _ in blocks:
        if (id(d), source) not in uses:
            if d.breakpoints != points:
                raise ValueError("the distributions of one engine call must share breakpoints")
            uses[(id(d), source)] = len(sources)
            sources.append(getattr(d, source))
        of_use += [uses[(id(d), source)]] * len(levels)
        of_power += [p] * len(levels)
    use, power = np.array(of_use), np.array(of_power)
    scale, a, b = (np.concatenate([block[k] for block in blocks]) for k in (3, 4, 5))
    powers = sorted(set(of_power))

    def raised(h: np.ndarray, p: int) -> np.ndarray:
        return _entropy_density(h) if p == 0 else h**p

    def f(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if len(sources) == 1:
            fx = sources[0](x.ravel()).reshape(x.shape)
        else:
            fx = np.empty_like(x)
            of_rows = use[rows]
            for k, g in enumerate(sources):
                sel = of_rows == k
                if sel.any():
                    fx[sel] = g(x[sel].ravel()).reshape(-1, x.shape[1])
        fx = fx / scale[rows, None]
        if len(powers) == 1:
            return raised(fx, powers[0])
        # rows sorted by power: each power is raised on one contiguous slice
        of_rows = power[rows]
        order = np.argsort(of_rows)
        ends = np.searchsorted(of_rows[order], powers, side="right").tolist()
        h = fx[order]
        for p, start, end in zip(powers, [0] + ends, ends):
            h[start:end] = raised(h[start:end], p)
        fx[order] = h
        return fx

    values, errors = integrate_panels(f, a, b, points)
    return values.tolist(), errors.tolist()


def _evaluate_batch(
    d: Distribution, kinds: Sequence[MeasureKind], force_quadrature: bool = False
) -> list[GridValue]:
    """``evaluate`` of every kind on d, the degenerate-age errors returned rather than raised.

    Closed forms win where the catalog has one.  Every other kind is one
    integral, and all of them go to one ``_integrate`` call; since the
    engine's results do not depend on the batch, each element equals what
    ``evaluate`` gives for that kind alone, bit for bit.  Any other error
    (a past measure of an unbounded support) is raised.
    """
    out: list = [None] * len(kinds)
    level, beyond = [1.0] * len(kinds), [0.0] * len(kinds)
    for residual in (True, False):
        side = [i for i, k in enumerate(kinds) if k.name in DYNAMIC_KINDS and (k.name in RESIDUAL_KINDS) == residual]
        if side:
            for i, lv, error, past_end in zip(side, *_levels(d, residual, [kinds[i].t for i in side])):
                level[i], out[i], beyond[i] = lv, error, past_end
    entries: dict[tuple[str, int], Optional[Callable[[Optional[float]], Optional[float]]]] = {}
    lo, hi = d.support.lower, d.support.upper
    rows: dict[tuple[str, int], list[tuple[int, float, float, float]]] = {}  # by (source, p): (i, level, a, b)
    for i, kind in enumerate(kinds):
        if out[i] is not None:
            continue
        name, t = kind.name, kind.t
        if not force_quadrature:
            key = (name, kind.n)
            if key not in entries:
                entries[key] = _catalog_entry(d, name, kind.n)
            if entries[key] is not None and (cf := entries[key](t)) is not None:
                out[i] = MeasureValue(cf, "closed-form", 0.0)
                continue
        # integrand g^p of g = pdf, sf or cdf (-g log g for p = 0) over [a, b]
        a, b = lo, hi
        if name == "extropy":
            source, p = "pdf", 2
        elif name in ("cren", "cpen"):
            source, p = ("sf" if name == "cren" else "cdf"), 0
        else:
            source, p = ("sf" if name in RESIDUAL_KINDS else "cdf"), 2 * kind.n
        if name in ("cpen", "cpex", "cpex-max"):
            _require_bounded(d, name)
        elif name in ("dcrex", "dcrex-min"):
            a = t
        elif name in ("dcpex", "dcpex-max"):
            b = min(t, hi)
        rows.setdefault((source, p), []).append((i, level[i], a, b))
    if not rows:
        return out
    # the kinds that share a source and a power form one block
    columns = {use: list(zip(*group)) for use, group in rows.items()}  # (source, p): index, levels, a, b
    values, errors = _integrate([(d, source, p, *cols[1:]) for (source, p), cols in columns.items()])
    index = [i for cols in columns.values() for i in cols[0]]
    for i, value, err in zip(index, values, errors):
        factor = 1.0 if kinds[i].name in ("cren", "cpen") else -0.5
        out[i] = MeasureValue(factor * (value + beyond[i]), "quadrature", abs(factor) * err)
    return out


def _values(results: Sequence[GridValue]) -> list[MeasureValue]:
    """A batch's values; its first degenerate age raises, as ``evaluate`` raises there."""
    for result in results:
        if not isinstance(result, MeasureValue):
            raise result
    return list(results)


def evaluate(d: Distribution, kind: MeasureKind, *, force_quadrature: bool = False) -> MeasureValue:
    """Evaluate one measure; closed form when cataloged, quadrature otherwise."""
    return _values(_evaluate_batch(d, [kind], force_quadrature))[0]


def crex_min_quantile_form(d: Distribution, n: int) -> MeasureValue:
    """CREx of the minimum through the quantile-form integral.

    -1/2 * int_0^1 u^{2n} / f(F^{-1}(1-u)) du; an independent route that must
    agree with ``evaluate(d, crex_min(n))`` within combined error estimates.
    """

    def integrand(u: np.ndarray) -> np.ndarray:
        q = 1.0 - u
        # the scalar fallback's deep subdivision can round q to 0: the lower support end
        x = np.full_like(u, d.support.lower)
        x[q > 0.0] = d.quantile(q[q > 0.0])
        f = d.pdf(x)
        bad = ~((f > 0.0) & np.isfinite(f))
        if bad.any():
            raise VanishingDensity(f"density degenerate at quantile(1-{u[bad][0]})")
        return u ** (2 * n) / f

    value, err = integrate_array(integrand, 0.0, 1.0)
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
    """A dynamic measure over a strictly increasing grid: ``evaluate`` at every age, in one batch."""
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ExtropyError("t_grid must be strictly increasing")
    ts: list[float] = []
    values: list[float] = []
    skipped: list[float] = []
    for t, result in zip(t_grid, _evaluate_batch(d, [kind_for_t(t) for t in t_grid])):
        if isinstance(result, MeasureValue):
            values.append(result.value)
            ts.append(t)
        else:
            skipped.append(t)
    return Curve(tuple(ts), tuple(values), tuple(skipped))


GridValue = Union[MeasureValue, DegenerateTail, DegenerateHead]


def evaluate_grid(
    d: Distribution,
    kind_for_t: Callable[[float], MeasureKind],
    t_grid: Sequence[float],
) -> list[GridValue]:
    """A dynamic measure at every age of a grid: what ``evaluate`` returns or raises there.

    A grid of one dynamic kind at one order is a single curve of the
    multi-curve sweep ``_sweep``: levels from one array call, closed forms
    pointwise, and on a strictly increasing grid one engine call for the
    short panels between neighbouring ages.  Any other
    grid (mixed kinds or orders, or a static kind) is evaluated as
    ``evaluate`` would, in one batch.
    """
    kinds = [kind_for_t(t) for t in t_grid]
    if (
        not kinds
        or kinds[0].name not in DYNAMIC_KINDS
        or any((kind.name, kind.n) != (kinds[0].name, kinds[0].n) for kind in kinds)
    ):
        return _evaluate_batch(d, kinds)
    return _sweep([(d, kinds[0].name, kinds[0].n)], [kind.t for kind in kinds])[0]


def _sweep(curves: Sequence[tuple[Distribution, str, int]], ages: Sequence[float]) -> list[list[GridValue]]:
    """Several dynamic-measure curves on one age grid, in one engine call.

    A curve is (distribution, dynamic kind name, n).  Element [c][i] is what
    ``evaluate`` returns or raises for curve c at ages[i].  The levels and
    degenerate ages come from one ``_levels`` call per distinct
    (distribution, side), as in ``_evaluate_batch``, and each curve's
    closed form is looked up once; closed forms win pointwise.  On a strictly increasing grid the remaining
    ages t_1 < ... < t_m of a curve share one sweep of short panels.
    Residual side, with D_i = int_{t_i}^{hi} (S/S(t_i))^{2n}:

        D_i = int_{t_i}^{t_{i+1}} (S/S(t_i))^{2n} + (S(t_{i+1})/S(t_i))^{2n} D_{i+1},

    so only D_m runs to the upper support end.  The past side is the mirror
    image: it runs forward from the lower support end with (F/F(t_i))^{2n}
    and adds t - hi past the support.  Error estimates combine with the same
    weights, which are at most 1.

    The panels of every curve go to one ``_integrate`` call, so the curves
    must share breakpoints, and a curve gets the bits it gets when swept
    alone.  A grid that is not strictly increasing, or holds a nan, is
    evaluated curve by curve as ``evaluate`` would, in one batch each.
    """
    ages = list(ages)
    if any(math.isnan(t) for t in ages) or any(b <= a for a, b in zip(ages, ages[1:])):
        return [_evaluate_batch(d, [MeasureKind(name, n, t) for t in ages]) for d, name, n in curves]
    if not ages:
        return [[] for _ in curves]
    grid = np.array(ages, dtype=np.float64)
    sides: dict[tuple[int, bool], tuple[list[float], list[Optional[ExtropyError]], list[float]]] = {}
    out: list[list] = []
    blocks: list[_Block] = []
    jobs: list[tuple[int, list[int], list[float], list[float], int, bool]] = []  # the curves with swept ages
    for c, (d, name, n) in enumerate(curves):
        MeasureKind(name, n, ages[0])  # the kind and order are valid
        residual = name in RESIDUAL_KINDS
        key = (id(d), residual)
        if key not in sides:
            sides[key] = _levels(d, residual, ages)
        level, degenerate, beyond = sides[key]
        closed_form = _catalog_entry(d, name, n)
        values: list = list(degenerate)
        swept: list[int] = []
        for i, t in enumerate(ages):
            if values[i] is not None:
                continue
            if closed_form is not None and (cf := closed_form(t)) is not None:
                values[i] = MeasureValue(cf, "closed-form", 0.0)
            else:
                swept.append(i)
        out.append(values)
        if not swept:
            continue
        lo, hi = d.support.lower, d.support.upper
        xs = np.minimum(grid[swept], hi)
        # residual: panel j is [x_j, x_{j+1}], the last one [x_m, hi]; past: [x_{j-1}, x_j] from x_0 = lo
        edges = np.concatenate((xs, [hi]) if residual else ([lo], xs))
        source = "sf" if residual else "cdf"
        blocks.append((d, source, 2 * n, [level[i] for i in swept], edges[:-1], edges[1:]))
        jobs.append((c, swept, level, beyond, 2 * n, residual))
    if not jobs:
        return out

    values, errors = _integrate(blocks)
    start = 0
    for c, swept, level, beyond, p, residual in jobs:
        acc = err = prev_level = 0.0
        for j in reversed(range(len(swept))) if residual else range(len(swept)):
            i = swept[j]
            w = (prev_level / level[i]) ** p
            acc, err = values[start + j] + w * acc, errors[start + j] + w * err
            out[c][i] = MeasureValue(-0.5 * (acc + beyond[i]), "quadrature", 0.5 * err)
            prev_level = level[i]
        start += len(swept)
    return out


def sign_changes(values: tuple[float, ...] | list[float]) -> int:
    """Number of interior sign changes of the discrete derivative."""
    diffs = [b - a for a, b in zip(values, values[1:])]
    signs = [1 if v > 0 else -1 for v in diffs if v != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
