"""Cumulative residual/past extropy, entropy analogues, and dynamic versions.

``evaluate`` dispatches a :class:`MeasureKind` against a distribution:
closed forms from the catalog when the (family, side) pair has one, adaptive
quadrature otherwise.  The catalog writes each closed form once per family
and side, as a function of the age clamped into the support: a static kind
is its dynamic kind read at the support's lower (residual) or upper (past)
end, where the level is 1.  Three bounded power-law ends (Power's residual
side, the past sides of FiniteRange and of a bounded GPD) have static forms
only, a complete beta function written as a finite product.  The minimum of
m reads its parent's residual entry, and the maximum of m its parent's past
entry, at order n m.  The catalog contains only formulas with an exact
derivation; everything else is integrated numerically by the batched engine
``quadrature.integrate_panels``, split at the distribution's breakpoints.

``_evaluate_arrays`` integrates many kinds, each at many ages, at once and
gives each the bits ``evaluate`` gives it alone; ``_batch_arrays`` is the
same for a list of ``MeasureKind``s.  ``_sweep_arrays`` gives several
dynamic curves (distribution, dynamic kind, n) on one increasing age grid
from one sweep of short panels.  Both take their levels, sf(t) or cdf(t),
and degenerate ages from ``distributions._levels``, one array ``sf``/``cdf``
call per dynamic group or (distribution, side), and integrate in one
``_integrate`` call, whose integrand calls each distinct (distribution,
source) once per engine pass and raises every integral to its own Python
int power, so an integral's bits do not depend on the rest of the call.

All of them give their results as ``_Arrays``: value, error, closed-form
and degenerate arrays, with no object per age.  The check suites in
``analysis`` and ``characterize`` take their margins from these arrays.
The public entries build their objects once, from the arrays: ``evaluate``
(and the CLI's figures) read one group through ``_evaluate_group``, which
raises at the first degenerate age; ``curve`` and ``evaluate_grid`` give a
value, or the error of a degenerate age, per age of a grid.

Sign conventions: the extropy family (extropy, crex, cpex and the dynamic
versions) is always <= 0; the entropy analogues (cren, cpen) are >= 0.

Static residual measures integrate from the lower support endpoint, so they
are insensitive to a pure location shift (this is what makes the
location-family equality checks meaningful).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

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
    _degenerate,
    _levels,
    _shared_values,
)
from .errors import (
    DegenerateHead,
    DegenerateTail,
    ExtropyError,
    UnboundedSupport,
    VanishingDensity,
)
from .quadrature import _START_PIECES, integrate, integrate_panels

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

#: a closed form at the ages clamped into the support, a float or an array of them
_Entry = Callable[[Union[float, np.ndarray]], Union[float, np.ndarray]]


def _catalog_entry(d: Distribution, name: str, n: int) -> Optional[_Entry]:
    """The closed form of (name, n) on d, decided once per lookup, not once per age; None where there is none.

    One entry per (family, side) serves every kind of that side: a plain
    kind at order n integrates the same (sf or cdf)^{2n} as its
    extreme-order kind, and a static kind is its dynamic kind read at the
    support's lower (residual) or upper (past) end, where the level is 1.
    An extreme order reads its parent's entry: the sf of a minimum of m is
    the parent's sf^m and the cdf of a maximum of m the parent's cdf^m, so
    a residual kind of the minimum (a past kind of the maximum) at order n
    is the parent's at order n m (``Distribution._extreme_of``), at every
    age and recursively.  Three bounded power-law ends have a closed form
    for their static kinds only (``_power_law_end``): Power's residual
    side, and the past sides of FiniteRange and of a GPD with a bounded
    support.
    """
    if name in ("extropy", "cren", "cpen"):
        return None
    residual = name in RESIDUAL_KINDS
    extreme = d._extreme_of(residual)
    if extreme is not None:
        parent, m = extreme
        return _catalog_entry(parent, name, n * m)
    static = name not in DYNAMIC_KINDS
    if not residual:
        if isinstance(d, Power):
            den = 2.0 * (2.0 * n * d.c + 1.0)
            return lambda t: -t / den
        if isinstance(d, Uniform):
            den = 2.0 * (2.0 * n + 1.0)
            return lambda t: -(t - d.a) / den
        if isinstance(d, FiniteRange) and static:
            return _power_law_end(1.0 / d.a, d.b, n)
        if isinstance(d, GPD) and d.support.bounded and static:
            # sf = (1 - |lam| x / theta)^beta: FiniteRange(|lam| / theta, beta) with beta = (1 + lam) / |lam|
            return _power_law_end(d.support.upper, (1.0 + d.lam) / -d.lam, n)
        return None
    if isinstance(d, GPD):
        den = 2.0 * (2.0 * n * (1.0 + d.lam) - d.lam)
        return lambda t: -(d.theta + d.lam * t) / den
    if isinstance(d, Exponential):
        value = -1.0 / (4.0 * n * d.lam)
        return lambda t: value
    if isinstance(d, Pareto):
        den = 2.0 * (2.0 * n * d.theta - 1.0)
        return lambda t: -(d.lam + t) / den
    if isinstance(d, FoldedCramer):
        den = 2.0 * (2.0 * n - 1.0) * d.theta
        return lambda t: -(1.0 + d.theta * t) / den
    if isinstance(d, FiniteRange):
        den = 2.0 * d.a * (1.0 + 2.0 * n * d.b)
        return lambda t: -(1.0 - d.a * t) / den
    if isinstance(d, Uniform):
        den = 2.0 * (2.0 * n + 1.0)
        return lambda t: -(d.b - t) / den
    if isinstance(d, Weibull) and static:
        # the dynamic form needs the upper incomplete gamma function, which math lacks
        value = -math.gamma(1.0 / d.theta) / (2.0 * d.theta * (2.0 * n * d.lam) ** (1.0 / d.theta))
        return lambda t: value
    if isinstance(d, Power) and static:
        return _power_law_end(d.b, d.c, n)
    return None


#: the most factors ``_power_law_end`` multiplies (13 ms of Python on a 2-core Xeon); a larger order is quadrature
_MAX_FACTORS = 2**17


def _power_law_end(width: float, kappa: float, n: int) -> Optional[_Entry]:
    """The static entry -1/2 int_0^width (1 - (s/width)^kappa)^{2n} ds, s the distance from the end at level 1.

    Its dynamic kinds need the incomplete beta function, which math lacks.
    The substitution v = (s/width)^kappa makes the integral (width/kappa)
    B(1/kappa, 2n + 1), a complete beta function whose second argument is an
    integer: the finite product width prod_{j=1}^{2n} j kappa / (1 + j kappa)
    (DLMF 5.12.1).  Each factor is written kappa / (1/j + kappa), which no
    kappa overflows; the product is within 4 (2n + 1) eps of the exact value.
    None above ``_MAX_FACTORS`` factors, where the loop would take seconds.
    """
    if 2 * n > _MAX_FACTORS:
        return None
    value = -0.5 * width * math.prod(kappa / (1.0 / j + kappa) for j in range(1, 2 * n + 1))
    return lambda t: value


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
_Block = tuple[Distribution, str, int, np.ndarray, np.ndarray, np.ndarray]


def _integrate(blocks: Sequence[_Block], pieces: int = _START_PIECES) -> tuple[np.ndarray, np.ndarray]:
    """Every integral of every block in one ``integrate_panels`` call: (values, abs_error_estimates).

    A block (d, source, p, levels, a, b) holds the integrals over [a_i, b_i]
    of (g/level_i)^p, g = getattr(d, source), or of -(g/level_i) log(g/level_i)
    where p is 0.  The distributions must share breakpoints (an order
    statistic forwards its parent's); a ValueError otherwise.  ``pieces`` is
    the engine's start per finite segment: the sweep's short panels start
    from 1, every other integral from _START_PIECES.
    """
    points = blocks[0][0].breakpoints
    uses: dict[tuple[int, str], int] = {}  # (id of the distribution, source) -> its index in sources
    sources: list[Callable[[np.ndarray], np.ndarray]] = []
    of_use: list[int] = []
    for d, source, *_ in blocks:
        if (id(d), source) not in uses:
            if d.breakpoints != points:
                raise ValueError("the distributions of one engine call must share breakpoints")
            uses[(id(d), source)] = len(sources)
            sources.append(getattr(d, source))
        of_use.append(uses[(id(d), source)])
    scale, a, b = (np.concatenate([block[k] for block in blocks]) for k in (3, 4, 5))
    powers = sorted({block[2] for block in blocks})
    # each integral's source and power, read only where the call mixes sources or powers
    sizes = [len(block[3]) for block in blocks]
    use = np.repeat(of_use, sizes) if len(sources) > 1 else None
    power = np.repeat([block[2] for block in blocks], sizes) if len(powers) > 1 else None

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
                if np.count_nonzero(sel):
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

    return integrate_panels(f, a, b, points, pieces=pieces)


class _Arrays(NamedTuple):
    """A measure at an array of ages: what ``evaluate`` gives or raises at each.

    ``closed`` marks the values of a closed form (error 0), the others are
    quadrature; ``degenerate`` marks the ages where ``evaluate`` raises
    ``distributions._degenerate`` (value and error 0 there).
    """

    value: np.ndarray
    error: np.ndarray
    closed: np.ndarray
    degenerate: np.ndarray


def _zeros(size: int) -> _Arrays:
    return _Arrays(np.zeros(size), np.zeros(size), np.zeros(size, dtype=bool), np.zeros(size, dtype=bool))


def _closed_forms(
    d: Distribution, name: str, n: int, at: np.ndarray, beyond: np.ndarray, degenerate: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The catalog's closed form of (name, n) on d at every age that is not degenerate, and where it holds.

    The entry reads the ages clamped into the support (``at``, from
    ``_levels``, or the support's end for a static kind) and adds -beyond/2
    for the stretch outside it.
    """
    entry = _catalog_entry(d, name, n)
    if entry is None:
        return np.zeros(at.size), np.zeros(at.size, dtype=bool)
    return np.where(degenerate, 0.0, entry(at) - 0.5 * beyond), ~degenerate


#: one kind at order n: (name, n, ages), ages a float64 array for a dynamic kind and None for a static one
_Group = tuple[str, int, Optional[np.ndarray]]


def _evaluate_arrays(d: Distribution, groups: Sequence[_Group], force_quadrature: bool = False) -> list[_Arrays]:
    """``evaluate`` of every group's kind at every age of it, as arrays; a static kind is one value.

    The names and orders must be valid and the ages numbers.  The levels of
    each dynamic group come from its own ``_levels`` call; each group's
    catalog entry is decided once and wins where it holds.  Every other
    value is one integral, and all of them go to one ``_integrate`` call;
    since the engine's results do not depend on the batch, each value and
    error estimate is what ``evaluate`` gives alone, bit for bit: -1/2
    (integral + beyond), or the integral itself for cren and cpen, is the
    same IEEE arithmetic elementwise as on floats.  Any error other than a
    degenerate age (a past measure of an unbounded support) is raised.
    """
    lo, hi = d.support.lower, d.support.upper
    out: list[_Arrays] = []
    blocks: list[_Block] = []
    jobs: list[tuple[int, np.ndarray, float, np.ndarray]] = []  # (group, its integrated ages, factor, beyond)
    for g, (name, n, ages) in enumerate(groups):
        residual = name in RESIDUAL_KINDS
        if ages is None:
            # a static kind conditions on nothing: level 1, never degenerate, over the whole support
            size, level, degenerate, beyond = 1, np.ones(1), np.zeros(1, dtype=bool), np.zeros(1)
            at = np.array([lo if residual else hi])
        else:
            size, (level, degenerate, at, beyond) = ages.size, _levels(d, residual, ages)
        if force_quadrature:
            value, closed = np.zeros(size), np.zeros(size, dtype=bool)
        else:
            value, closed = _closed_forms(d, name, n, at, beyond, degenerate)
        out.append(_Arrays(value, np.zeros(size), closed, degenerate))
        todo = (~(closed | degenerate)).nonzero()[0]
        if not todo.size:
            continue
        # integrand g^p of g = pdf, sf or cdf (-g log g for p = 0) over [a, b]
        if name == "extropy":
            source, p = "pdf", 2
        elif name in ("cren", "cpen"):
            source, p = ("sf" if name == "cren" else "cdf"), 0
        else:
            source, p = ("sf" if residual else "cdf"), 2 * n
        if name in ("cpen", "cpex", "cpex-max"):
            _require_bounded(d, name)
        a, b = (at[todo], np.full(todo.size, hi)) if residual else (np.full(todo.size, lo), at[todo])
        blocks.append((d, source, p, level[todo], a, b))
        jobs.append((g, todo, 1.0 if name in ("cren", "cpen") else -0.5, beyond[todo]))
    if not blocks:
        return out
    values, errors = _integrate(blocks)
    start = 0
    for g, todo, factor, beyond in jobs:
        stop = start + todo.size
        out[g].value[todo] = factor * (values[start:stop] + beyond)
        out[g].error[todo] = abs(factor) * errors[start:stop]
        start = stop
    return out


def _batch_arrays(d: Distribution, kinds: Sequence[MeasureKind], force_quadrature: bool = False) -> _Arrays:
    """``evaluate`` of every kind on d, as arrays in the order of kinds: the kinds grouped by (name, n)."""
    index: dict[tuple[str, int], list[int]] = {}
    for i, kind in enumerate(kinds):
        index.setdefault((kind.name, kind.n), []).append(i)
    groups = [
        (name, n, np.array([kinds[i].t for i in idx], dtype=np.float64) if name in DYNAMIC_KINDS else None)
        for (name, n), idx in index.items()
    ]
    parts = _evaluate_arrays(d, groups, force_quadrature)
    if len(parts) == 1 and parts[0].value.size == len(kinds):
        return parts[0]
    out = _zeros(len(kinds))
    for idx, part in zip(index.values(), parts):
        for field, values in zip(out, part):
            field[idx] = values  # a static kind's one value goes to each of its places
    return out


def _evaluate_group(
    d: Distribution, name: str, n: int, ages: Optional[Sequence[float]], force_quadrature: bool = False
) -> _Arrays:
    """``evaluate`` of the kind (name, n) on d at every age, None for a static kind, as arrays.

    The first degenerate age raises, as ``evaluate`` raises there.
    """
    group = (name, n, None if ages is None else np.array(ages, dtype=np.float64))
    (results,) = _evaluate_arrays(d, [group], force_quadrature)
    if results.degenerate.any():
        raise _degenerate(name in RESIDUAL_KINDS, ages[int(np.argmax(results.degenerate))])
    return results


def evaluate(d: Distribution, kind: MeasureKind, *, force_quadrature: bool = False) -> MeasureValue:
    """Evaluate one measure; closed form when cataloged, quadrature otherwise."""
    dynamic = kind.name in DYNAMIC_KINDS
    if not force_quadrature and not dynamic:
        # a static kind's closed form, read at the support's end before any array is built; the arrays give the same
        entry = _catalog_entry(d, kind.name, kind.n)
        if entry is not None:
            end = d.support.lower if kind.name in RESIDUAL_KINDS else d.support.upper
            return MeasureValue(float(entry(end)), "closed-form", 0.0)
    value, error, closed, _ = _evaluate_group(d, kind.name, kind.n, [kind.t] if dynamic else None, force_quadrature)
    return MeasureValue(value.item(0), "closed-form" if closed[0] else "quadrature", error.item(0))


def crex_min_quantile_form(d: Distribution, n: int) -> MeasureValue:
    """CREx of the minimum through the quantile-form integral.

    -1/2 * int_0^1 u^{2n} / f(F^{-1}(1-u)) du; an independent route that must
    agree with ``evaluate(d, crex_min(n))`` within combined error estimates.
    """

    def integrand(u: np.ndarray) -> np.ndarray:
        # the nodes of the engine and of its end rule stay over 1,000 ulps below u = 1, so q > 0
        f = d.pdf(d.quantile(1.0 - u))
        bad = ~((f > 0.0) & np.isfinite(f))
        if bad.any():
            raise VanishingDensity(f"density degenerate at quantile(1-{u[bad][0]})")
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
    """A dynamic measure over a strictly increasing grid: ``evaluate`` at every age, in one batch."""
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ExtropyError("t_grid must be strictly increasing")
    results = _batch_arrays(d, [kind_for_t(t) for t in t_grid])
    degenerate = results.degenerate.tolist()
    return Curve(
        tuple(t for t, dg in zip(t_grid, degenerate) if not dg),
        tuple(results.value[~results.degenerate].tolist()),
        tuple(t for t, dg in zip(t_grid, degenerate) if dg),
    )


GridValue = Union[MeasureValue, DegenerateTail, DegenerateHead]


def evaluate_grid(
    d: Distribution,
    kind_for_t: Callable[[float], MeasureKind],
    t_grid: Sequence[float],
) -> list[GridValue]:
    """A dynamic measure at every age of a grid: what ``evaluate`` returns or raises there.

    A grid of one dynamic kind at one order is a single curve of the
    multi-curve sweep ``_sweep_arrays``: levels from one array call, closed forms
    pointwise, and on a strictly increasing grid one engine call for the
    short panels between neighbouring ages.  Any other
    grid (mixed kinds or orders, or a static kind) is evaluated as
    ``evaluate`` would, in one batch.
    """
    kinds = [kind_for_t(t) for t in t_grid]
    if kinds and kinds[0].name in DYNAMIC_KINDS and all((k.name, k.n) == (kinds[0].name, kinds[0].n) for k in kinds):
        (results,) = _sweep_arrays([(d, kinds[0].name, kinds[0].n)], [kind.t for kind in kinds])
    else:
        results = _batch_arrays(d, kinds)
    value, error, closed, degenerate = (field.tolist() for field in results)
    return [
        _degenerate(k.name in RESIDUAL_KINDS, k.t) if dg else MeasureValue(v, "closed-form" if cf else "quadrature", e)
        for k, v, e, cf, dg in zip(kinds, value, error, closed, degenerate)
    ]


def _sweep_arrays(curves: Sequence[tuple[Distribution, str, int]], ages: Sequence[float]) -> list[_Arrays]:
    """Several dynamic-measure curves on one age grid, in one engine call, as arrays.

    A curve is (distribution, dynamic kind name, n).  The levels and
    degenerate ages come from one ``_levels`` call per distinct
    (distribution, side), which share one array call per (distribution,
    functional): the orders of one parent all take their levels from the
    parent's cdf and sf at the grid.  Each curve's closed form is looked up once;
    closed forms win pointwise.  On a strictly increasing grid the remaining
    ages t_1 < ... < t_m of a curve share one sweep of short panels.
    Residual side, with D_i = int_{t_i}^{hi} (S/S(t_i))^{2n}:

        D_i = int_{t_i}^{t_{i+1}} (S/S(t_i))^{2n} + (S(t_{i+1})/S(t_i))^{2n} D_{i+1},

    so only D_m runs to the upper support end.  The past side is the mirror
    image: it runs forward from the lower support end with (F/F(t_i))^{2n}.
    The panels end at the ages clamped into the support, and the stretch
    beyond it is added exactly (``_levels``).  Error estimates combine with
    the same weights, which are at most 1.

    The panels of every curve go to one ``_integrate`` call, so the curves
    must share breakpoints, and a curve gets the bits it gets when swept
    alone.  The engine starts each finite segment of a panel as one qk21
    piece, not four: the panels are already short, and four pieces would
    quadruple the first pass's nodes.  The mapped tail [t_m, inf) still
    starts as four, since one piece there needs more passes.  A grid that
    is not strictly increasing, or holds a nan, is evaluated curve by
    curve as ``evaluate`` would, in one batch each.
    """
    ages = list(ages)
    if any(math.isnan(t) for t in ages) or any(b <= a for a, b in zip(ages, ages[1:])):
        return [_batch_arrays(d, [MeasureKind(name, n, t) for t in ages]) for d, name, n in curves]
    m = len(ages)
    if not m:
        return [_zeros(0) for _ in curves]
    grid = np.array(ages, dtype=np.float64)
    values = _shared_values(grid)
    sides: dict[tuple[int, bool], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
    out: list[_Arrays] = []
    blocks: list[_Block] = []
    jobs: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, int, bool]] = []  # the curves with swept ages
    for c, (d, name, n) in enumerate(curves):
        MeasureKind(name, n, ages[0])  # the kind and order are valid
        residual = name in RESIDUAL_KINDS
        key = (id(d), residual)
        if key not in sides:
            sides[key] = _levels(d, residual, grid, values)
        level, degenerate, at, beyond = sides[key]
        value, closed = _closed_forms(d, name, n, at, beyond, degenerate)
        out.append(_Arrays(value, np.zeros(m), closed, degenerate))
        swept = (~(closed | degenerate)).nonzero()[0]
        if not swept.size:
            continue
        lo, hi = d.support.lower, d.support.upper
        # residual: panel j is [x_j, x_{j+1}], the last one [x_m, hi]; past: [x_{j-1}, x_j] from x_0 = lo
        edges = np.concatenate((at[swept], [hi]) if residual else ([lo], at[swept]))
        blocks.append((d, "sf" if residual else "cdf", 2 * n, level[swept], edges[:-1], edges[1:]))
        jobs.append((c, swept, level[swept], beyond[swept], 2 * n, residual))
    if not jobs:
        return out

    values, errors = _integrate(blocks, pieces=1)
    start = 0
    for c, swept, levels, beyond, p, residual in jobs:
        stop = start + swept.size
        acc, err = _recurrence(values[start:stop].tolist(), errors[start:stop].tolist(), levels.tolist(), p, residual)
        out[c].value[swept] = -0.5 * (np.array(acc) + beyond)
        out[c].error[swept] = 0.5 * np.array(err)
        start = stop
    return out


def _recurrence(
    values: list[float], errors: list[float], levels: list[float], p: int, residual: bool
) -> tuple[list[float], list[float]]:
    """The sweep's running sums D_j = v_j + (level_prev/level_j)^p D_prev and their error estimates.

    The residual side runs backwards from the last panel, the past side
    forwards from the first.  Python floats and int powers, as a scalar
    ``**`` rounds: a float exponent array could round otherwise.
    """
    acc, err = [0.0] * len(values), [0.0] * len(values)
    a = e = prev_level = 0.0
    for j in reversed(range(len(values))) if residual else range(len(values)):
        w = (prev_level / levels[j]) ** p
        a, e = values[j] + w * a, errors[j] + w * e
        acc[j], err[j] = a, e
        prev_level = levels[j]
    return acc, err


def sign_changes(values: tuple[float, ...] | list[float]) -> int:
    """Number of interior sign changes of the discrete derivative."""
    diffs = [b - a for a, b in zip(values, values[1:])]
    signs = [1 if v > 0 else -1 for v in diffs if v != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
