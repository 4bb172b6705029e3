"""Property-check harness: bounds, inequalities, orderings, closures.

Every check evaluates a stated inequality on a concrete grid and reports a
verdict with the worst margin (lhs - rhs, so Holds means worst_margin >=
-tolerance).  Checks never prove the general statements; they verify
instances deterministically.

Tolerance policy: 1e-7 absolute plus the quadrature error estimates of both
sides.  Inequalities are non-strict, so numerical ties pass.  A report is
Inconclusive when more than 10% of grid points were degenerate, or when a
theorem's premise fails on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import Distribution, Mixture, Uniform
from .errors import (
    DegenerateHead,
    DegenerateTail,
    UnboundedSupport,
)
from .measures import (
    GridValue,
    MeasureValue,
    _evaluate_batch,
    _sweep,
    _values,
    cpen,
    cpex,
    cpex_max,
    crex,
    crex_min,
    dcpex,
    dcpex_max,
    dcrex,
    evaluate,
    evaluate_grid,
)
from .orderstats import MAX_N, kth_order
from .quadrature import integrate_array

BASE_TOL = 1e-7
_INCONCLUSIVE_FRACTION = 0.10

#: cells of the uniform grid used by the numerical convolution
CONV_CELLS = 2**12
#: discretization allowance for convolution-based comparisons
CONV_TOL = 1e-3


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    verdict: str  # "Holds" | "Fails" | "Inconclusive"
    worst_margin: float
    worst_point: Optional[object]
    points_tested: int

    @property
    def holds(self) -> bool:
        return self.verdict == "Holds"

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "verdict": self.verdict,
            "worst_margin": self.worst_margin,
            "worst_point": self.worst_point,
            "points_tested": self.points_tested,
        }


@dataclass(frozen=True)
class OrderVerdict:
    relation: str
    holds_on_grid: bool
    counterexample_t: Optional[float] = None

    def __post_init__(self) -> None:
        assert (self.counterexample_t is not None) == (not self.holds_on_grid)


def default_grid(d: Distribution, points: int = 40, lo_q: float = 0.01, hi_q: float = 0.99) -> list[float]:
    """Equally spaced ages between two interior quantiles."""
    lo = d.quantile(lo_q)
    hi = d.quantile(hi_q)
    return list(np.linspace(lo, hi, points))


def _margins_report(
    check_id: str,
    margins: list[tuple[float, object]],
    degenerate: int = 0,
    tol: Optional[float] = None,
    premise_failed: bool = False,
) -> CheckReport:
    if tol is None:  # read at call time, so a CLI --tol override reaches every check
        tol = BASE_TOL
    total = len(margins) + degenerate
    if premise_failed or (total > 0 and degenerate > _INCONCLUSIVE_FRACTION * total) or not margins:
        worst = min(margins, default=(math.nan, None))
        return CheckReport(check_id, "Inconclusive", worst[0], worst[1], len(margins))
    worst_margin, worst_point = min(margins, key=lambda mp: mp[0])
    verdict = "Holds" if worst_margin >= -tol else "Fails"
    return CheckReport(check_id, verdict, worst_margin, worst_point, len(margins))


def _pair(a: MeasureValue, b: MeasureValue) -> tuple[float, float]:
    """Margin a >= b together with its combined tolerance."""
    return a.value - b.value, BASE_TOL + a.abs_error_estimate + b.abs_error_estimate


def _value(v: GridValue) -> MeasureValue:
    """A grid value, or the degenerate-age error that ``evaluate`` raises there."""
    if isinstance(v, MeasureValue):
        return v
    raise v


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------


def check_dcrex_order(d1: Distribution, d2: Distribution, t_grid: Sequence[float]) -> OrderVerdict:
    """d1 precedes d2 in the dynamic residual-extropy order on the grid."""
    return _dynamic_order(d1, d2, t_grid, "residual")


def check_dcpex_order(d1: Distribution, d2: Distribution, t_grid: Sequence[float]) -> OrderVerdict:
    """d1 dominates d2 in the dynamic past-extropy order on the grid."""
    return _dynamic_order(d1, d2, t_grid, "past")


def _dynamic_order(d1: Distribution, d2: Distribution, t_grid: Sequence[float], side: str) -> OrderVerdict:
    """dcrex (side "residual") or dcpex (side "past") of d1 >= that of d2 at every
    nondegenerate age; the first age, in grid order, that fails is the counterexample."""
    name, relation = ("dcrex", "DCRExLeq") if side == "residual" else ("dcpex", "DCPExGeq")
    # one sweep per distribution: their breakpoints may differ
    for t, a, b in zip(t_grid, *(_sweep([(d, name, 1)], t_grid)[0] for d in (d1, d2))):
        if not (isinstance(a, MeasureValue) and isinstance(b, MeasureValue)):
            continue
        margin, tol = _pair(a, b)
        if margin < -tol:
            return OrderVerdict(relation, False, counterexample_t=t)
    return OrderVerdict(relation, True)


def check_hr_implies_dcrex(
    d1: Distribution, d2: Distribution, n: int, t_grid: Sequence[float]
) -> CheckReport:
    """Hazard-rate dominance of d1 over d2 transfers to minima extropy curves.

    The hazard premise lambda_1(t) >= lambda_2(t) is verified first; if it
    fails anywhere on the grid the report is Inconclusive (the conclusion is
    only claimed under the premise).
    """
    return _premise_transfer(d1, d2, n, t_grid, "residual")


def check_rh_implies_dcpex(
    d1: Distribution, d2: Distribution, n: int, t_grid: Sequence[float]
) -> CheckReport:
    """Reversed-hazard dominance transfers to maxima past-extropy curves."""
    return _premise_transfer(d1, d2, n, t_grid, "past")


def _premise_transfer(d1: Distribution, d2: Distribution, n: int, t_grid: Sequence[float], side: str) -> CheckReport:
    """Hazard (side "residual") or reversed-hazard (side "past") dominance of d1 over
    d2 transfers to the dynamic extropy of minima or maxima.

    The first age, in grid order, where the premise fails makes the report
    Inconclusive with 0 points.  An age where a rate or a measure is
    degenerate is counted as degenerate.
    """
    residual = side == "residual"
    check_id = f"{'hr-implies-dcrex' if residual else 'rh-implies-dcpex'}(n={n})"
    rate = "hazard_rate" if residual else "reversed_hazard"
    name = "dcrex-min" if residual else "dcpex-max"
    margins: list[tuple[float, object]] = []
    degenerate = 0
    tol = BASE_TOL
    # one sweep per distribution: their breakpoints may differ
    for t, a, b in zip(t_grid, *(_sweep([(d, name, n)], t_grid)[0] for d in (d1, d2))):
        try:
            if getattr(d1, rate)(t) < getattr(d2, rate)(t) - BASE_TOL:
                return CheckReport(check_id, "Inconclusive", math.nan, t, 0)
            margin, pt_tol = _pair(_value(a), _value(b))
        except (DegenerateTail, DegenerateHead):
            degenerate += 1
            continue
        tol = max(tol, pt_tol)
        margins.append((margin, t))
    return _margins_report(check_id, margins, degenerate, tol)


_RESIDUAL_CHAIN = (
    lambda k, n: ((k, n), (k + 1, n)),
    lambda k, n: ((k, n), (k, n - 1)),
    lambda k, n: ((k, n), (k + 1, n + 1)),
)
_PAST_CHAIN = (
    lambda k, n: ((k, n), (k - 1, n)),
    lambda k, n: ((k, n), (k, n + 1)),
    lambda k, n: ((k, n), (k - 1, n - 1)),
)


def check_korder_chains(
    d: Distribution, k: int, n: int, t_grid: Sequence[float], side: str
) -> CheckReport:
    """Chain inequalities between neighbouring k-of-n system lifetimes.

    side="residual": dynamic residual extropy of X_{k:n} dominates that of
    X_{k+1:n}, X_{k:n-1} and X_{k+1:n+1}.  side="past": the dual chain for
    dynamic past extropy (X_{k-1:n}, X_{k:n+1}, X_{k-1:n-1}).  Pairs with an
    order outside 1 <= k <= n <= MAX_N are skipped.  The curves of all the
    distinct orders the chains reach come from one multi-curve sweep over
    the grid, with one engine call.
    """
    if side not in ("residual", "past"):
        raise ValueError(f"side must be residual|past, got {side!r}")
    chains = _RESIDUAL_CHAIN if side == "residual" else _PAST_CHAIN
    pairs = [
        ((k1, n1), (k2, n2))
        for (k1, n1), (k2, n2) in (chain(k, n) for chain in chains)
        if 1 <= k1 <= n1 <= MAX_N and 1 <= k2 <= n2 <= MAX_N
    ]
    orders = list(dict.fromkeys(order for pair in pairs for order in pair))
    name = "dcrex" if side == "residual" else "dcpex"
    curves = dict(zip(orders, _sweep([(kth_order(d, *order), name, 1) for order in orders], t_grid)))

    margins: list[tuple[float, object]] = []
    degenerate = 0
    tol = BASE_TOL
    for (k1, n1), (k2, n2) in pairs:
        for t, a, b in zip(t_grid, curves[(k1, n1)], curves[(k2, n2)]):
            if not (isinstance(a, MeasureValue) and isinstance(b, MeasureValue)):
                degenerate += 1
                continue
            margin, pt_tol = _pair(a, b)
            tol = max(tol, pt_tol)
            margins.append((margin, (t, (k1, n1), (k2, n2))))
    return _margins_report(f"korder-chain({side},k={k},n={n})", margins, degenerate, tol)


# ---------------------------------------------------------------------------
# Past-extropy inequalities
# ---------------------------------------------------------------------------


def check_convolution_inequality(d1: Distribution, d2: Distribution) -> CheckReport:
    """Past extropy of an independent sum dominates each summand's.

    Both sides are evaluated on the sum's support window [0, b1 + b2], each
    summand as dcpex at b1 + b2 (its cdf is 1 there); the sum's cdf comes
    from a discrete convolution of exact cell masses on a uniform grid
    (deterministic, CONV_CELLS cells), so components much narrower than a
    cell are still carried in full.
    """
    if not (d1.support.bounded and d2.support.bounded):
        raise UnboundedSupport("convolution inequality requires bounded supports")
    b_sum = d1.support.upper + d2.support.upper
    dx = b_sum / CONV_CELLS
    edges = np.arange(CONV_CELLS + 1) * dx
    m1 = np.diff(d1.cdf(edges))  # exact cell masses
    m2 = np.diff(d2.cdf(edges))
    mass_sum = np.convolve(m1, m2)[:CONV_CELLS]
    cdf_sum = np.clip(np.cumsum(mass_sum), 0.0, 1.0)
    lhs = -0.5 * float(np.sum(cdf_sum**2) * dx)
    rhs = max(evaluate(d1, dcpex(b_sum)).value, evaluate(d2, dcpex(b_sum)).value)
    margin = lhs - rhs
    verdict = "Holds" if margin >= -CONV_TOL else "Fails"
    return CheckReport("convolution-cpex", verdict, margin, None, CONV_CELLS)


def check_conditioning(mixture: list[tuple[float, Distribution]]) -> CheckReport:
    """Mixing can only raise past extropy above the mixed components' average.

    Component past extropies are taken over the mixture's own support window,
    as dcpex at its upper end (conditional past extropy integrates over the
    unconditional support).
    """
    mix = Mixture(mixture)  # validates weights
    if not mix.support.bounded:
        raise UnboundedSupport("conditioning inequality requires bounded supports")
    b = mix.support.upper
    lhs = evaluate(mix, dcpex(b))
    rhs = 0.0
    rhs_err = 0.0
    for w, comp in mix.components:
        v = evaluate(comp, dcpex(b))
        rhs += w * v.value
        rhs_err += w * v.abs_error_estimate
    margin = lhs.value - rhs
    tol = BASE_TOL + lhs.abs_error_estimate + rhs_err
    verdict = "Holds" if margin >= -tol else "Fails"
    return CheckReport("conditioning-cpex", verdict, margin, None, len(mix.components))


def check_mean_abs_diff(d: Distribution) -> CheckReport:
    """Two iid-pair inequalities on a bounded support [0, b].

    E|X - Y| = 2 * int F(1-F) >= 4 * cpex(X), and cpex(X) >= (E(X) - b) / 2.
    """
    if not d.support.bounded:
        raise UnboundedSupport("mean-absolute-difference inequality requires bounded support")
    b = d.support.upper
    mad2, mad_err = integrate_array(lambda x: d.cdf(x) * d.sf(x), d.support.lower, b, d.breakpoints)
    mad = 2.0 * mad2
    cp = evaluate(d, cpex())
    mu = d.mean()
    margins = [
        (mad - 4.0 * cp.value, "mad>=4cpex"),
        (cp.value - 0.5 * (mu - b), "cpex>=(mu-b)/2"),
    ]
    tol = BASE_TOL + 2.0 * mad_err + 4.0 * cp.abs_error_estimate
    return _margins_report("mean-abs-diff", margins, tol=tol)


def check_shift_independence(d: Distribution, scale: float, shift: float) -> CheckReport:
    """cpex(scale * X + shift) equals scale * cpex(X)."""
    if not d.support.bounded:
        raise UnboundedSupport("past extropy requires bounded support")
    lhs = evaluate(d.affine(scale, shift), cpex())
    rhs = evaluate(d, cpex())
    diff = abs(lhs.value - scale * rhs.value)
    tol = 1e-8 + lhs.abs_error_estimate + scale * rhs.abs_error_estimate
    margin = tol - diff
    verdict = "Holds" if diff <= tol else "Fails"
    return CheckReport(f"shift-independence(scale={scale},shift={shift})", verdict, margin, None, 1)


def check_cpex_cpen_inequality(d: Distribution) -> CheckReport:
    """cpex(X) <= (cpen(X) - (b - E(X))) / 2 on a bounded support."""
    if not d.support.bounded:
        raise UnboundedSupport("requires bounded support")
    b = d.support.upper
    lhs = evaluate(d, cpex())
    en = evaluate(d, cpen())
    rhs_value = 0.5 * (en.value - (b - d.mean()))
    margin = rhs_value - lhs.value
    tol = BASE_TOL + lhs.abs_error_estimate + 0.5 * en.abs_error_estimate
    verdict = "Holds" if margin >= -tol else "Fails"
    return CheckReport("cpex-cpen", verdict, margin, None, 1)


# ---------------------------------------------------------------------------
# Bound suites
# ---------------------------------------------------------------------------


def check_crexmin_monotone_n(d: Distribution, ns: Sequence[int] = tuple(range(1, 11))) -> CheckReport:
    """Residual extropy of minima is nondecreasing in the sample size."""
    margins = []
    tol = BASE_TOL
    prev = None
    for n, cur in zip(ns, _values(_evaluate_batch(d, [crex_min(n) for n in ns]))):
        if prev is not None:
            margin, pt_tol = _pair(cur, prev)
            tol = max(tol, pt_tol)
            margins.append((margin, n))
        prev = cur
    return _margins_report("crexmin-monotone-n", margins, tol=tol)


def check_crexmin_mean_bound(d: Distribution, ns: Sequence[int] = tuple(range(1, 11))) -> CheckReport:
    """crex_min(n) >= -mean/2 (finite mean required)."""
    mu = d.mean()
    margins = []
    for n, v in zip(ns, _values(_evaluate_batch(d, [crex_min(n) for n in ns]))):
        margins.append((v.value + 0.5 * mu, n))
    return _margins_report("crexmin-mean-bound", margins)


def check_crexmin_vs_crex(d: Distribution, ns: Sequence[int] = tuple(range(1, 11))) -> CheckReport:
    """crex_min(n) >= crex for every n >= 1."""
    base, *values = _values(_evaluate_batch(d, [crex()] + [crex_min(n) for n in ns]))
    margins = []
    tol = BASE_TOL
    for n, v in zip(ns, values):
        margin, pt_tol = _pair(v, base)
        tol = max(tol, pt_tol)
        margins.append((margin, n))
    return _margins_report("crexmin-vs-crex", margins, tol=tol)


def check_dcrex_bounds(d: Distribution, n: int, t_grid: Sequence[float]) -> CheckReport:
    """Dynamic residual bounds: >= -mrl/2, nondecreasing in n, >= age-t parent value."""
    return _dynamic_bounds(d, n, t_grid, "residual")


def check_dcpex_bounds(d: Distribution, n: int, t_grid: Sequence[float]) -> CheckReport:
    """Dynamic past bounds: >= -eit/2, nondecreasing in n, >= age-t parent value."""
    return _dynamic_bounds(d, n, t_grid, "past")


def _dynamic_bounds(d: Distribution, n: int, t_grid: Sequence[float], side: str) -> CheckReport:
    """The dcrex (side "residual", mean residual life) or dcpex (side "past", expected
    inactivity time) bound suite.  Its three curves (extreme order at n, the
    plain measure, extreme order at n + 1) come from one multi-curve sweep.
    The mrl or eit of every age comes from one ``conditional_means`` call,
    and its error estimate joins the tolerance.
    """
    residual = side == "residual"
    plain, extreme = ("dcrex", "dcrex-min") if residual else ("dcpex", "dcpex-max")
    curves = list(zip(t_grid, *_sweep([(d, extreme, n), (d, plain, 1), (d, extreme, n + 1)], t_grid)))
    means: dict[float, tuple[float, float]] = {}
    if not residual or d.has_finite_mean:
        ages = [t for t, v, base, _ in curves if isinstance(v, MeasureValue) and isinstance(base, MeasureValue)]
        values, errors = d.conditional_means(ages, side)
        means = dict(zip(ages, zip(values.tolist(), errors.tolist())))
    label = "mrl" if residual else "eit"
    margins: list[tuple[float, object]] = []
    degenerate = 0
    tol = BASE_TOL
    for t, v, base, nxt in curves:
        try:
            v = _value(v)
            base = _value(base)
            if t in means:
                mean, mean_err = means[t]
                margins.append((v.value + 0.5 * mean, (label, t)))
                tol = max(tol, BASE_TOL + v.abs_error_estimate + 0.5 * mean_err)
            margin, pt_tol = _pair(v, base)
            tol = max(tol, pt_tol)
            margins.append((margin, ("vs-parent", t)))
            margin, pt_tol = _pair(_value(nxt), v)
            tol = max(tol, pt_tol)
            margins.append((margin, ("monotone-n", t)))
        except (DegenerateTail, DegenerateHead):
            degenerate += 1
    return _margins_report(f"{'dcrex' if residual else 'dcpex'}-bounds(n={n})", margins, degenerate, tol)


def check_dcpexmax_monotone_t(d: Distribution, n: int, t_grid: Sequence[float]) -> CheckReport:
    """Past extropy of maxima nonincreasing in the age t.

    Only claimed for monotone families; kinked cdfs are genuine
    counterexamples and must not be fed here.
    """
    margins: list[tuple[float, object]] = []
    tol = BASE_TOL
    prev: Optional[MeasureValue] = None
    prev_t = None
    degenerate = 0
    for t, cur in zip(t_grid, evaluate_grid(d, lambda t: dcpex_max(n, t), t_grid)):
        if not isinstance(cur, MeasureValue):
            degenerate += 1
            continue
        if prev is not None:
            margin, pt_tol = _pair(prev, cur)
            tol = max(tol, pt_tol)
            margins.append((margin, (prev_t, t)))
        prev, prev_t = cur, t
    return _margins_report(f"dcpexmax-monotone-t(n={n})", margins, degenerate, tol)


def check_cpexmax_bounds(d: Distribution, ns: Sequence[int] = tuple(range(1, 11))) -> CheckReport:
    """cpex_max(n) >= -(b - mean)/2, nondecreasing in n, >= cpex."""
    if not d.support.bounded:
        raise UnboundedSupport("requires bounded support")
    b = d.support.upper
    mu = d.mean()
    base, *values = _values(_evaluate_batch(d, [cpex()] + [cpex_max(n) for n in ns]))
    margins = []
    tol = BASE_TOL
    prev = None
    for n, v in zip(ns, values):
        margins.append((v.value + 0.5 * (b - mu), ("b-mu", n)))
        margin, pt_tol = _pair(v, base)
        tol = max(tol, pt_tol)
        margins.append((margin, ("vs-parent", n)))
        if prev is not None:
            margin, pt_tol = _pair(v, prev)
            tol = max(tol, pt_tol)
            margins.append((margin, ("monotone-n", n)))
        prev = v
    return _margins_report("cpexmax-bounds", margins, tol=tol)


def check_equilibrium_identity(d: Distribution) -> CheckReport:
    """Extropy of the equilibrium distribution equals crex(X) / mean^2."""
    mu = d.mean()
    value, err = integrate_array(lambda x: (d.sf(x) / mu) ** 2, d.support.lower, d.support.upper, d.breakpoints)
    lhs = -0.5 * value
    rhs = evaluate(d, crex())
    diff = abs(lhs - rhs.value / mu**2)
    tol = 1e-8 + 0.5 * err + rhs.abs_error_estimate / mu**2
    verdict = "Holds" if diff <= tol else "Fails"
    return CheckReport("equilibrium-identity", verdict, tol - diff, None, 1)


def check_symmetry_duality(d: Uniform, t_grid: Sequence[float]) -> CheckReport:
    """For X symmetric about b/2: dcpex(t) = dcrex(b - t)."""
    margins: list[tuple[float, object]] = []
    degenerate = 0
    b = d.support.upper
    lo = d.support.lower
    ts = list(t_grid)
    values = _evaluate_batch(d, [dcpex(t) for t in ts] + [dcrex(lo + b - t) for t in ts])
    for t, past, resid in zip(ts, values, values[len(ts) :]):
        if not (isinstance(past, MeasureValue) and isinstance(resid, MeasureValue)):
            degenerate += 1
            continue
        diff = abs(past.value - resid.value)
        tol = 1e-8 + past.abs_error_estimate + resid.abs_error_estimate
        margins.append((tol - diff, t))
    return _margins_report("symmetry-duality", margins, degenerate, tol=0.0)


def check_dcpex_shift_relation(
    d: Distribution, scale: float, shift: float, t_grid: Sequence[float]
) -> CheckReport:
    """dcpex of scale*X+shift at t equals scale * dcpex of X at (t-shift)/scale."""
    y = d.affine(scale, shift)
    margins: list[tuple[float, object]] = []
    degenerate = 0
    lhs_values = _evaluate_batch(y, [dcpex(scale * t + shift) for t in t_grid])
    for t, lhs, rhs in zip(t_grid, lhs_values, _evaluate_batch(d, [dcpex(t) for t in t_grid])):
        if not (isinstance(lhs, MeasureValue) and isinstance(rhs, MeasureValue)):
            degenerate += 1
            continue
        diff = abs(lhs.value - scale * rhs.value)
        tol = 1e-8 + lhs.abs_error_estimate + scale * rhs.abs_error_estimate
        margins.append((tol - diff, t))
    return _margins_report("dcpex-shift-relation", margins, degenerate, tol=0.0)
