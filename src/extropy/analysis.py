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

from .distributions import Distribution, Mixture, Uniform, _rates
from .errors import UnboundedSupport
from .measures import (
    _batch_arrays,
    _sweep_arrays,
    cpen,
    cpex,
    cpex_max,
    crex,
    crex_min,
    dcpex,
    dcrex,
    evaluate,
)
from .orderstats import MAX_N, kth_order
from .quadrature import integrate

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
    with np.errstate(over="ignore"):  # an end past the float range is inf, and raises below
        lo, hi = d.quantile(np.array([lo_q, hi_q]))
    if not math.isfinite(hi):
        raise OverflowError(f"{d!r}.quantile({hi_q}) is past the float range")
    return list(np.linspace(lo, hi, points))


def _margins_report(
    check_id: str,
    margins: np.ndarray,
    points: Sequence,
    degenerate: int = 0,
    tol: Optional[float] = None,
) -> CheckReport:
    """The report of a check whose margins were taken at ``points``: the first smallest is the worst."""
    if not margins.size:
        return _report(check_id, math.nan, None, 0, degenerate, tol)
    w = _first_min(margins)
    return _report(check_id, float(margins[w]), points[w], margins.size, degenerate, tol)


def _report(
    check_id: str,
    worst_margin: float,
    worst_point: Optional[object],
    points: int,
    degenerate: int = 0,
    tol: Optional[float] = None,
) -> CheckReport:
    """The report of a check whose first smallest margin of ``points`` is ``worst_margin``."""
    if tol is None:  # read at call time, so a CLI --tol override reaches every check
        tol = BASE_TOL
    total = points + degenerate
    if (total > 0 and degenerate > _INCONCLUSIVE_FRACTION * total) or not points:
        return CheckReport(check_id, "Inconclusive", worst_margin, worst_point, points)
    verdict = "Holds" if worst_margin >= -tol else "Fails"
    return CheckReport(check_id, verdict, worst_margin, worst_point, points)


def _first_min(values: np.ndarray) -> int:
    """The index ``min`` picks from a nonempty float sequence: the first smallest value.

    ``min`` keeps a nan that comes first (nothing compares smaller) and
    passes over any later one.
    """
    if math.isnan(values[0]):
        return 0
    return int(np.argmin(np.where(np.isnan(values), math.inf, values)))


def _tolerance(pt_tol: np.ndarray) -> float:
    """BASE_TOL or the largest point tolerance, as the builtin ``max`` takes them: a nan is passed over."""
    return max(BASE_TOL, float(np.fmax.reduce(pt_tol, initial=-math.inf)))


def _kept(points: Sequence, keep: np.ndarray) -> list:
    """The points, the caller's own elements, where keep is true."""
    return [p for p, k in zip(points, keep.tolist()) if k]


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
    a, b = (_sweep_arrays([(d, name, 1)], t_grid)[0] for d in (d1, d2))
    fails = ~(a.degenerate | b.degenerate) & (a.value - b.value < -(BASE_TOL + a.error + b.error))
    if fails.any():
        return OrderVerdict(relation, False, counterexample_t=t_grid[int(np.argmax(fails))])
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

    The premise is checked first, on the rates of both at every age: the
    first age, in grid order, where it fails makes the report Inconclusive
    with 0 points.  An age where a rate or a measure is degenerate is
    counted as degenerate.
    """
    residual = side == "residual"
    check_id = f"{'hr-implies-dcrex' if residual else 'rh-implies-dcpex'}(n={n})"
    (r1, dg1), (r2, dg2) = (_rates(d, residual, t_grid) for d in (d1, d2))
    rated = ~(dg1 | dg2)
    premise_fails = rated & (r1 < r2 - BASE_TOL)
    if premise_fails.any():
        return _report(check_id, math.nan, t_grid[int(np.argmax(premise_fails))], 0)
    name = "dcrex-min" if residual else "dcpex-max"
    # one sweep per distribution: their breakpoints may differ
    a, b = (_sweep_arrays([(d, name, n)], t_grid)[0] for d in (d1, d2))
    ok = rated & ~(a.degenerate | b.degenerate)
    margins = a.value[ok] - b.value[ok]
    tol = _tolerance(BASE_TOL + a.error[ok] + b.error[ok])
    return _margins_report(check_id, margins, _kept(t_grid, ok), len(t_grid) - margins.size, tol)


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
    curves = _sweep_arrays([(kth_order(d, *order), name, 1) for order in orders], t_grid)
    # one row per order, one column per age
    values, errors, gone = (
        np.array([getattr(curve, field) for curve in curves], dtype=dtype).reshape(len(orders), len(t_grid))
        for field, dtype in (("value", float), ("error", float), ("degenerate", bool))
    )
    first, second = ([orders.index(pair[i]) for pair in pairs] for i in (0, 1))

    # every pair's margins and tolerances, in the order of the pairs and then of the ages
    ok = ~(gone[first] | gone[second])
    margins = values[first][ok] - values[second][ok]
    tol = _tolerance(BASE_TOL + errors[first][ok] + errors[second][ok])
    points = _kept([(t, *pair) for pair in pairs for t in t_grid], ok.ravel())
    degenerate = len(pairs) * len(t_grid) - margins.size
    return _margins_report(f"korder-chain({side},k={k},n={n})", margins, points, degenerate, tol)


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
    return _report("convolution-cpex", lhs - rhs, None, CONV_CELLS, 0, CONV_TOL)


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
    tol = BASE_TOL + lhs.abs_error_estimate + rhs_err
    return _report("conditioning-cpex", lhs.value - rhs, None, len(mix.components), 0, tol)


def check_mean_abs_diff(d: Distribution) -> CheckReport:
    """Two iid-pair inequalities on a bounded support [0, b].

    E|X - Y| = 2 * int F(1-F) >= 4 * cpex(X), and cpex(X) >= (E(X) - b) / 2.
    """
    if not d.support.bounded:
        raise UnboundedSupport("mean-absolute-difference inequality requires bounded support")
    b = d.support.upper
    mad2, mad_err = integrate(lambda x: d.cdf(x) * d.sf(x), d.support.lower, b, d.breakpoints)
    mad = 2.0 * mad2
    cp = evaluate(d, cpex())
    mu = d.mean()
    margins = np.array([mad - 4.0 * cp.value, cp.value - 0.5 * (mu - b)])
    tol = BASE_TOL + 2.0 * mad_err + 4.0 * cp.abs_error_estimate
    return _margins_report("mean-abs-diff", margins, ("mad>=4cpex", "cpex>=(mu-b)/2"), tol=tol)


def check_shift_independence(d: Distribution, scale: float, shift: float) -> CheckReport:
    """cpex(scale * X + shift) equals scale * cpex(X)."""
    if not d.support.bounded:
        raise UnboundedSupport("past extropy requires bounded support")
    lhs = evaluate(d.affine(scale, shift), cpex())
    rhs = evaluate(d, cpex())
    diff = abs(lhs.value - scale * rhs.value)
    tol = 1e-8 + lhs.abs_error_estimate + scale * rhs.abs_error_estimate
    return _report(f"shift-independence(scale={scale},shift={shift})", tol - diff, None, 1, 0, 0.0)


def check_cpex_cpen_inequality(d: Distribution) -> CheckReport:
    """cpex(X) <= (cpen(X) - (b - E(X))) / 2 on a bounded support."""
    if not d.support.bounded:
        raise UnboundedSupport("requires bounded support")
    b = d.support.upper
    lhs = evaluate(d, cpex())
    en = evaluate(d, cpen())
    rhs_value = 0.5 * (en.value - (b - d.mean()))
    tol = BASE_TOL + lhs.abs_error_estimate + 0.5 * en.abs_error_estimate
    return _report("cpex-cpen", rhs_value - lhs.value, None, 1, 0, tol)


# ---------------------------------------------------------------------------
# Bound suites
# ---------------------------------------------------------------------------


def check_crexmin_monotone_n(d: Distribution, ns: Sequence[int] = tuple(range(1, 11))) -> CheckReport:
    """Residual extropy of minima is nondecreasing in the sample size."""
    value, error, *_ = _batch_arrays(d, [crex_min(n) for n in ns])
    margins = value[1:] - value[:-1]
    tol = _tolerance(BASE_TOL + error[1:] + error[:-1])
    return _margins_report("crexmin-monotone-n", margins, ns[1:], tol=tol)


def check_crexmin_mean_bound(d: Distribution, ns: Sequence[int] = tuple(range(1, 11))) -> CheckReport:
    """crex_min(n) >= -mean/2 (finite mean required)."""
    mu = d.mean()
    value, error, *_ = _batch_arrays(d, [crex_min(n) for n in ns])
    return _margins_report("crexmin-mean-bound", value + 0.5 * mu, ns, tol=_tolerance(BASE_TOL + error))


def check_crexmin_vs_crex(d: Distribution, ns: Sequence[int] = tuple(range(1, 11))) -> CheckReport:
    """crex_min(n) >= crex for every n >= 1."""
    value, error, *_ = _batch_arrays(d, [crex()] + [crex_min(n) for n in ns])
    margins = value[1:] - value[0]
    tol = _tolerance(BASE_TOL + error[1:] + error[0])
    return _margins_report("crexmin-vs-crex", margins, ns, tol=tol)


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

    The margins form an (age x bound) table, read age by age: mrl (or eit),
    vs-parent, monotone-n.  An age where the extreme order at n or the plain
    measure is degenerate has no margin; one where only the extreme order at
    n + 1 is has no monotone-n margin.  Both count as degenerate.
    """
    residual = side == "residual"
    plain, extreme = ("dcrex", "dcrex-min") if residual else ("dcpex", "dcpex-max")
    v, base, nxt = _sweep_arrays([(d, extreme, n), (d, plain, 1), (d, extreme, n + 1)], t_grid)
    ok = ~(v.degenerate | base.degenerate)
    with_mean = not residual or d.has_finite_mean
    mean, mean_err = np.zeros(len(t_grid)), np.zeros(len(t_grid))
    if with_mean:
        mean[ok], mean_err[ok] = d.conditional_means(_kept(t_grid, ok), side)
    margins = np.stack([v.value + 0.5 * mean, v.value - base.value, nxt.value - v.value], axis=1)
    pt_tol = np.stack(
        [BASE_TOL + v.error + 0.5 * mean_err, BASE_TOL + v.error + base.error, BASE_TOL + nxt.error + v.error], axis=1
    )
    keep = np.stack([ok & with_mean, ok, ok & ~nxt.degenerate], axis=1)
    bounds = ("mrl" if residual else "eit", "vs-parent", "monotone-n")
    points = _kept([(bound, t) for t in t_grid for bound in bounds], keep.ravel())
    degenerate = np.count_nonzero(~ok | nxt.degenerate)
    check_id = f"{'dcrex' if residual else 'dcpex'}-bounds(n={n})"
    return _margins_report(check_id, margins[keep], points, degenerate, _tolerance(pt_tol[keep]))


def check_dcpexmax_monotone_t(d: Distribution, n: int, t_grid: Sequence[float]) -> CheckReport:
    """Past extropy of maxima nonincreasing in the age t.

    Only claimed for monotone families; kinked cdfs are genuine
    counterexamples and must not be fed here.  Each age is compared with the
    last nondegenerate age before it.
    """
    (curve,) = _sweep_arrays([(d, "dcpex-max", n)], t_grid)
    live = ~curve.degenerate
    value, error = curve.value[live], curve.error[live]
    ages = _kept(t_grid, live)
    tol = _tolerance(BASE_TOL + error[:-1] + error[1:])
    check_id = f"dcpexmax-monotone-t(n={n})"
    return _margins_report(check_id, value[:-1] - value[1:], list(zip(ages, ages[1:])), len(t_grid) - len(ages), tol)


def check_cpexmax_bounds(d: Distribution, ns: Sequence[int] = tuple(range(1, 11))) -> CheckReport:
    """cpex_max(n) >= -(b - mean)/2, nondecreasing in n, >= cpex.

    The margins form an (n x bound) table, read n by n: b-mu, vs-parent,
    monotone-n (none at the first n).
    """
    if not d.support.bounded:
        raise UnboundedSupport("requires bounded support")
    b = d.support.upper
    mu = d.mean()
    value, error, *_ = _batch_arrays(d, [cpex()] + [cpex_max(n) for n in ns])
    base, base_err, value, error = value[0], error[0], value[1:], error[1:]
    prev = np.concatenate((value[:1], value[:-1]))  # the first n has no previous one: a placeholder
    margins = np.stack([value + 0.5 * (b - mu), value - base, value - prev], axis=1)
    keep = np.ones(margins.shape, dtype=bool)
    keep[:1, 2] = False
    tol = _tolerance(np.concatenate((BASE_TOL + error + base_err, BASE_TOL + error[1:] + error[:-1])))
    points = _kept([(bound, n) for n in ns for bound in ("b-mu", "vs-parent", "monotone-n")], keep.ravel())
    return _margins_report("cpexmax-bounds", margins[keep], points, tol=tol)


def check_equilibrium_identity(d: Distribution) -> CheckReport:
    """Extropy of the equilibrium distribution equals crex(X) / mean^2."""
    mu = d.mean()
    value, err = integrate(lambda x: (d.sf(x) / mu) ** 2, d.support.lower, d.support.upper, d.breakpoints)
    lhs = -0.5 * value
    rhs = evaluate(d, crex())
    diff = abs(lhs - rhs.value / mu**2)
    tol = 1e-8 + 0.5 * err + rhs.abs_error_estimate / mu**2
    return _report("equilibrium-identity", tol - diff, None, 1, 0, 0.0)


def check_symmetry_duality(d: Uniform, t_grid: Sequence[float]) -> CheckReport:
    """For X symmetric about b/2: dcpex(t) = dcrex(b - t)."""
    b = d.support.upper
    lo = d.support.lower
    ts = list(t_grid)
    m = len(ts)
    value, error, _, gone = _batch_arrays(d, [dcpex(t) for t in ts] + [dcrex(lo + b - t) for t in ts])
    ok = ~(gone[:m] | gone[m:])
    past, resid, past_err, resid_err = value[:m][ok], value[m:][ok], error[:m][ok], error[m:][ok]
    margins = (1e-8 + past_err + resid_err) - abs(past - resid)
    return _margins_report("symmetry-duality", margins, _kept(ts, ok), m - margins.size, tol=0.0)


def check_dcpex_shift_relation(
    d: Distribution, scale: float, shift: float, t_grid: Sequence[float]
) -> CheckReport:
    """dcpex of scale*X+shift at t equals scale * dcpex of X at (t-shift)/scale."""
    y = d.affine(scale, shift)
    lhs = _batch_arrays(y, [dcpex(scale * t + shift) for t in t_grid])
    rhs = _batch_arrays(d, [dcpex(t) for t in t_grid])
    ok = ~(lhs.degenerate | rhs.degenerate)
    diff = abs(lhs.value[ok] - scale * rhs.value[ok])
    margins = (1e-8 + lhs.error[ok] + scale * rhs.error[ok]) - diff
    return _margins_report("dcpex-shift-relation", margins, _kept(t_grid, ok), len(t_grid) - margins.size, tol=0.0)
