"""Property-check harness: orderings, inequalities, bound suites on instances."""

import math

import numpy as np
import pytest

from extropy.analysis import (
    check_conditioning,
    check_convolution_inequality,
    check_cpex_cpen_inequality,
    check_cpexmax_bounds,
    check_crexmin_mean_bound,
    check_crexmin_monotone_n,
    check_crexmin_vs_crex,
    check_dcpex_bounds,
    check_dcpex_order,
    check_dcpex_shift_relation,
    check_dcpexmax_monotone_t,
    check_dcrex_bounds,
    check_dcrex_order,
    check_equilibrium_identity,
    check_hr_implies_dcrex,
    check_korder_chains,
    check_mean_abs_diff,
    check_rh_implies_dcpex,
    check_shift_independence,
    check_symmetry_duality,
    default_grid,
)
from extropy.distributions import (
    Exponential,
    FiniteRange,
    PiecewiseBounded,
    Power,
    Pareto,
    Uniform,
    Weibull,
)
from extropy import analysis
from extropy.errors import BadWeights, DegenerateHead, DegenerateTail, UnboundedSupport
from extropy.measures import MeasureKind, MeasureValue, _Arrays, dcpex, dcpex_max, dcrex, dcrex_min, evaluate
from extropy.orderstats import max_order

from conftest import BOUNDED, FINITE_MEAN, ALL_FAMILIES, MONOTONE_BOUNDED, ids


def grid_for(d, points=12):
    return default_grid(d, points=points, lo_q=0.05, hi_q=0.95)


# ---------------------------------------------------------------------------
# Dynamic orderings
# ---------------------------------------------------------------------------


def test_pareto_dcrex_order_holds():
    g = list(np.linspace(0.1, 5.0, 15))
    v = check_dcrex_order(Pareto(1, 3), Pareto(1, 2), g)
    assert v.holds_on_grid and v.counterexample_t is None


def test_dcrex_order_reflexive():
    d = Pareto(1, 2)
    assert check_dcrex_order(d, d, grid_for(d)).holds_on_grid


def test_dcrex_order_transitive_on_pareto_triple():
    g = list(np.linspace(0.1, 5.0, 15))
    a, b, c = Pareto(1, 4), Pareto(1, 3), Pareto(1, 2)
    assert check_dcrex_order(a, b, g).holds_on_grid
    assert check_dcrex_order(b, c, g).holds_on_grid
    assert check_dcrex_order(a, c, g).holds_on_grid


def test_dcrex_order_reversal_fails_with_counterexample():
    g = list(np.linspace(0.1, 5.0, 15))
    v = check_dcrex_order(Pareto(1, 2), Pareto(1, 3), g)
    assert not v.holds_on_grid
    assert v.counterexample_t is not None


def test_dcrex_order_closed_under_affine():
    g = list(np.linspace(2.2, 11.0, 15))
    v = check_dcrex_order(Pareto(1, 3).affine(2, 1), Pareto(1, 2).affine(2, 1), g)
    assert v.holds_on_grid


def test_power_dcpex_order_holds():
    g = list(np.linspace(0.1, 0.95, 15))
    assert check_dcpex_order(Power(1, 3), Power(1, 2), g).holds_on_grid


# ---------------------------------------------------------------------------
# Premise-gated transfer theorems
# ---------------------------------------------------------------------------


def test_hr_transfer_weibull_pair_on_valid_range():
    g = list(np.linspace(1.0, 3.0, 15))
    r = check_hr_implies_dcrex(Weibull(1, 3), Weibull(1, 2), 2, g)
    assert r.verdict == "Holds"


def test_hr_transfer_inconclusive_when_premise_fails():
    # below x = 2/3 the shape-3 hazard dips under the shape-2 hazard
    g = list(np.linspace(0.1, 0.6, 10))
    r = check_hr_implies_dcrex(Weibull(1, 3), Weibull(1, 2), 2, g)
    assert r.verdict == "Inconclusive"


def test_hr_transfer_exponential_margin():
    g = [0.5, 1.0, 2.0]
    r = check_hr_implies_dcrex(Exponential(2), Exponential(1), 1, g)
    assert r.verdict == "Holds"
    assert r.worst_margin == pytest.approx(1 / 8, abs=1e-9)


def test_hr_transfer_self_is_tight():
    d = Exponential(1)
    r = check_hr_implies_dcrex(d, d, 2, [0.5, 1.0])
    assert r.verdict == "Holds"
    assert r.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_rh_transfer_power_pair():
    g = list(np.linspace(0.1, 0.95, 12))
    r = check_rh_implies_dcpex(Power(1, 3), Power(1, 2), 2, g)
    assert r.verdict == "Holds"


def test_rh_transfer_parallel_system_dominates_parent():
    d = Power(1, 2)
    g = list(np.linspace(0.1, 0.95, 12))
    r = check_rh_implies_dcpex(max_order(d, 3), d, 1, g)
    assert r.verdict == "Holds"


# ---------------------------------------------------------------------------
# The folded order and transfer checks against pointwise evaluate
# ---------------------------------------------------------------------------

TWIN_PAIRS = [
    (Weibull(1, 3), Weibull(1, 2)),
    (Exponential(2), Exponential(1)),
    (Pareto(1, 3), Pareto(1, 2)),
    (Pareto(1, 2), Pareto(1, 3)),
    (Power(1, 3), Power(1, 2)),
    (Power(1, 2), Power(1, 3)),
    (max_order(Power(1, 2), 3), Power(1, 2)),
    (PiecewiseBounded(), Uniform(0, 2)),  # different breakpoints
    (Uniform(0, 2), PiecewiseBounded()),
]


def _twin_grids(d1, d2):
    up = default_grid(d1, points=10)
    grids = [up, up[::-1] + [up[3]]]  # increasing; decreasing, then a repeated age
    if d1.support.bounded and d2.support.bounded:
        # ages degenerate on the past side (below) and on the residual side (above): one
        # each, then two each, which is more than the 10% that makes a report Inconclusive
        lo, hi = d1.support.lower, max(d1.support.upper, d2.support.upper)
        grids = [[lo] + grid + [hi + 0.5] for grid in grids] + [[lo - 0.5, lo] + up + [hi + 0.5, hi + 1.0]]
    return grids


def _pointwise_order(d1, d2, kind, grid):
    """The first age, in grid order, where kind(d1) >= kind(d2) fails beyond the error bars."""
    for t in grid:
        try:
            a, b = evaluate(d1, kind(t)), evaluate(d2, kind(t))
        except (DegenerateTail, DegenerateHead):
            continue
        if a.value - b.value < -(analysis.BASE_TOL + a.abs_error_estimate + b.abs_error_estimate):
            return t
    return None


def _pointwise_transfer(d1, d2, n, grid, side):
    """The hazard (or reversed-hazard) transfer check, one evaluate per distribution and age."""
    rate, kind = ("hazard_rate", dcrex_min) if side == "residual" else ("reversed_hazard", dcpex_max)
    margins, degenerate, tol = [], 0, analysis.BASE_TOL
    for t in grid:
        try:
            if getattr(d1, rate)(t) < getattr(d2, rate)(t) - analysis.BASE_TOL:
                return "Inconclusive", t, 0
            a, b = evaluate(d1, kind(n, t)), evaluate(d2, kind(n, t))
        except (DegenerateTail, DegenerateHead):
            degenerate += 1
            continue
        tol = max(tol, analysis.BASE_TOL + a.abs_error_estimate + b.abs_error_estimate)
        margins.append((a.value - b.value, t))
    values = np.array([margin for margin, _ in margins])
    report = analysis._margins_report("reference", values, [t for _, t in margins], degenerate, tol)
    return report.verdict, report.worst_point, report.points_tested


@pytest.mark.parametrize("d1,d2", TWIN_PAIRS, ids=[f"{a!r}-{b!r}" for a, b in TWIN_PAIRS])
def test_folded_twin_checks_match_pointwise_evaluate(d1, d2):
    sides = [("residual", dcrex, check_dcrex_order, check_hr_implies_dcrex)]
    if d1.support.bounded and d2.support.bounded:
        sides.append(("past", dcpex, check_dcpex_order, check_rh_implies_dcpex))
    for grid in _twin_grids(d1, d2):
        for side, kind, order, transfer in sides:
            verdict = order(d1, d2, grid)
            assert verdict.counterexample_t == _pointwise_order(d1, d2, kind, grid), (side, grid)
            for n in (1, 2):
                r = transfer(d1, d2, n, grid)
                assert (r.verdict, r.worst_point, r.points_tested) == _pointwise_transfer(d1, d2, n, grid, side)


# ---------------------------------------------------------------------------
# k-of-n chain inequalities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [Exponential(1), Uniform(0, 1)], ids=["Exponential(1)", "Uniform(0,1)"])
def test_korder_chains_hold(d):
    g = grid_for(d, points=8)
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert check_korder_chains(d, k, n, g, "residual").verdict == "Holds"
            assert check_korder_chains(d, k, n, g, "past").verdict == "Holds"


def test_korder_chains_skip_orders_above_the_cap():
    # at n = 60 the (k+1, n+1) and (k, n+1) neighbours pass the cap; those
    # pairs are skipped like those with k > n, and the other two are checked
    d = Uniform(0, 1)
    g = list(np.linspace(0.5, 0.99, 5))
    resid = check_korder_chains(d, 59, 60, g, "residual")
    assert (resid.verdict, resid.points_tested) == ("Holds", 2 * len(g))
    past = check_korder_chains(d, 2, 60, g, "past")
    assert (past.verdict, past.points_tested) == ("Holds", 2 * len(g))


def test_korder_chain_side_validation():
    with pytest.raises(ValueError):
        check_korder_chains(Exponential(1), 1, 2, [0.5], "sideways")


# ---------------------------------------------------------------------------
# Past-extropy inequalities (common-window convention)
# ---------------------------------------------------------------------------


def test_convolution_inequality_three_pairs():
    pairs = [
        (Uniform(0, 1), Uniform(0, 1)),
        (Uniform(0, 1), Uniform(0, 1e-6)),
        (Uniform(0, 1), Power(1, 2)),
    ]
    for d1, d2 in pairs:
        assert check_convolution_inequality(d1, d2).verdict == "Holds"


def test_convolution_requires_bounded_support():
    with pytest.raises(UnboundedSupport):
        check_convolution_inequality(Uniform(0, 1), Exponential(1))


def test_conditioning_three_mixtures():
    mixtures = [
        [(0.5, Uniform(0, 1)), (0.5, Uniform(0, 1))],
        [(0.5, Uniform(0, 1)), (0.5, Power(1, 2))],
        [(0.3, Uniform(0, 1)), (0.7, Uniform(0, 2))],
    ]
    for mix in mixtures:
        assert check_conditioning(mix).verdict == "Holds"


def test_conditioning_identical_components_is_equality():
    r = check_conditioning([(0.5, Uniform(0, 1)), (0.5, Uniform(0, 1))])
    assert r.worst_margin == pytest.approx(0.0, abs=1e-9)


def test_conditioning_rejects_bad_weights():
    with pytest.raises(BadWeights):
        check_conditioning([(0.7, Uniform(0, 1)), (0.7, Uniform(0, 1))])


def test_mean_abs_diff_uniform_numbers():
    r = check_mean_abs_diff(Uniform(0, 1))
    assert r.verdict == "Holds"
    # E|X-Y| - 4*cpex = 1/3 + 2/3 = 1
    assert r.worst_margin == pytest.approx(1 / 12, abs=1e-8) or r.worst_margin > 0


def test_mean_abs_diff_narrow_support_scales_to_zero():
    r = check_mean_abs_diff(Uniform(0, 1e-6))
    assert r.verdict == "Holds"


def test_shift_independence_examples():
    assert check_shift_independence(Uniform(0, 1), 2.0, 3.0).verdict == "Holds"
    assert check_shift_independence(Power(1, 2), 3.0, 1.0).verdict == "Holds"
    assert check_shift_independence(Power(1, 2), 1.0, 0.0).verdict == "Holds"


# ---------------------------------------------------------------------------
# Bound suites across the bundled families
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_crexmin_monotone_and_dominates_parent(d):
    assert check_crexmin_monotone_n(d).verdict == "Holds"
    assert check_crexmin_vs_crex(d).verdict == "Holds"


@pytest.mark.parametrize("d", FINITE_MEAN, ids=ids(FINITE_MEAN))
def test_crexmin_mean_bound(d):
    assert check_crexmin_mean_bound(d).verdict == "Holds"


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_dcrex_bounds(d):
    assert check_dcrex_bounds(d, 2, grid_for(d)).verdict == "Holds"


@pytest.mark.parametrize("d", BOUNDED, ids=ids(BOUNDED))
def test_past_bound_suites(d):
    assert check_cpexmax_bounds(d).verdict == "Holds"
    assert check_dcpex_bounds(d, 2, grid_for(d)).verdict == "Holds"
    assert check_cpex_cpen_inequality(d).verdict == "Holds"
    assert check_mean_abs_diff(d).verdict == "Holds"


@pytest.mark.parametrize("d", MONOTONE_BOUNDED, ids=ids(MONOTONE_BOUNDED))
def test_dcpexmax_monotone_t_on_monotone_families(d):
    assert check_dcpexmax_monotone_t(d, 2, grid_for(d)).verdict == "Holds"


def test_dcpexmax_t_monotonicity_fails_on_kinked_cdf():
    # genuine counterexample: the kinked bounded cdf on (1, 2)
    d = PiecewiseBounded()
    g = list(np.linspace(1.05, 1.95, 30))
    assert check_dcpexmax_monotone_t(d, 1, g).verdict == "Fails"


@pytest.mark.parametrize(
    "d", [Exponential(1), Uniform(0, 1), FiniteRange(1, 2)], ids=["Exponential(1)", "Uniform(0,1)", "FiniteRange(1,2)"]
)
def test_equilibrium_identity(d):
    assert check_equilibrium_identity(d).verdict == "Holds"


def test_symmetry_duality_uniform():
    for d in (Uniform(0, 1), Uniform(2, 5)):
        assert check_symmetry_duality(d, grid_for(d)).verdict == "Holds"


def test_dcpex_shift_relation():
    for d in (Uniform(0, 1), Power(1, 2)):
        g = default_grid(d, points=10, lo_q=0.1, hi_q=0.9)
        assert check_dcpex_shift_relation(d, 2.0, 3.0, g).verdict == "Holds"


def _fake_value(d, kind):
    """Ties that read 5e-7 below each other, inside error bars of 1e-6 each.

    The value falls by 5e-7 per unit of the order n and rises by 5e-7 per
    unit of the age t, so every comparison in n or in t is a tie missed by
    5e-7, more than BASE_TOL but less than the two error estimates.
    """
    return MeasureValue(-1.0 - 5e-7 * kind.n + 5e-7 * (kind.t or 0.0), "quadrature", 1e-6)


def _fake_arrays(d, kinds):
    """The arrays of ``_fake_value`` at every kind."""
    values = [_fake_value(d, kind) for kind in kinds]
    value, error = (np.array([getattr(v, field) for v in values], dtype=float) for field in ("value", "abs_error_estimate"))
    return _Arrays(value, error, np.zeros(len(kinds), dtype=bool), np.zeros(len(kinds), dtype=bool))


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_crexmin_monotone_n(Uniform(0, 10), ns=(1, 2)),
        lambda: check_crexmin_vs_crex(Uniform(0, 10), ns=(2,)),
        lambda: check_dcrex_bounds(Uniform(0, 10), 1, [1.0]),
        lambda: check_dcpex_bounds(Uniform(0, 10), 1, [9.0]),
        lambda: check_dcpexmax_monotone_t(Uniform(0, 10), 1, [8.0, 9.0]),
        lambda: check_cpexmax_bounds(Uniform(0, 10), ns=(1, 2)),
        lambda: check_crexmin_mean_bound(Uniform(0, 4), ns=(1,)),
    ],
    ids=[
        "crexmin-monotone-n",
        "crexmin-vs-crex",
        "dcrex-bounds",
        "dcpex-bounds",
        "dcpexmax-monotone-t",
        "cpexmax-bounds",
        "crexmin-mean-bound",
    ],
)
def test_margin_inside_error_bars_holds(check, monkeypatch):
    monkeypatch.setattr(analysis, "evaluate", _fake_value)
    monkeypatch.setattr(analysis, "_batch_arrays", _fake_arrays)
    monkeypatch.setattr(
        analysis,
        "_sweep_arrays",
        lambda curves, ages: [_fake_arrays(d, [MeasureKind(name, n, t) for t in ages]) for d, name, n in curves],
    )
    report = check()
    assert -1e-6 < report.worst_margin < -analysis.BASE_TOL
    assert report.verdict == "Holds"


_IDENTITY_CHECKS = {
    "shift-independence": lambda: check_shift_independence(Uniform(0, 1), 2.0, 3.0),
    "equilibrium-identity": lambda: check_equilibrium_identity(Uniform(0, 1)),
}


@pytest.mark.parametrize("check", list(_IDENTITY_CHECKS.values()), ids=list(_IDENTITY_CHECKS))
def test_identity_checks_judge_their_own_margin(check, monkeypatch):
    # their tolerance is their own 1e-8 plus error bars: BASE_TOL does not move the verdict
    monkeypatch.setattr(analysis, "BASE_TOL", -1.0)
    report = check()
    assert report.verdict == "Holds" and report.worst_margin > 0 and report.points_tested == 1
    # a nan value gives a nan margin, which fails
    monkeypatch.setattr(analysis, "BASE_TOL", 1.0)
    monkeypatch.setattr(analysis, "evaluate", lambda d, kind: MeasureValue(math.nan, "quadrature", 0.0))
    report = check()
    assert report.verdict == "Fails" and math.isnan(report.worst_margin) and report.points_tested == 1


def test_default_grid_spans_interior_quantiles():
    d = Exponential(1)
    g = default_grid(d)
    assert len(g) == 40
    assert g[0] == pytest.approx(d.quantile(0.01))
    assert g[-1] == pytest.approx(d.quantile(0.99))
    assert all(b > a for a, b in zip(g, g[1:]))


def test_checks_are_deterministic():
    d = Weibull(1, 2)
    g = grid_for(d)
    r1 = check_dcrex_bounds(d, 2, g)
    r2 = check_dcrex_bounds(d, 2, g)
    assert r1 == r2
