"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Each test prints a single PASS line on success; pytest -v adds the per-test
verdict line either way.
"""

import math
import time

import mpmath as mp
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
    check_dcpex_shift_relation,
    check_dcpexmax_monotone_t,
    check_dcrex_bounds,
    check_dcrex_order,
    check_dcpex_order,
    check_hr_implies_dcrex,
    check_korder_chains,
    check_mean_abs_diff,
    check_shift_independence,
    check_symmetry_duality,
    default_grid,
)
from extropy.characterize import gpd_ratio_test, gpd_slope_test, power_ratio_test
from extropy.cli import reproduce_figure
from extropy.distributions import (
    Exponential,
    FiniteRange,
    FoldedCramer,
    GPD,
    Pareto,
    Power,
    Uniform,
    Weibull,
)
from extropy.estimators import draw_samples, empirical_cpex, empirical_crex
from extropy.measures import (
    Curve,
    cpex,
    cpex_max,
    crex_min,
    dcrex_min,
    dcrex_min_derivative,
    evaluate,
)
from extropy.orderstats import min_order

from conftest import ALL_FAMILIES, BOUNDED, FINITE_MEAN, MONOTONE_BOUNDED


def _passed(num, message):
    print(f"CRITERION {num}: PASS — {message}")


def _sign_pattern(values):
    signs = []
    for a, b in zip(values, values[1:]):
        s = 1 if b > a else (-1 if b < a else 0)
        if s != 0 and (not signs or signs[-1] != s):
            signs.append(s)
    return tuple(signs)


def test_c01_closed_form_agreement_across_families():
    families = {
        "uniform": [Uniform(0, 1), Uniform(0, 2), Uniform(1, 3), Uniform(2, 5)],
        "finite-range": [FiniteRange(1, 1), FiniteRange(1, 2), FiniteRange(0.5, 3), FiniteRange(2, 0.5)],
        "weibull": [Weibull(1, 1), Weibull(1, 2), Weibull(2, 1), Weibull(0.5, 3)],
        "folded-cramer": [FoldedCramer(0.5), FoldedCramer(1), FoldedCramer(2), FoldedCramer(3)],
        "pareto": [Pareto(1, 2), Pareto(1, 3), Pareto(2, 1.5), Pareto(3, 2)],
    }
    start = time.monotonic()
    for members in families.values():
        for d in members:
            for n in (1, 2, 3, 5, 10):
                cf = evaluate(d, crex_min(n))
                q = evaluate(d, crex_min(n), force_quadrature=True)
                assert cf.method == "closed-form"
                assert q.value == pytest.approx(cf.value, rel=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passed(1, f"quadrature matches closed forms within 1e-6 rel ({elapsed:.2f}s)")


def test_c02_exponential_scale_ratio():
    for lam in (0.5, 1.0, 3.0):
        d = Exponential(lam)
        for n in range(1, 11):
            num = evaluate(d, crex_min(n), force_quadrature=True).value
            den = min_order(d, n).mean()
            assert num / den == pytest.approx(-0.25, abs=1e-8)
    _passed(2, "minima extropy over minima mean is -1/4 within 1e-8")


def test_c03_uniform_location_scale_ratio():
    for d in (Uniform(0, 1), Uniform(2, 5)):
        base = evaluate(d, cpex(), force_quadrature=True).value
        for n in range(1, 11):
            ratio = evaluate(d, cpex_max(n), force_quadrature=True).value / base
            assert ratio == pytest.approx(3.0 / (2 * n + 1), abs=1e-8)
    _passed(3, "maxima-to-parent past-extropy ratio is 3/(2n+1) within 1e-8")


def test_c04_derivative_identity_on_grids():
    for d in (Uniform(0, 1), Weibull(1, 2), GPD(1, 1)):
        grid = default_grid(d, points=20, lo_q=0.05, hi_q=0.9)
        for n in (1, 3):
            for t in grid:
                lhs, rhs = dcrex_min_derivative(d, n, t)
                assert abs(lhs - rhs) <= 1e-4
    _passed(4, "finite-difference derivative matches 2n*hazard*value + 1/2 within 1e-4")


def test_c05_bound_suites_hold_everywhere():
    reports = []
    for d in ALL_FAMILIES:
        grid = default_grid(d, points=20, lo_q=0.02, hi_q=0.95)
        reports.append(check_crexmin_monotone_n(d))
        reports.append(check_crexmin_vs_crex(d))
        reports.append(check_dcrex_bounds(d, 2, grid))
        if d.has_finite_mean:
            reports.append(check_crexmin_mean_bound(d))
        if d.support.bounded:
            reports.append(check_cpexmax_bounds(d))
            reports.append(check_dcpex_bounds(d, 2, grid))
            reports.append(check_cpex_cpen_inequality(d))
            reports.append(check_mean_abs_diff(d))
            reports.append(check_shift_independence(d, 2.0, 3.0))
            reports.append(check_dcpex_shift_relation(d, 2.0, 3.0, grid))
    for d in MONOTONE_BOUNDED:
        grid = default_grid(d, points=20, lo_q=0.02, hi_q=0.95)
        reports.append(check_dcpexmax_monotone_t(d, 2, grid))
    for d in (Uniform(0, 1), Uniform(2, 5)):
        reports.append(check_symmetry_duality(d, default_grid(d, points=20)))
    failures = [r for r in reports if r.verdict != "Holds"]
    assert not failures, [f"{r.check_id}: {r.verdict}" for r in failures]
    _passed(5, f"{len(reports)} bound/inequality reports, zero failures")


def test_c06_first_bundled_curve_non_monotone():
    _, values = reproduce_figure("2.1")
    assert len(values) == 200
    pattern = _sign_pattern(values)
    assert len(pattern) >= 2  # at least one interior direction change
    _, oracle = reproduce_figure("2.1", points=2000)
    assert _sign_pattern(oracle) == pattern
    _passed(6, f"200-point curve direction pattern {pattern} confirmed at 2000 points")


def test_c07_second_bundled_curve_non_monotone():
    ts, values = reproduce_figure("3.1")
    assert len(values) == 200
    assert 1.0 < ts[0] and ts[-1] < 2.0
    pattern = _sign_pattern(values)
    assert len(pattern) >= 2
    _, oracle = reproduce_figure("3.1", points=2000)
    assert _sign_pattern(oracle) == pattern
    _passed(7, f"200-point curve direction pattern {pattern} confirmed at 2000 points")


def test_c08_gpd_round_trip_and_threshold_oracle():
    n = 2
    for theta in (0.5, 1.0, 2.0):
        for lam in (-0.5, 0.0, 1.0):
            d = GPD(theta, lam)
            hi = 0.9 * d.support.upper if d.support.bounded else 2.0 * theta
            ts = tuple(np.linspace(0.05 * theta, hi, 25))
            values = tuple(evaluate(d, dcrex_min(n, t)).value for t in ts)
            r = gpd_slope_test(Curve(ts, values), n)
            expected_model = "Exponential" if lam == 0 else ("ParetoII" if lam > 0 else "PowerGPD")
            assert r.model == expected_model
            assert r.recovered_params["theta"] == pytest.approx(theta, rel=1e-3)
            if lam == 0:
                assert abs(r.recovered_params["lambda"]) <= 1e-3
            else:
                assert r.recovered_params["lambda"] == pytest.approx(lam, rel=1e-3)
            assert gpd_ratio_test(d, n, ts).model == expected_model

    # brute-force oracle: for the exponential the constant ratio of minima
    # residual extropy to mean residual life is -1/(4n), not -1/(2n)
    for lam in (1.0, 2.0):
        d = Exponential(lam)
        for n_check in (1, 2, 3):
            for t in (0.5, 1.5):
                st = d.sf(t)
                value = float(mp.quad(lambda x: (d.sf(float(x)) / st) ** (2 * n_check), [t, mp.inf]))
                ratio = (-0.5 * value) / d.mean_residual_life(t)
                assert ratio == pytest.approx(-1.0 / (4 * n_check), abs=1e-9)
                assert abs(abs(ratio) - 1.0 / (2 * n_check)) > 0.1 / n_check
    _passed(8, "slope test recovers (theta, lambda) within 1e-3; 1/(4n) threshold oracle-confirmed")


def test_c09_power_characterization():
    for b in (1.0, 3.0):
        for c in (0.5, 1.0, 2.0, 5.0):
            d = Power(b, c)
            grid = default_grid(d, points=15, lo_q=0.05, hi_q=0.9)
            for n in (1, 2, 3):
                r = power_ratio_test(d, n, grid)
                assert r.model == "PowerBounded"
                assert r.recovered_params["c"] == pytest.approx(c, rel=1e-6)
    u = power_ratio_test(Uniform(0, 1), 1, default_grid(Uniform(0, 1), points=15))
    assert u.c_hat == pytest.approx(-1 / 3, abs=1e-9)
    _passed(9, "exponent recovered within 1e-6 for all (b, c, n); uniform ratio is -1/3")


def test_c10_estimator_convergence():
    start = time.monotonic()
    s = draw_samples(Exponential(1), 10**5, seed=42)
    assert abs(empirical_crex(s) - (-0.25)) <= 0.01
    s = draw_samples(Uniform(0, 1), 10**5, seed=42)
    assert abs(empirical_cpex(s) - (-1 / 6)) <= 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _passed(10, f"1e5-draw plug-in estimates within 0.01 of targets ({elapsed:.2f}s)")


def test_c11_ordering_theorems_on_instances():
    # hazard-rate transfer on the premise-valid shape-pair range
    r = check_hr_implies_dcrex(Weibull(1, 3), Weibull(1, 2), 2, list(np.linspace(1.0, 3.0, 15)))
    assert r.verdict == "Holds"
    # heavy-tail pair: larger shape parameter precedes in the residual order
    assert check_dcrex_order(Pareto(1, 3), Pareto(1, 2), list(np.linspace(0.1, 5.0, 15))).holds_on_grid
    # bounded pair: larger exponent dominates in the past order
    assert check_dcpex_order(Power(1, 3), Power(1, 2), list(np.linspace(0.1, 0.95, 15))).holds_on_grid
    # k-of-n chain inequalities, both sides, n <= 5
    for d in (Exponential(1), Uniform(0, 1)):
        grid = default_grid(d, points=8, lo_q=0.05, hi_q=0.95)
        for n in range(1, 6):
            for k in range(1, n + 1):
                assert check_korder_chains(d, k, n, grid, "residual").verdict == "Holds"
                assert check_korder_chains(d, k, n, grid, "past").verdict == "Holds"
    _passed(11, "hazard-transfer, both dynamic orders, and all k-of-n chains hold")


def test_c12_convolution_and_conditioning():
    pairs = [
        (Uniform(0, 1), Uniform(0, 1)),
        (Uniform(0, 1), Uniform(0, 1e-6)),
        (Uniform(0, 1), Power(1, 2)),
    ]
    for d1, d2 in pairs:
        assert check_convolution_inequality(d1, d2).verdict == "Holds"
    mixtures = [
        [(0.5, Uniform(0, 1)), (0.5, Uniform(0, 1))],
        [(0.5, Uniform(0, 1)), (0.5, Power(1, 2))],
        [(0.3, Uniform(0, 1)), (0.7, Uniform(0, 2))],
    ]
    for mix in mixtures:
        assert check_conditioning(mix).verdict == "Holds"
    _passed(12, "independent-sum and mixture-conditioning inequalities hold on all listed cases")
