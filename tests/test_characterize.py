"""Model identification: ratio/slope constancy tests and family-equality checks."""

import math

import mpmath as mp
import numpy as np
import pytest

from extropy import analysis
from extropy.analysis import default_grid
from extropy.characterize import (
    CheckSchedule,
    family_equality_check,
    gpd_ratio_test,
    gpd_slope_test,
    power_ratio_test,
)
from extropy.distributions import (
    Exponential,
    FiniteRange,
    GPD,
    PiecewiseBounded,
    Power,
    TwoExpMax,
    Uniform,
    Weibull,
)
from extropy.errors import ExtropyError, UnboundedSupport
from extropy.measures import Curve, dcrex_min, evaluate


def residual_grid(d, points=15):
    return default_grid(d, points=points, lo_q=0.05, hi_q=0.9)


def exact_minima_curve(d, n, ts):
    values = tuple(evaluate(d, dcrex_min(n, t)).value for t in ts)
    return Curve(tuple(ts), values)


# ---------------------------------------------------------------------------
# Ratio test
# ---------------------------------------------------------------------------


def test_ratio_test_exponential():
    r = gpd_ratio_test(Exponential(1), 1, residual_grid(Exponential(1)))
    assert r.model == "Exponential"
    assert r.c_hat == pytest.approx(0.25, abs=1e-9)
    assert r.recovered_params["lambda"] == 0.0


def test_ratio_test_lomax():
    r = gpd_ratio_test(GPD(1, 1), 1, residual_grid(GPD(1, 1)))
    assert r.model == "ParetoII"
    assert r.c_hat == pytest.approx(1 / 6, abs=1e-9)
    assert r.recovered_params["lambda"] == pytest.approx(1.0, rel=1e-6)


def test_ratio_test_finite_range_is_power_type():
    d = FiniteRange(1, 2)
    r = gpd_ratio_test(d, 1, residual_grid(d))
    assert r.model == "PowerGPD"
    assert r.c_hat == pytest.approx(0.3, abs=1e-9)  # (1+b)/(2(1+2b)) at b=2
    assert r.recovered_params["lambda"] == pytest.approx(-1 / 3, rel=1e-6)


def test_ratio_test_rejects_non_gpd():
    d = Weibull(1, 2)
    r = gpd_ratio_test(d, 1, residual_grid(d))
    assert r.model == "NotConstant"
    assert r.recovered_params == {}


def test_exponential_ratio_constant_is_one_quarter_n_not_one_half_n():
    """Brute-force oracle for the classification threshold.

    Direct quadrature of the dynamic residual integral for the exponential
    gives -mrl(t)/(4n); a 1/(2n) constant would be off by a factor of two.
    """
    for lam in (1.0, 2.0):
        d = Exponential(lam)
        for n in (1, 2, 3):
            for t in (0.3, 1.0, 2.5):
                st = d.sf(t)
                value = float(mp.quad(lambda x: (d.sf(float(x)) / st) ** (2 * n), [t, mp.inf]))
                ratio = (-0.5 * value) / d.mean_residual_life(t)
                assert ratio == pytest.approx(-1.0 / (4 * n), abs=1e-9)
                assert abs(abs(ratio) - 1.0 / (2 * n)) > 0.1 / n


# ---------------------------------------------------------------------------
# Slope test
# ---------------------------------------------------------------------------


def test_slope_test_lomax_curve():
    ts = list(np.linspace(0.1, 2.0, 20))
    r = gpd_slope_test(exact_minima_curve(GPD(1, 1), 1, ts), 1)
    assert r.model == "ParetoII"
    assert r.c_hat == pytest.approx(-1 / 6, abs=1e-9)
    assert r.recovered_params["lambda"] == pytest.approx(1.0, rel=1e-6)
    assert r.recovered_params["theta"] == pytest.approx(1.0, rel=1e-6)


def test_slope_test_exponential_curve():
    ts = list(np.linspace(0.1, 3.0, 20))
    r = gpd_slope_test(exact_minima_curve(Exponential(1), 2, ts), 2)
    assert r.model == "Exponential"
    assert r.c_hat == pytest.approx(0.0, abs=1e-12)
    assert r.recovered_params["lambda"] == 0.0


def test_slope_test_rejects_bent_curve():
    d = TwoExpMax()
    ts = list(np.linspace(0.2, 2.0, 20))
    r = gpd_slope_test(exact_minima_curve(d, 1, ts), 1)
    assert r.model == "NotConstant"


def test_slope_test_needs_three_points():
    with pytest.raises(ExtropyError):
        gpd_slope_test(Curve((0.0, 1.0), (0.0, -0.1)), 1)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("lam", [-0.5, 0.0, 1.0])
def test_gpd_round_trip(theta, lam):
    d = GPD(theta, lam)
    hi = 0.9 * d.support.upper if d.support.bounded else 2.0 * theta
    ts = list(np.linspace(0.05 * theta, hi, 25))
    r = gpd_slope_test(exact_minima_curve(d, 2, ts), 2)
    if lam == 0.0:
        assert r.model == "Exponential"
        assert abs(r.recovered_params["lambda"]) <= 1e-3
    else:
        assert r.recovered_params["lambda"] == pytest.approx(lam, rel=1e-3)
    assert r.recovered_params["theta"] == pytest.approx(theta, rel=1e-3)
    # the ratio test must agree on the label
    ratio = gpd_ratio_test(d, 2, ts)
    assert ratio.model == r.model


# ---------------------------------------------------------------------------
# Power characterization
# ---------------------------------------------------------------------------


def test_power_ratio_uniform():
    d = Uniform(0, 1)
    r = power_ratio_test(d, 1, residual_grid(d))
    assert r.model == "PowerBounded"
    assert r.c_hat == pytest.approx(-1 / 3, abs=1e-9)
    assert r.recovered_params["c"] == pytest.approx(1.0, rel=1e-9)


def test_power_ratio_quadratic():
    d = Power(1, 2)
    r = power_ratio_test(d, 1, residual_grid(d))
    assert r.c_hat == pytest.approx(-0.3, abs=1e-9)
    assert r.recovered_params["c"] == pytest.approx(2.0, rel=1e-9)
    assert r.recovered_params["b"] == 1.0


def test_power_ratio_rejects_kinked_cdf():
    d = PiecewiseBounded()
    ts = list(np.linspace(1.05, 1.95, 15))
    assert power_ratio_test(d, 1, ts).model == "NotConstant"


def test_power_ratio_requires_bounded_support():
    with pytest.raises(UnboundedSupport):
        power_ratio_test(Exponential(1), 1, [0.5, 1.0])


# ---------------------------------------------------------------------------
# Family-equality checks
# ---------------------------------------------------------------------------


def test_location_family_uniform():
    r = family_equality_check(Uniform(0, 1), Uniform(2, 3), mode="Location")
    assert r.verdict == "Holds"


def test_scale_family_exponential():
    r = family_equality_check(Exponential(1), Exponential(3), mode="Scale")
    assert r.verdict == "Holds"


def test_location_scale_family_uniform():
    r = family_equality_check(Uniform(0, 1), Uniform(5, 9), mode="LocationScale")
    assert r.verdict == "Holds"


def test_location_check_fails_across_families():
    r = family_equality_check(Uniform(0, 1), Exponential(1), mode="Location")
    assert r.verdict == "Fails"


def test_family_equality_reads_base_tol_at_call_time(monkeypatch):
    fails = family_equality_check(Uniform(0, 1), Exponential(1), mode="Location")
    assert fails.verdict == "Fails"
    monkeypatch.setattr(analysis, "BASE_TOL", 1.0 - fails.worst_margin)
    loose = family_equality_check(Uniform(0, 1), Exponential(1), mode="Location")
    assert loose.verdict == "Holds"
    assert loose.worst_margin == fails.worst_margin


@pytest.mark.parametrize(
    "mode,d1,d2",
    [("Location", Uniform(0, 1), Uniform(2, 3)), ("Scale", Exponential(1), Exponential(3)),
     ("LocationScale", Uniform(0, 1), Uniform(5, 9))],
    ids=["Location", "Scale", "LocationScale"],
)
def test_family_equality_on_an_empty_schedule_is_inconclusive(mode, d1, d2):
    r = family_equality_check(d1, d2, CheckSchedule(()), mode=mode)
    assert (r.verdict, r.worst_point, r.points_tested) == ("Inconclusive", None, 0)
    assert math.isnan(r.worst_margin)


def test_location_check_holds_under_pure_shift():
    d = Exponential(1)
    r = family_equality_check(d, d.affine(1.0, 2.0), mode="Location")
    assert r.verdict == "Holds"


def test_scale_mode_requires_half_line_support():
    with pytest.raises(UnboundedSupport):
        family_equality_check(Uniform(0, 1), Exponential(1), mode="Scale")


def test_unknown_mode_rejected():
    with pytest.raises(ExtropyError):
        family_equality_check(Uniform(0, 1), Uniform(0, 1), mode="Rotation")


def test_schedule_validation():
    assert CheckSchedule().orders == tuple(range(1, 13))
    with pytest.raises(ExtropyError):
        CheckSchedule(orders=(1, 3, 2))
    with pytest.raises(ExtropyError):
        CheckSchedule(orders=(0, 1))
