"""Measure evaluation: closed forms, quadrature agreement, curves, identities."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extropy import quadrature
from extropy.distributions import (
    Exponential,
    FiniteRange,
    FoldedCramer,
    GPD,
    Pareto,
    PiecewiseBounded,
    Power,
    TwoExpMax,
    Uniform,
    Weibull,
)
from extropy.errors import (
    DegenerateHead,
    DegenerateTail,
    ExtropyError,
    UnboundedSupport,
)
from extropy.measures import (
    Curve,
    MeasureKind,
    cpen,
    cpex,
    cpex_max,
    cren,
    crex,
    crex_min,
    crex_min_quantile_form,
    curve,
    dcpex,
    dcpex_max,
    dcrex,
    dcrex_min,
    dcrex_min_derivative,
    evaluate,
    extropy,
    sign_changes,
)

from conftest import ALL_FAMILIES, BOUNDED, ids


# ---------------------------------------------------------------------------
# Spot values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d, kind, expected",
    [
        (Uniform(0, 1), crex_min(2), -0.1),
        (Exponential(1), crex(), -0.25),
        (Pareto(1, 2), crex_min(1), -1 / 6),
        (FoldedCramer(1), crex_min(2), -1 / 6),
        (Uniform(0, 1), cpex(), -1 / 6),
        (Pareto(1, 2), dcrex(1.0), -1 / 3),
        (GPD(1, 1), dcrex_min(2, 1.0), -1 / 7),
        (Uniform(0, 1), dcpex_max(2, 1.0), -0.1),
        (Weibull(1, 2), crex(), -math.gamma(0.5) / (2 * 2 * math.sqrt(2))),
        (FiniteRange(1, 2), crex_min(3), -1 / (2 * 13)),
        (Power(1, 2), cpex(), -0.1),
        (Power(1, 2), dcpex_max(1, 0.5), -0.05),
        (Exponential(2), crex_min(3), -1 / 24),
        (GPD(1, -0.5), dcrex_min(1, 0.5), -(1 - 0.25) / (2 * (2 * 0.5 + 0.5))),
    ],
)
def test_closed_form_spot_values(d, kind, expected):
    mv = evaluate(d, kind)
    assert mv.method == "closed-form"
    assert mv.abs_error_estimate == 0.0
    assert mv.value == pytest.approx(expected, rel=1e-12)


def test_quadrature_spot_values():
    assert evaluate(Uniform(0, 1), cpen()).value == pytest.approx(0.25, abs=1e-9)
    assert evaluate(Exponential(1), cren()).value == pytest.approx(1.0, abs=1e-9)
    assert evaluate(Uniform(0, 1), extropy()).value == pytest.approx(-0.5, abs=1e-9)
    assert evaluate(Exponential(1), extropy()).value == pytest.approx(-0.25, abs=1e-9)


def test_residual_measures_are_location_insensitive():
    # static residual integrals start at the lower support endpoint
    assert evaluate(Uniform(2, 3), crex()).value == pytest.approx(-1 / 6, rel=1e-12)
    shifted = Exponential(1).affine(1.0, 5.0)
    assert evaluate(shifted, crex(), force_quadrature=True).value == pytest.approx(
        -0.25, abs=1e-8
    )


def test_past_measure_beyond_support_extends_cdf_as_one():
    # the conditioning age may exceed the support; cdf is 1 on the gap
    v = evaluate(Uniform(0, 1), dcpex(1.5), force_quadrature=True)
    assert v.value == pytest.approx(-0.5 * (1 / 3 + 0.5), abs=1e-9)


# ---------------------------------------------------------------------------
# Closed form vs quadrature
# ---------------------------------------------------------------------------

_CATALOGED = [
    Uniform(0, 1),
    Uniform(2, 5),
    FiniteRange(1, 2),
    Weibull(1, 2),
    Exponential(1),
    FoldedCramer(1),
    Pareto(1, 2),
    GPD(1, 1),
    GPD(2, -0.5),
]


@pytest.mark.parametrize("d", _CATALOGED, ids=ids(_CATALOGED))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_crex_min_closed_form_matches_quadrature(d, n):
    cf = evaluate(d, crex_min(n))
    q = evaluate(d, crex_min(n), force_quadrature=True)
    assert cf.method == "closed-form" and q.method == "quadrature"
    assert q.value == pytest.approx(cf.value, rel=1e-6)


@pytest.mark.parametrize("d", [Uniform(0, 1), Power(1, 2), Power(3, 0.5)], ids=ids([Uniform(0, 1), Power(1, 2), Power(3, 0.5)]))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_cpex_max_closed_form_matches_quadrature(d, n):
    cf = evaluate(d, cpex_max(n))
    q = evaluate(d, cpex_max(n), force_quadrature=True)
    assert q.value == pytest.approx(cf.value, rel=1e-6)


_DYNAMIC_CATALOGED = [
    GPD(1, 1),
    GPD(2, -0.5),
    Exponential(1),
    FiniteRange(1, 2),
    Pareto(1, 2),
    FoldedCramer(1),
    Uniform(0, 1),
    Uniform(2, 5),
]


@pytest.mark.parametrize("d", _DYNAMIC_CATALOGED, ids=ids(_DYNAMIC_CATALOGED))
@pytest.mark.parametrize("n", [1, 2, 5])
def test_dcrex_min_closed_form_matches_quadrature(d, n):
    t = d.quantile(0.3)
    cf = evaluate(d, dcrex_min(n, t))
    q = evaluate(d, dcrex_min(n, t), force_quadrature=True)
    assert q.value == pytest.approx(cf.value, rel=1e-6)


_PLAIN_CATALOGED = {
    "crex": _CATALOGED,
    "dcrex": [GPD(1, 1), GPD(2, -0.5), Exponential(1), FiniteRange(1, 2), Pareto(1, 2), FoldedCramer(1), Uniform(0, 1)],
    "cpex": [Uniform(0, 1), Uniform(2, 5), Power(1, 2), Power(3, 0.5)],
    "dcpex": [Uniform(0, 1), Uniform(2, 5), Power(1, 2), Power(3, 0.5)],
}


@pytest.mark.parametrize(
    "name,d", [(name, d) for name, ds in _PLAIN_CATALOGED.items() for d in ds],
    ids=[f"{name}-{d!r}" for name, ds in _PLAIN_CATALOGED.items() for d in ds],
)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plain_kind_closed_form_honours_n(name, d, n):
    t = d.quantile(0.3) if name.startswith("d") else None
    kind = MeasureKind(name, n=n, t=t)
    cf = evaluate(d, kind)
    q = evaluate(d, kind, force_quadrature=True)
    assert q.value == pytest.approx(cf.value, rel=1e-6)


# ---------------------------------------------------------------------------
# Negativity and kind validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_residual_extropies_negative(d):
    assert evaluate(d, crex()).value < 0
    assert evaluate(d, crex_min(3)).value < 0
    t = d.quantile(0.4)
    assert evaluate(d, dcrex_min(2, t)).value < 0


@pytest.mark.parametrize("d", BOUNDED, ids=ids(BOUNDED))
def test_past_extropies_negative(d):
    assert evaluate(d, cpex()).value < 0
    assert evaluate(d, cpex_max(3)).value < 0
    t = d.quantile(0.6)
    assert evaluate(d, dcpex_max(2, t)).value < 0


def test_measure_kind_validation():
    with pytest.raises(ExtropyError):
        MeasureKind("nope")
    with pytest.raises(ExtropyError):
        MeasureKind("crex-min", n=0)
    with pytest.raises(ExtropyError):
        MeasureKind("dcrex")  # dynamic kinds need an age


def test_unbounded_past_measures_rejected():
    for kind in (cpex(), cpex_max(2), cpen()):
        with pytest.raises(UnboundedSupport):
            evaluate(Exponential(1), kind)


def test_degenerate_ages_rejected():
    with pytest.raises(DegenerateTail):
        evaluate(Uniform(0, 1), dcrex(1.0))
    with pytest.raises(DegenerateHead):
        evaluate(Uniform(0, 1), dcpex(0.0))
    with pytest.raises(DegenerateTail):
        evaluate(GPD(1, -0.5), dcrex_min(2, 2.0))  # closed form, degenerate age


# ---------------------------------------------------------------------------
# Quantile form and the derivative identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d, n, expected",
    [
        (Uniform(0, 1), 1, -1 / 6),
        (Exponential(1), 2, -1 / 8),
        (Weibull(1, 2), 1, -math.gamma(0.5) / (4 * math.sqrt(2))),
    ],
)
def test_quantile_form_values(d, n, expected):
    qf = crex_min_quantile_form(d, n)
    assert qf.value == pytest.approx(expected, abs=1e-8)
    direct = evaluate(d, crex_min(n))
    assert abs(qf.value - direct.value) <= 1e-7 + qf.abs_error_estimate + direct.abs_error_estimate


def test_quantile_form_vanishing_density():
    # the density vanishes like exp(-1/x) at 0, so the integrand grows like
    # 1/(q log^2 q) as q = 1 - u -> 0: integrable, but the end rule's ratios
    # creep up to 1 and are never steady, so it is not resolved
    with pytest.raises(ExtropyError, match=r"^the integral over \[0\.0, 1\.0\] is not resolved near x = 1\.0$"):
        crex_min_quantile_form(PiecewiseBounded(), 1)


def test_quantile_form_singular_end_holds_its_error_bar(monkeypatch):
    # u^2 / f(F^-1(1 - u)) ~ 1/(2 sqrt(1 - u)) at u = 1: the batched passes
    # leave it open and the end rule extrapolates it
    reached = []
    rule = quadrature._end_rule

    def spy(*args):
        reached.append(1)
        return rule(*args)

    monkeypatch.setattr(quadrature, "_end_rule", spy)
    mv = crex_min_quantile_form(Weibull(1, 2), 1)
    with mp.workdps(30):
        ref = float(-mp.gamma(mp.mpf(1) / 2) / (4 * mp.sqrt(2)))
    assert reached == [1]
    assert abs(mv.value - ref) <= mv.abs_error_estimate + 1e-12, (mv, ref)


@pytest.mark.parametrize(
    "d, n, t, rhs_expected",
    [
        (Exponential(1), 1, 0.7, 0.0),
        (GPD(1, 1), 1, 2.0, -1 / 6),
        (Uniform(0, 1), 1, 0.5, 1 / 6),
    ],
)
def test_derivative_identity_spot_values(d, n, t, rhs_expected):
    lhs, rhs = dcrex_min_derivative(d, n, t)
    assert rhs == pytest.approx(rhs_expected, abs=1e-9)
    assert abs(lhs - rhs) <= 1e-4


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def test_exponential_dcrex_curve_is_constant():
    cv = curve(Exponential(1), dcrex, [0.1, 0.5, 1.0, 2.0, 5.0])
    assert all(v == pytest.approx(-0.25, abs=1e-9) for v in cv.values)
    assert cv.skipped == ()


def test_curve_requires_increasing_grid():
    with pytest.raises(ExtropyError):
        curve(Exponential(1), dcrex, [0.5, 0.5, 1.0])


def test_curve_flags_degenerate_points():
    cv = curve(Uniform(0, 1), dcrex, [0.2, 0.5, 1.5])
    assert cv.ts == (0.2, 0.5)
    assert cv.skipped == (1.5,)
    assert len(cv) == 2


def test_two_exp_max_curve_is_non_monotone():
    d = TwoExpMax()
    us = [i / 40 for i in range(1, 40)]
    cv = curve(d, lambda u: dcrex(-math.log(u)), us)
    assert sign_changes(cv.values) >= 1


def test_piecewise_bounded_past_curve_is_non_monotone():
    d = PiecewiseBounded()
    ts = [1.0 + i / 40 for i in range(1, 40)]
    cv = curve(d, dcpex, ts)
    assert sign_changes(cv.values) >= 1


def test_sign_changes_counting():
    assert sign_changes([0, 1, 2, 3]) == 0
    assert sign_changes([0, 1, 0]) == 1
    assert sign_changes([0, 1, 0, 1]) == 2
    assert sign_changes([1, 1, 1]) == 0
    assert Curve((0.0, 1.0), (0.5, 0.6)).skipped == ()


# ---------------------------------------------------------------------------
# Property-based monotonicity in n
# ---------------------------------------------------------------------------


@settings(max_examples=40)
@given(
    a=st.floats(min_value=0, max_value=5),
    width=st.floats(min_value=0.1, max_value=5),
    n=st.integers(min_value=1, max_value=9),
)
def test_crex_min_nondecreasing_in_n_uniform(a, width, n):
    d = Uniform(a, a + width)
    assert evaluate(d, crex_min(n + 1)).value >= evaluate(d, crex_min(n)).value


@settings(max_examples=40)
@given(
    lam=st.floats(min_value=0.1, max_value=10),
    theta=st.floats(min_value=0.3, max_value=5),
    n=st.integers(min_value=1, max_value=9),
)
def test_crex_min_nondecreasing_in_n_weibull(lam, theta, n):
    d = Weibull(lam, theta)
    assert evaluate(d, crex_min(n + 1)).value >= evaluate(d, crex_min(n)).value
