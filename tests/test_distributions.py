"""Distribution families: pointwise values, functional identities, schema parsing."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extropy.distributions import (
    Affine,
    Exponential,
    FiniteRange,
    FoldedCramer,
    GPD,
    Mixture,
    Pareto,
    PiecewiseBounded,
    Power,
    Support,
    TwoExpMax,
    Uniform,
    Weibull,
    from_spec,
)
from extropy.errors import (
    BadWeights,
    DegenerateHead,
    DegenerateTail,
    DivergentMean,
    InvalidScale,
    ParamDomainError,
    QuantileOutOfRange,
    SchemaError,
)
from extropy.orderstats import MaxOrder, MinOrder

from conftest import ALL_FAMILIES, BOUNDED, FINITE_MEAN, ids


def interior_points(d, count=100):
    return [d.quantile((i + 0.5) / count) for i in range(count)]


# ---------------------------------------------------------------------------
# Pointwise spot values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d, x, expected",
    [
        (Uniform(0, 1), 0.3, 0.3),
        (GPD(1, 1), 1.0, 0.75),
        (PiecewiseBounded(), 1.0, math.exp(-1.5)),
        (TwoExpMax(), 1.0, (1 - math.exp(-1)) * (1 - math.exp(-2))),
    ],
)
def test_cdf_spot_values(d, x, expected):
    assert d.cdf(x) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "d, x, expected",
    [
        (Weibull(1, 1), 1.0, math.exp(-1)),
        (Pareto(1, 2), 1.0, 0.25),
        (FiniteRange(1, 2), 0.5, 0.25),
        (FoldedCramer(1), 1.0, 0.5),
    ],
)
def test_sf_spot_values(d, x, expected):
    assert d.sf(x) == pytest.approx(expected, abs=1e-12)


def test_uniform_quantile_is_identity_on_unit_interval():
    assert Uniform(0, 1).quantile(0.75) == pytest.approx(0.75)


@pytest.mark.parametrize(
    "d, t, expected",
    [
        (Exponential(2), 0.1, 2.0),
        (Exponential(2), 5.0, 2.0),
        (GPD(1, 1), 0.0, 2.0),
        (Uniform(0, 1), 0.5, 2.0),
    ],
)
def test_hazard_rate_spot_values(d, t, expected):
    assert d.hazard_rate(t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "d, t, expected",
    [
        (Power(1, 1), 0.5, 2.0),
        (Uniform(0, 1), 0.25, 4.0),
        (Power(1, 3), 0.5, 6.0),
    ],
)
def test_reversed_hazard_spot_values(d, t, expected):
    assert d.reversed_hazard(t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "d, expected",
    [
        (Exponential(2), 0.5),
        (Pareto(1, 2), 1.0),
        (Uniform(2, 5), 3.5),
        (GPD(1, 1), 1.0),
        (FiniteRange(1, 2), 1.0 / 3.0),
        (Power(1, 2), 2.0 / 3.0),
        (TwoExpMax(), 7.0 / 6.0),
        (Weibull(1, 2), math.gamma(1.5)),
    ],
)
def test_means(d, expected):
    assert d.mean() == pytest.approx(expected, rel=1e-9)


def test_mrl_and_eit_spot_values():
    assert Exponential(2).mean_residual_life(3.7) == pytest.approx(0.5)
    assert Uniform(0, 1).expected_inactivity_time(0.4) == pytest.approx(0.2)
    assert Pareto(1, 2).mean_residual_life(2.0) == pytest.approx(3.0)
    assert GPD(1, 1).mean_residual_life(2.0) == pytest.approx(3.0)
    assert Power(1, 2).expected_inactivity_time(0.6) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Functional identities across all bundled families
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_cdf_plus_sf_is_one(d):
    for x in interior_points(d):
        assert abs(d.cdf(x) + d.sf(x) - 1.0) <= 1e-12


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_cdf_monotone_and_boundary(d):
    pts = interior_points(d)
    values = [d.cdf(x) for x in pts]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert d.cdf(d.support.lower) == 0.0
    assert d.cdf(d.quantile(1 - 1e-12)) >= 1 - 1e-9


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_quantile_cdf_roundtrip(d):
    for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]:
        x = d.quantile(p)
        assert d.cdf(x) == pytest.approx(p, abs=1e-10)
        # x-space roundtrip away from flat cdf regions
        assert d.quantile(d.cdf(x)) == pytest.approx(x, abs=1e-9 * max(1.0, abs(x)))


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_pdf_matches_cdf_derivative(d):
    h = 1e-6
    for p in [0.1, 0.3, 0.5, 0.7, 0.9]:
        x = d.quantile(p)
        if isinstance(d, PiecewiseBounded) and min(abs(x - 1.0), abs(x - 2.0)) < 1e-3:
            continue  # kink points have one-sided derivatives only
        fd = (d.cdf(x + h) - d.cdf(x - h)) / (2 * h)
        assert d.pdf(x) == pytest.approx(fd, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("d", FINITE_MEAN, ids=ids(FINITE_MEAN))
def test_hazard_mrl_derivative_relation(d):
    # hazard(t) * mrl(t) = 1 + mrl'(t)
    h = 1e-5
    for p in [0.2, 0.4, 0.6, 0.8]:
        t = d.quantile(p)
        lhs = d.hazard_rate(t) * d.mean_residual_life(t)
        rhs = 1.0 + (d.mean_residual_life(t + h) - d.mean_residual_life(t - h)) / (2 * h)
        assert lhs == pytest.approx(rhs, abs=1e-4)


@pytest.mark.parametrize("d", BOUNDED, ids=ids(BOUNDED))
def test_reversed_hazard_eit_derivative_relation(d):
    # reversed_hazard(t) * eit(t) = 1 - eit'(t)
    h = 1e-5
    for p in [0.2, 0.4, 0.6, 0.8]:
        t = d.quantile(p)
        if isinstance(d, PiecewiseBounded) and abs(t - 1.0) < 1e-3:
            continue
        lhs = d.reversed_hazard(t) * d.expected_inactivity_time(t)
        rhs = 1.0 - (
            d.expected_inactivity_time(t + h) - d.expected_inactivity_time(t - h)
        ) / (2 * h)
        assert lhs == pytest.approx(rhs, abs=1e-4)


def test_lomax_is_pareto_reparameterization():
    # GPD with lam > 0 matches the Pareto family pointwise
    g = GPD(theta=1.0, lam=1.0)
    p = Pareto(lam=1.0, theta=2.0)
    for x in [0.1, 0.5, 1.0, 2.0, 10.0]:
        assert g.sf(x) == pytest.approx(p.sf(x), rel=1e-12)
        assert g.pdf(x) == pytest.approx(p.pdf(x), rel=1e-12)


def test_gpd_exponential_limit():
    g = GPD(theta=2.0, lam=0.0)
    e = Exponential(0.5)
    for x in [0.3, 1.0, 4.0]:
        assert g.sf(x) == pytest.approx(e.sf(x), rel=1e-12)
    assert g.quantile(0.5) == pytest.approx(e.quantile(0.5), rel=1e-12)


def test_gpd_negative_lambda_has_bounded_support():
    g = GPD(theta=1.0, lam=-0.5)
    assert g.support.upper == pytest.approx(2.0)
    assert g.sf(2.0) == 0.0
    assert g.sf(3.0) == 0.0


# ---------------------------------------------------------------------------
# Affine transforms
# ---------------------------------------------------------------------------


def test_affine_uniform_shift_scale():
    y = Uniform(0, 1).affine(2.0, 3.0)
    assert y.cdf(4.0) == pytest.approx(0.5)
    assert y.support.lower == 3.0 and y.support.upper == 5.0
    assert y.mean() == pytest.approx(4.0)


def test_affine_identity():
    d = Pareto(1, 2)
    y = d.affine(1.0, 0.0)
    for x in [0.2, 1.0, 5.0]:
        assert y.cdf(x) == pytest.approx(d.cdf(x), abs=1e-15)


def test_affine_exponential_rescale():
    y = Exponential(1).affine(0.5, 0.0)
    assert y.sf(1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_affine_rejects_bad_parameters():
    with pytest.raises(InvalidScale):
        Uniform(0, 1).affine(0.0, 1.0)
    with pytest.raises(ParamDomainError):
        Uniform(0, 1).affine(1.0, -0.5)


# ---------------------------------------------------------------------------
# Errors and parameter domains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: Uniform(1, 1),
        lambda: Uniform(-1, 2),
        lambda: FiniteRange(0, 1),
        lambda: Weibull(1, 0),
        lambda: Exponential(-2),
        lambda: FoldedCramer(0),
        lambda: Pareto(1, 1.0),
        lambda: Pareto(0, 2),
        lambda: GPD(0, 1),
        lambda: GPD(1, -1),
        lambda: Power(1, 0),
        lambda: Support(2, 1),
        lambda: Support(-1, 1),
    ],
)
def test_parameter_domains_rejected(make):
    with pytest.raises(ParamDomainError):
        make()


_VALID_ARGS = [
    (Uniform, (0.5, 2.0)),
    (FiniteRange, (1.0, 2.0)),
    (Weibull, (1.0, 2.0)),
    (Exponential, (1.0,)),
    (FoldedCramer, (1.0,)),
    (Pareto, (1.0, 2.0)),
    (GPD, (1.0, 0.5)),
    (Power, (1.0, 2.0)),
]
_NON_FINITE_CASES = [
    (cls, args[:i] + (bad,) + args[i + 1 :])
    for cls, args in _VALID_ARGS
    for i in range(len(args))
    for bad in (math.inf, -math.inf, math.nan)
]


@pytest.mark.parametrize(
    "cls,args", _NON_FINITE_CASES, ids=[f"{c.__name__}{a}" for c, a in _NON_FINITE_CASES]
)
def test_non_finite_parameters_rejected(cls, args):
    with pytest.raises(ParamDomainError):
        cls(*args)


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_affine_and_mixture_reject_non_finite_parameters(bad):
    u = Uniform(0, 1)
    with pytest.raises(InvalidScale):
        u.affine(bad, 0.0)
    with pytest.raises(ParamDomainError):
        u.affine(1.0, bad)
    with pytest.raises(BadWeights):
        Mixture([(bad, u)])
    with pytest.raises(BadWeights):
        Mixture([(bad, u), (1.0, Uniform(0, 2))])


_WITH_EXTREMES = [e for d in ALL_FAMILIES for e in (d, MinOrder(d, 3), MaxOrder(d, 3))]


@pytest.mark.parametrize("d", _WITH_EXTREMES, ids=ids(_WITH_EXTREMES))
def test_cdf_and_sf_at_infinity(d):
    x = np.array([math.inf])
    assert d.cdf(math.inf) == 1.0 == d.cdf_array(x)[0]
    assert d.sf(math.inf) == 0.0 == d.sf_array(x)[0]


def test_quantile_out_of_range():
    for p in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(QuantileOutOfRange):
            Uniform(0, 1).quantile(p)


def test_degenerate_tail_and_head():
    with pytest.raises(DegenerateTail):
        Uniform(0, 1).hazard_rate(1.0)
    with pytest.raises(DegenerateHead):
        Uniform(0, 1).expected_inactivity_time(0.0)
    with pytest.raises(DegenerateTail):
        Uniform(0, 1).mean_residual_life(1.5)


def test_folded_cramer_has_no_mean():
    d = FoldedCramer(1)
    assert not d.has_finite_mean
    with pytest.raises(DivergentMean):
        d.mean()
    with pytest.raises(DivergentMean):
        d.mean_residual_life(1.0)


def test_mixture_weight_validation():
    u = Uniform(0, 1)
    with pytest.raises(BadWeights):
        Mixture([])
    with pytest.raises(BadWeights):
        Mixture([(0.5, u), (0.6, u)])
    with pytest.raises(BadWeights):
        Mixture([(1.2, u), (-0.2, u)])
    m = Mixture([(0.25, u), (0.75, Uniform(0, 2))])
    assert m.cdf(1.0) == pytest.approx(0.25 + 0.75 * 0.5)
    assert m.mean() == pytest.approx(0.25 * 0.5 + 0.75 * 1.0)


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------


def test_from_spec_roundtrips():
    assert from_spec({"family": "pareto", "params": {"lambda": 1, "theta": 2}}) == Pareto(1, 2)
    assert from_spec({"family": "uniform", "params": {"a": 0, "b": 1}}) == Uniform(0, 1)
    assert from_spec({"family": "gpd", "params": {"theta": 1.0, "lambda": 1.0}}) == GPD(1, 1)
    assert from_spec({"family": "two-exp-max", "params": {}}) == TwoExpMax()
    assert from_spec({"family": "exponential", "params": {"lambda": 3}}) == Exponential(3)


def test_from_spec_affine_nesting():
    d = from_spec(
        {
            "family": "affine",
            "params": {
                "base": {"family": "uniform", "params": {"a": 0, "b": 1}},
                "scale": 2,
                "shift": 3,
            },
        }
    )
    assert d.cdf(4.0) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "nope", "params": {}},
        {"family": "uniform", "params": {"a": 0, "b": 1}, "extra": 1},
        {"family": "uniform", "params": {"a": 0, "b": 1, "c": 2}},
        {"family": "uniform", "params": {"a": 0}},
        {"family": "uniform", "params": [0, 1]},
        [1, 2, 3],
    ],
)
def test_from_spec_schema_errors(spec):
    with pytest.raises(SchemaError):
        from_spec(spec)


def test_from_spec_domain_error():
    with pytest.raises(ParamDomainError):
        from_spec({"family": "pareto", "params": {"lambda": 1, "theta": 0.5}})


# ---------------------------------------------------------------------------
# Property-based checks
# ---------------------------------------------------------------------------

positive = st.floats(min_value=0.05, max_value=50, allow_nan=False)


@given(a=st.floats(min_value=0, max_value=10), width=st.floats(min_value=0.01, max_value=10), p=st.floats(min_value=0.001, max_value=0.999))
def test_uniform_quantile_inverts_cdf(a, width, p):
    d = Uniform(a, a + width)
    assert abs(d.cdf(d.quantile(p)) - p) <= 1e-12


@settings(max_examples=50)
@given(lam=positive, theta=positive, p=st.floats(min_value=0.001, max_value=0.999))
def test_weibull_roundtrip_and_unit_mass(lam, theta, p):
    d = Weibull(lam, theta)
    x = d.quantile(p)
    assert abs(d.cdf(x) + d.sf(x) - 1.0) <= 1e-12
    assert d.cdf(x) == pytest.approx(p, abs=1e-10)
    assert d.pdf(x) >= 0.0


@settings(max_examples=50)
@given(theta=positive, lam=st.floats(min_value=-0.9, max_value=5), p=st.floats(min_value=0.001, max_value=0.999))
def test_gpd_roundtrip(theta, lam, p):
    d = GPD(theta, lam)
    x = d.quantile(p)
    # 1e-10, plus what 4 ulps of x move the cdf by: near the bounded upper end
    # one ulp of x can move cdf(x) by more than 1e-10
    assert abs(d.cdf(x) - p) <= 1e-10 + 4.0 * d.pdf(x) * math.ulp(x)
    assert d.support.lower <= x <= d.support.upper


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_support_is_cached_and_equality_unchanged(d):
    assert d.support is d.support
    fresh = copy.deepcopy(d)
    fresh.__dict__.pop("support", None)  # as built, before any access
    assert fresh == d and hash(fresh) == hash(d)
    assert fresh.support == d.support  # caches it on fresh
    assert fresh == d and hash(fresh) == hash(d)
