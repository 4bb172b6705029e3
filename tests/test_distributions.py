"""Distribution families: pointwise values, functional identities, schema parsing."""

import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extropy.distributions import (
    DEGENERATE_EPS,
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
from extropy.measures import MeasureKind, evaluate
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


@pytest.mark.parametrize(
    "a, b, want",
    [(0.1, 0.7, "0x1.9999999999999p-2"), (1e308, 1.7e308, "0x1.807e25b31820bp+1023")],
)
def test_uniform_mean_is_the_correctly_rounded_midpoint(a, b, want):
    # a + 0.5 (b - a) rounds twice (0x1.999999999999ap-2 for the first);
    # 0.5 (a + b) overflows to inf for the second
    mean = Uniform(a, b).mean()
    assert mean.hex() == want
    assert mean == float((Fraction(a) + Fraction(b)) / 2)


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
    assert d.cdf(math.inf) == 1.0 == d.cdf(x)[0]
    assert d.sf(math.inf) == 0.0 == d.sf(x)[0]


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
@pytest.mark.parametrize("method", ["sf", "cdf", "pdf"])
def test_nan_argument_gives_nan_for_a_float_and_an_array(d, method):
    f = getattr(d, method)
    assert math.isnan(f(math.nan))
    got = f(np.array([math.nan, d.quantile(0.5)]))
    assert math.isnan(got[0]) and got[1] == f(np.array([d.quantile(0.5)]))[0]


def test_float_overflow_raises_overflow_error():
    # (-log1p(-p) / 1e-300) ** 1000 and (1e200) ** 2 are past the float range,
    # where an array gets numpy's inf and its limits; a float raises only
    # where the result is not finite, and gets the array's finite limit
    d = Weibull(1e-300, 1e-3)
    with pytest.raises(OverflowError):
        d.quantile(0.01)
    assert Weibull(1, 2).sf(1e200) == 0.0
    with np.errstate(over="ignore"):
        assert d.quantile(np.array([0.01]))[0] == math.inf
        assert Weibull(1, 2).sf(np.array([1e200]))[0] == 0.0


@pytest.mark.parametrize("d", [Exponential(1e10), FoldedCramer(1e10), Weibull(1e10, 1)], ids=repr)
def test_float_overflow_with_a_finite_limit_gives_the_array_value(d):
    # lam * x overflows to inf, and sf is its limit 0, as in an array; the
    # folded-Cramer sf keeps its subnormal value there instead
    with np.errstate(over="ignore"):
        want = d.sf(np.array([1e300]))[0]
    assert d.sf(1e300) == want == (1e-310 if isinstance(d, FoldedCramer) else 0.0)


@pytest.mark.parametrize("theta", [1e-300, 1e-10, 1.0, 1e10, 1e300])
def test_folded_cramer_cdf_keeps_its_limit_where_theta_x_overflows(theta):
    # theta x overflowed to inf and the cdf was inf / inf = nan, with two warnings
    d = FoldedCramer(theta)
    if theta >= 1e-10:
        assert d.cdf(np.array([1e300, 1.7e308])).tolist() == [1.0, 1.0]
        assert d.cdf(1.7e308) == 1.0
    # wherever theta x is finite, the bits are those of theta x / (1 + theta x)
    with np.errstate(over="ignore", under="ignore"):
        x = np.concatenate((np.logspace(-320, 308, 4001), 2.0 ** np.arange(40.0, 70.0) / theta))
        x = x[(x > 0) & (theta * x < np.inf)]
    want = theta * x / (1.0 + theta * x)
    assert np.array_equal(d.cdf(x), want)


@pytest.mark.parametrize("theta", [1e-300, 1e-10, 1.0, 1e10, 1e300])
def test_folded_cramer_sf_and_pdf_keep_their_tails_where_theta_x_overflows(theta):
    # theta x overflowed: sf and pdf were 0.0 with "overflow encountered in multiply"
    d = FoldedCramer(theta)
    with np.errstate(over="ignore", under="ignore"):
        x = np.concatenate((np.logspace(-320, 308, 4001), 2.0 ** np.arange(40.0, 70.0) / theta, [1.7e308]))
        x = x[x > 0]
        finite = theta * x < np.inf
        square = (1.0 + theta * x) ** 2
    # wherever theta x is finite, sf has the bits of 1 / (1 + theta x), and pdf those of
    # theta / (1 + theta x)^2 wherever that square is finite
    assert np.array_equal(d.sf(x[finite]), 1.0 / (1.0 + theta * x[finite]))
    assert np.array_equal(d.pdf(x[square < np.inf]), theta / square[square < np.inf])
    # past them, sf is (1/theta) / (x + 1/theta) and pdf is theta sf^2, each within an ulp of the truth
    import mpmath as mp

    with mp.workdps(30):
        for t in x[~(square < np.inf)][::50]:
            sf = 1 / (1 + mp.mpf(theta) * mp.mpf(t))
            assert abs(d.sf(t) - sf) <= 1e-15 * sf + 5e-324
            assert abs(d.pdf(t) - mp.mpf(theta) * sf**2) <= 1e-15 * mp.mpf(theta) * sf**2 + 5e-324
    if theta == 1e10:
        assert d.sf(np.array([1e300]))[0] == d.sf(1e300) == 1e-310
        assert d.pdf(np.array([1e300]))[0] == d.pdf(1e300) == 0.0


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


def test_mixture_sf_keeps_the_tail_of_its_components():
    # 1 - cdf gave 2.820e-14 at t = 30 and left the dcrex of 62 of these ages
    # unresolved, for t in [16.4, 28.7]
    m = Mixture([(0.3, Exponential(1)), (0.7, Uniform(0, 2))])
    want = 0.3 * math.exp(-30.0)
    assert abs(m.sf(30.0) - want) <= 4 * math.ulp(want)
    for t in np.linspace(0.0, 40.0, 203).tolist():
        try:
            evaluate(m, MeasureKind("dcrex", t=t))
        except DegenerateTail:
            assert m.sf(t) <= DEGENERATE_EPS, t


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------


def test_from_spec_roundtrips():
    assert from_spec({"family": "pareto", "params": {"lambda": 1, "theta": 2}}) == Pareto(1, 2)
    assert from_spec({"family": "uniform", "params": {"a": 0, "b": 1}}) == Uniform(0, 1)
    assert from_spec({"family": "gpd", "params": {"theta": 1.0, "lambda": 1.0}}) == GPD(1, 1)
    assert from_spec({"family": "two-exp-max", "params": {}}) == TwoExpMax()
    assert from_spec({"family": "exponential", "params": {"lambda": 3}}) == Exponential(3)
    assert from_spec({"family": "finite-range", "params": {"a": 0.5, "b": 3}}) == FiniteRange(0.5, 3)
    assert from_spec({"family": "weibull", "params": {"lambda": 2, "theta": 0.5}}) == Weibull(2, 0.5)
    assert from_spec({"family": "folded-cramer", "params": {"theta": 4}}) == FoldedCramer(4)
    assert from_spec({"family": "power", "params": {"b": 3, "c": 0.5}}) == Power(3, 0.5)
    assert from_spec({"family": "piecewise-bounded", "params": {}}) == PiecewiseBounded()
    base = {"family": "weibull", "params": {"lambda": 2, "theta": 0.5}}
    affine = {"family": "affine", "params": {"base": base, "scale": 2, "shift": 3}}
    assert from_spec(affine) == Affine(Weibull(2, 0.5), 2, 3)


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


# ---------------------------------------------------------------------------
# conditional_means: mrl and eit with their error estimates
# ---------------------------------------------------------------------------


def _pb_cdf(x):
    import mpmath as mp

    if x <= 1:
        return mp.exp(-mp.mpf(1) / 2 - 1 / x)
    return mp.exp(-2 + x * x / 2) if x < 2 else mp.mpf(1)


@pytest.mark.parametrize("t", [0.4, 1.0, 1.3, 1.62, 1.95])
def test_integrated_means_hold_their_error_bars(t):
    # the cdf's kink at x = 1 is a breakpoint of both integrals
    import mpmath as mp

    d = PiecewiseBounded()
    with mp.workdps(30):
        eit = mp.quad(_pb_cdf, [0, 1, t] if t > 1 else [0, t]) / _pb_cdf(mp.mpf(t))
        mrl = mp.quad(lambda x: 1 - _pb_cdf(x), [t, 1, 2] if t < 1 else [t, 2]) / (1 - _pb_cdf(mp.mpf(t)))
    for side, ref, scalar in (("past", eit, d.expected_inactivity_time), ("residual", mrl, d.mean_residual_life)):
        (value,), (err,) = d.conditional_means([t], side)
        assert abs(value - float(ref)) <= err + 1e-15, (side, value, float(ref), err)
        assert scalar(t) == value
    assert abs(d.mean() - float(mp.quad(lambda x: 1 - _pb_cdf(x), [0, 1, 2]))) <= 1e-14


def test_conditional_means_use_closed_forms_and_batch_the_rest():
    ts = [0.2, 0.5, 0.9]
    values, errors = Uniform(0, 1).conditional_means(ts, "residual")
    assert values.tolist() == [Uniform(0, 1).mean_residual_life(t) for t in ts] and not errors.any()
    d = MinOrder(PiecewiseBounded(), 2)
    values, errors = d.conditional_means(ts, "past")
    assert values.tolist() == [d.expected_inactivity_time(t) for t in ts]
    assert (errors > 0).all()
    with pytest.raises(DivergentMean):
        FoldedCramer(1).conditional_means(ts, "residual")
    with pytest.raises(DegenerateHead):
        d.conditional_means([0.0, 0.5], "past")
    with pytest.raises(ValueError):
        d.conditional_means(ts, "both")


# ---------------------------------------------------------------------------
# Extreme-order quantiles in the tails
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1e-17, 1e-12, 1e-6, 0.3])
@pytest.mark.parametrize("n", [2, 4, 7])
def test_min_order_quantile_keeps_small_probabilities(p, n):
    # 1 - (1 - p)^(1/n) by -expm1(log1p(-p)/n): a small p keeps its digits
    import mpmath as mp

    with mp.workdps(40):
        ref = float(-mp.log(1 - (1 - (1 - mp.mpf(p)) ** (mp.mpf(1) / n))))
    got = MinOrder(Exponential(1), n).quantile(p)
    assert math.isfinite(got) and got == pytest.approx(ref, rel=4 * np.finfo(float).eps)
