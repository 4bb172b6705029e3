"""Order-statistic transforms: pointwise values and identities with the binomial sum."""

import math

import pytest
from scipy.integrate import quad

from extropy.distributions import Exponential, FiniteRange, Power, Uniform
from extropy.errors import InvalidOrder
from extropy.orderstats import (
    KthOrder,
    MaxOrder,
    MinOrder,
    OrderSpec,
    kth_order,
    kth_order_sf,
    max_order,
    min_order,
)

from conftest import ALL_FAMILIES, ids


def test_min_order_exponential_sf():
    assert min_order(Exponential(1), 3).sf(1.0) == pytest.approx(math.exp(-3), rel=1e-12)


def test_order_one_is_parent():
    d = Exponential(1)
    assert min_order(d, 1) is d
    assert max_order(d, 1) is d
    assert kth_order(d, 1, 1) is d


def test_uniform_minimum_matches_finite_range():
    m = min_order(Uniform(0, 1), 2)
    fr = FiniteRange(1, 2)  # sf = (1 - x)^2 on (0, 1)
    for x in [0.1, 0.3, 0.5, 0.9]:
        assert m.sf(x) == pytest.approx(fr.sf(x), abs=1e-12)
    assert m.sf(0.5) == pytest.approx(0.25)


def test_max_order_uniform_cdf():
    assert max_order(Uniform(0, 1), 3).cdf(0.5) == pytest.approx(0.125)


def test_max_of_power_is_power():
    m = max_order(Power(1, 2), 2)
    p = Power(1, 4)
    for x in [0.2, 0.5, 0.8]:
        assert m.cdf(x) == pytest.approx(p.cdf(x), abs=1e-12)


def test_kth_order_sf_hand_values():
    d = Uniform(0, 1)
    x = d.quantile(0.4)  # sf = 0.6
    assert kth_order_sf(d, OrderSpec(1, 2), x) == pytest.approx(0.36, abs=1e-12)
    x = d.quantile(0.5)
    assert kth_order_sf(d, OrderSpec(2, 2), x) == pytest.approx(0.75, abs=1e-12)
    assert kth_order_sf(d, OrderSpec(2, 3), x) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
@pytest.mark.parametrize("n", [2, 5, 10])
def test_extremes_agree_with_binomial_sum(d, n):
    grid = [d.quantile((i + 0.5) / 50) for i in range(50)]
    for x in grid:
        assert min_order(d, n).sf(x) == pytest.approx(
            kth_order_sf(d, OrderSpec(1, n), x), abs=1e-12
        )
        assert max_order(d, n).cdf(x) == pytest.approx(
            1.0 - kth_order_sf(d, OrderSpec(n, n), x), abs=1e-12
        )


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_hazard_scaling_of_extremes(d):
    n = 4
    for p in [0.1, 0.5, 0.9]:
        t = d.quantile(p)
        assert min_order(d, n).hazard_rate(t) == pytest.approx(
            n * d.hazard_rate(t), rel=1e-8
        )
        assert max_order(d, n).reversed_hazard(t) == pytest.approx(
            n * d.reversed_hazard(t), rel=1e-8
        )


def test_kth_order_pdf_integrates_to_one():
    d = kth_order(Exponential(1), 2, 4)
    assert isinstance(d, KthOrder)
    total, _ = quad(d.pdf, 0, 50)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_kth_order_quantile_roundtrip():
    for maker in (lambda d: min_order(d, 3), lambda d: max_order(d, 3)):
        d = maker(Exponential(1))
        for p in [0.1, 0.5, 0.9]:
            assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-10)


def test_invalid_orders_rejected():
    d = Exponential(1)
    with pytest.raises(InvalidOrder):
        min_order(d, 0)
    with pytest.raises(InvalidOrder):
        max_order(d, -3)
    with pytest.raises(InvalidOrder):
        OrderSpec(0, 2)
    with pytest.raises(InvalidOrder):
        OrderSpec(3, 2)
    with pytest.raises(InvalidOrder):
        OrderSpec(1, 61)
    with pytest.raises(InvalidOrder):
        min_order(d, 61)


@pytest.mark.parametrize("k,n", [(2, 3), (2, 4), (3, 4), (4, 5), (3, 7), (10, 30)])
def test_kth_order_cdf_and_sf_relative_accuracy(k, n):
    import mpmath as mp

    d = KthOrder(Exponential(1), OrderSpec(k, n))
    with mp.workdps(40):
        for x in [1e-6, 1e-4, 1e-3, 0.1, 1.0, 5.0, 30.0]:
            F, S = -mp.expm1(-mp.mpf(x)), mp.exp(-mp.mpf(x))
            terms = [mp.binomial(n, i) * F**i * S ** (n - i) for i in range(n + 1)]
            cdf, sf = mp.fsum(terms[k:]), mp.fsum(terms[:k])
            assert abs(d.cdf(x) - cdf) <= 1e-13 * cdf, x
            assert abs(d.sf(x) - sf) <= 1e-13 * sf, x


@pytest.mark.parametrize("n", [2, 4, 7, 30])
def test_extreme_order_complements_relative_accuracy(n):
    import mpmath as mp

    lo, hi = MinOrder(Exponential(1), n), MaxOrder(Exponential(1), n)
    with mp.workdps(40):
        for x in [1e-9, 1e-6, 1e-3, 0.1, 1.0, 5.0, 30.0, 40.0]:
            F, S = -mp.expm1(-mp.mpf(x)), mp.exp(-mp.mpf(x))
            min_cdf, max_sf = 1 - S**n, 1 - F**n
            assert abs(lo.cdf(x) - min_cdf) <= 1e-13 * min_cdf, x
            assert abs(hi.sf(x) - max_sf) <= 1e-13 * max_sf, x
