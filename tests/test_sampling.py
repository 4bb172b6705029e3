"""Array-valued quantiles and one-pass sampling, with the scalar path as the reference.

A float goes through the array formulas as a one-element array, so every
element x = quantile(u[i]) of an array equals the quantile of the float u[i]
bit for bit: the closed forms, and the bisections too, whose elements each
keep their own bracket.
"""

import math

import numpy as np
import pytest

from extropy.distributions import (
    GPD,
    Affine,
    Exponential,
    Mixture,
    Pareto,
    PiecewiseBounded,
    TwoExpMax,
    Uniform,
    Weibull,
)
from extropy.errors import QuantileOutOfRange
from extropy.estimators import SampleSet, draw_samples
from extropy.orderstats import KthOrder, MaxOrder, MinOrder, OrderSpec

from conftest import ALL_FAMILIES, ids

_rng = np.random.default_rng(20260)
U = np.concatenate(
    [
        _rng.uniform(size=400),
        10.0 ** -_rng.uniform(1.0, 12.0, size=100),  # near 0
        1.0 - 10.0 ** -_rng.uniform(1.0, 12.0, size=100),  # near 1
        [1e-12, 1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12],
    ]
)

CLOSED_FORMS = [d for d in ALL_FAMILIES if not isinstance(d, TwoExpMax)] + [
    GPD(1.5, 1e-11),
    GPD(1.5, -5e-10),
    Affine(Weibull(1, 2), 2.0, 0.5),
    Affine(PiecewiseBounded(), 0.5, 1.0),
    MinOrder(Exponential(1), 4),
    MinOrder(PiecewiseBounded(), 3),
    MinOrder(Weibull(2, 0.5), 5),
    MaxOrder(Exponential(1), 3),
    MaxOrder(Pareto(1, 2), 4),
    MaxOrder(Uniform(2, 5), 2),
]

BISECTIONS = [
    TwoExpMax(),
    Affine(TwoExpMax(), 1.5, 1.0),
    MinOrder(TwoExpMax(), 4),
    MaxOrder(TwoExpMax(), 3),
    Mixture([(0.3, Exponential(1)), (0.7, Uniform(0, 2))]),
    KthOrder(Exponential(1), OrderSpec(2, 5)),
    KthOrder(TwoExpMax(), OrderSpec(3, 4)),
]


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("d", CLOSED_FORMS + BISECTIONS, ids=ids(CLOSED_FORMS + BISECTIONS))
def test_array_quantile_matches_scalar(d):
    got = d.quantile(U)
    want = np.array([d.quantile(float(p)) for p in U])
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == U.shape
    differ = _bits(got) != _bits(want)
    assert not differ.any(), (U[differ], got[differ] - want[differ])


@pytest.mark.parametrize("d", ALL_FAMILIES + BISECTIONS, ids=ids(ALL_FAMILIES + BISECTIONS))
def test_scalar_quantile_returns_float(d):
    assert type(d.quantile(0.3)) is float


@pytest.mark.parametrize(
    "d", [Exponential(1), PiecewiseBounded(), TwoExpMax(), MaxOrder(Exponential(1), 3), BISECTIONS[-1]]
)
@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf])
def test_array_quantile_rejects_p_outside_unit_interval(d, bad):
    with pytest.raises(QuantileOutOfRange):
        d.quantile(np.array([0.2, bad, 0.7]))


@pytest.mark.parametrize(
    "d", [Exponential(0.7), Weibull(2, 0.5), PiecewiseBounded(), TwoExpMax(), MaxOrder(Pareto(1, 2), 3)]
)
def test_draw_samples_is_sorted_scalar_quantiles_of_the_same_stream(d):
    m, seed = 3000, 11
    u = np.random.default_rng(seed).uniform(size=m)
    reference = np.sort([d.quantile(float(p)) for p in u])
    s = draw_samples(d, m, seed)
    assert s.values.shape == (m,)
    assert np.array_equal(_bits(s.values), _bits(reference))


def test_sample_values_are_a_read_only_copy():
    given = np.array([1.0, 2.0, 3.0])
    s = SampleSet(given)
    given[0] = 0.5
    assert s.values.dtype == np.float64 and s.values.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        s.values[0] = 0.0
    with pytest.raises(ValueError):
        SampleSet.from_values([3.0, 1.0]).values.sort()
