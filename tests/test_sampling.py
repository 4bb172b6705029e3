"""Array-valued quantiles and one-pass sampling, with the scalar path as the reference.

A float goes through the array formulas as a one-element array, so every
element x = quantile(u[i]) of an array equals the quantile of the float u[i]
bit for bit: the closed forms, and the base class's bracketed Newton inverse
too, whose elements each keep their own bracket.  That inverse is checked
against a 40-digit mpmath root, down to 1e-12 from either end.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from extropy.distributions import (
    GPD,
    Affine,
    Distribution,
    Exponential,
    FoldedCramer,
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


# --- the base class's inverse against a 40-digit root -----------------------


def _mp_two_exp_max(x):
    return (1 - mp.exp(-x)) * (1 - mp.exp(-2 * x))


def _mp_exponential(x):
    return 1 - mp.exp(-x)


def _mp_mixture(x):
    # decimal weights, whose cdf + sf is 1; the float weights sum to 1 - 5.6e-17,
    # which would move the root of cdf = p off that of sf = 1 - p by 5.6e-17 / pdf
    return mp.mpf("0.3") * (1 - mp.exp(-x)) + mp.mpf("0.7") * min(x / 2, mp.mpf(1))


def _mp_kth(parent, k, n):
    def cdf(x):
        F = parent(x)
        return 1 - sum(mp.binomial(n, i) * F**i * (1 - F) ** (n - i) for i in range(k))

    return cdf


#: (distribution, its cdf in mpmath): the base-class inverses of BISECTIONS with no closed-form parent step
ORACLES = [
    (BISECTIONS[0], _mp_two_exp_max),
    (BISECTIONS[4], _mp_mixture),
    (BISECTIONS[5], _mp_kth(_mp_exponential, 2, 5)),
    (BISECTIONS[6], _mp_kth(_mp_two_exp_max, 3, 4)),
]

#: both ends, both sides of 1/2, and the two tail cases where a cdf bisection lost 1e-5 and 1e-7
TAIL_P = [1e-12, 1e-6, 0.25, 0.5, math.nextafter(0.5, 1), 0.75, 1 - 1e-6, 1 - 1e-12, 1 - 5.2e-12, 1 - 2.6e-10]


def _mp_root(cdf, p):
    """The x where the mpmath cdf reaches p, by 200 bisections of [0, 64] at 40 digits."""
    with mp.workdps(40):
        p, lo, hi = mp.mpf(p), mp.mpf(0), mp.mpf(64)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if cdf(mid) < p else (lo, mid)
        return lo


def _g(d, p, x):
    """The function the inverse brackets: cdf(x) - p up to p = 1/2, (1 - p) - sf(x) above."""
    return d.cdf(x) - p if p <= 0.5 else (1.0 - p) - d.sf(x)


@pytest.mark.parametrize("d,cdf", ORACLES, ids=ids([d for d, _ in ORACLES]))
def test_inverse_is_within_atol_of_a_40_digit_root_at_both_ends(d, cdf):
    for p in TAIL_P:
        x = d.quantile(p)
        assert abs(mp.mpf(x) - _mp_root(cdf, p)) <= 1e-12, p
        assert _g(d, p, x - 0.5e-12) < 0 <= _g(d, p, x + 0.5e-12), p


def test_inverse_takes_the_left_end_of_a_flat_stretch():
    # the pdf is 0 in the gap (1, 2), where Newton has no slope and bisects
    d = Mixture([(0.5, Uniform(0, 1)), (0.5, Uniform(2, 3))])
    got = d.quantile(np.array([0.25, 0.5, 0.75]))
    assert np.allclose(got, [0.5, 1.0, 2.5], rtol=0.0, atol=1e-12)


def test_inverse_ends_past_x_8192_where_adjacent_floats_are_wider_than_atol():
    # a bisection to a 1e-12 bracket never ends there: its midpoint is one of its ends
    d = KthOrder(FoldedCramer(1e-3), OrderSpec(2, 3))
    for p in (0.99, 1 - 1e-9):
        x = d.quantile(p)
        assert x > 8192
        assert _g(d, p, math.nextafter(x, 0)) < 0 <= _g(d, p, math.nextafter(x, math.inf))


class _Counting(Distribution):
    """d, counting its cdf, sf and pdf calls and the elements they evaluate; its quantile is the base class's."""

    def __init__(self, d):
        self.d = d
        self.calls = dict.fromkeys(("cdf", "sf", "pdf"), 0)
        self.elements = 0

    @property
    def support(self):
        return self.d.support

    def _count(self, name, x):
        self.calls[name] += 1
        self.elements += x.size
        return getattr(self.d, name)(x)

    def cdf(self, x):
        return self._count("cdf", x)

    def sf(self, x):
        return self._count("sf", x)

    def pdf(self, x):
        return self._count("pdf", x)


def _bisection_rounds(d, p):
    """The rounds a bisection of cdf(x) - p takes from the inverse's first bracket down to atol."""
    hi = max(d.support.lower + 1.0, 1.0)
    while d.cdf(hi) < p:
        hi = d.support.lower + 2.0 * (hi - d.support.lower)
    lo, rounds = d.support.lower, 0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if d.cdf(mid) < p else (lo, mid)
        rounds += 1
    return rounds


def test_inverse_bisects_where_newton_creeps():
    # cdf ~ x^5 near 0: each Newton step there covers a fifth of the way
    d = KthOrder(Exponential(1), OrderSpec(5, 5))
    counting = _Counting(d)
    x = counting.quantile(1e-15)
    with mp.workdps(40):
        assert abs(x - -mp.log(1 - mp.mpf(1e-15) ** (mp.mpf(1) / 5))) <= 1e-12
    # every round evaluates pdf once; the bracket's growth and the close probes do not
    assert counting.calls["pdf"] <= _bisection_rounds(d, 1e-15) == 40


def test_inverse_of_many_uniforms_takes_few_rounds_and_a_third_of_the_evaluations():
    u = np.random.default_rng(1).uniform(size=10_000)
    counting = _Counting(TwoExpMax())
    assert np.array_equal(counting.quantile(u), TwoExpMax().quantile(u))
    assert counting.calls["pdf"] <= 25
    # a bisection evaluated the cdf of the whole array 49 times
    assert counting.elements <= 49 * u.size / 3
