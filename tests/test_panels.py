"""sf/cdf/pdf of an array and the batched qk21 panel rule, with the scalar paths as references.

Bounds:

- sf/cdf/pdf of an array against sf/cdf/pdf of each float at the same point:
  8 eps relative or 1e-15 absolute (numpy's exp/log/power may round the last
  bit otherwise than the C library, and an order statistic sums a few such
  terms); an infinite value (a density at 0 with shape < 1) exactly;
- ``integrate_panels`` against a 30-digit mpmath integral of the same panel:
  |value - reference| <= abs_error_estimate + 1e-12.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from extropy import quadrature
from extropy.distributions import (
    Affine,
    Distribution,
    Exponential,
    Mixture,
    PiecewiseBounded,
    Power,
    Support,
    Uniform,
)
from extropy.measures import dcrex, evaluate, evaluate_grid
from extropy.orderstats import KthOrder, MaxOrder, MinOrder, OrderSpec
from extropy.quadrature import integrate, integrate_panels

from conftest import ALL_FAMILIES, ids

EPS = np.finfo(np.float64).eps

ORDERS = [
    order for d in ALL_FAMILIES for order in (MinOrder(d, 3), MaxOrder(d, 4), KthOrder(d, OrderSpec(2, 5)))
]
COMPOSED = [
    Affine(PiecewiseBounded(), 0.5, 1.0),
    Mixture([(0.3, Exponential(1)), (0.7, Uniform(0, 2))]),
]
EVERY = ALL_FAMILIES + ORDERS + COMPOSED


def _ages(d):
    """Ages across the support, at and next to its ends, and beyond them."""
    lo, hi = d.support.lower, d.support.upper
    top = hi if math.isfinite(hi) else 40.0
    inner = np.linspace(lo, top, 203)
    ends = [lo, np.nextafter(lo, math.inf), 1e-300, top, np.nextafter(top, -math.inf), np.nextafter(top, math.inf)]
    return np.concatenate((inner, ends, [lo - 1.0, -0.0, 1.5 * top + 1.0], d.breakpoints))


@pytest.mark.parametrize("d", EVERY, ids=ids(EVERY))
@pytest.mark.parametrize("method", ["sf", "cdf", "pdf"])
def test_array_sf_cdf_match_scalar(d, method):
    x = _ages(d)
    got = getattr(d, method + "_array")(x)
    scalars = [getattr(d, method)(v) for v in x.tolist()]
    assert all(type(v) is float for v in scalars)
    want = np.array(scalars)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == x.shape
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    excess = np.abs(got[finite] - want[finite]) - np.maximum(8.0 * EPS * np.abs(want[finite]), 1e-15)
    assert np.all(excess <= 0.0), (x[finite][np.argmax(excess)], np.max(excess))


class _Triangular(Distribution):
    """A family whose cdf and pdf are each written once, in numpy, over a float or an array."""

    support = Support(0.0, 2.0)

    def cdf(self, x):
        y = np.clip(x, 0.0, 2.0)
        out = np.where(y <= 1.0, 0.5 * y * y, 1.0 - 0.5 * (2.0 - y) ** 2)
        return out if isinstance(x, np.ndarray) else float(out)

    def pdf(self, x):
        out = np.maximum(0.0, 1.0 - np.abs(x - 1.0))
        return out if isinstance(x, np.ndarray) else float(out)


def test_family_written_once_sweeps():
    d = _Triangular()
    x = _ages(d)
    assert d.sf_array(x).tolist() == [d.sf(v) for v in x.tolist()]
    grid = [0.2, 0.7, 1.0, 1.4, 1.9]
    for t, got in zip(grid, evaluate_grid(d, dcrex, grid)):
        want = evaluate(d, dcrex(t))
        assert abs(got.value - want.value) <= got.abs_error_estimate + want.abs_error_estimate + 1e-12


# ---------------------------------------------------------------------------
# integrate_panels against 30-digit mpmath
# ---------------------------------------------------------------------------


def _elementwise(func):
    """A panel integrand f(x, rows) from a numpy function of x."""
    return lambda x, rows: func(x)


def _reference(func, a, b):
    with mp.workdps(30):
        return [float(mp.quad(func, [mp.mpf(lo), mp.mpf(hi)])) for lo, hi in zip(a, b)]


def _assert_within_error_bars(values, errors, reference):
    for value, err, ref in zip(values, errors, reference):
        assert abs(value - ref) <= err + 1e-12, (value, ref, err)


def test_smooth_panels():
    a = np.array([0.0, 0.3, 1.0, 2.5, 7.0])
    b = np.array([0.3, 1.0, 2.5, 7.0, 30.0])
    values, errors = integrate_panels(_elementwise(lambda x: np.exp(-x) * np.cos(3.0 * x) ** 2), a, b)
    _assert_within_error_bars(values, errors, _reference(lambda x: mp.exp(-x) * mp.cos(3 * x) ** 2, a, b))


def _pb_cdf(x):
    return mp.exp(-mp.mpf(1) / 2 - 1 / x) if x <= 1 else mp.exp(-2 + x * x / 2)


def test_panels_with_an_end_at_the_kink():
    # PiecewiseBounded's cdf has a kink at x = 1: panels that end or start there
    a = np.array([0.2, 0.9, 1.0, 1.0])
    b = np.array([1.0, 1.0, 1.1, 2.0])
    d = PiecewiseBounded()
    values, errors = integrate_panels(_elementwise(lambda x: d.cdf_array(x.ravel()).reshape(x.shape) ** 4), a, b)
    _assert_within_error_bars(values, errors, _reference(lambda x: _pb_cdf(x) ** 4, a, b))


def test_near_singular_power_panels():
    # Power(1, 0.5): sf = 1 - sqrt(x) has an infinite slope at 0, and its pdf is singular there
    d = Power(1.0, 0.5)
    a = np.array([0.0, 1e-4, 0.0, 1e-6])
    b = np.array([1e-4, 0.5, 0.01, 0.1])
    values, errors = integrate_panels(_elementwise(lambda x: d.sf_array(x.ravel()).reshape(x.shape) ** 2), a[:2], b[:2])
    _assert_within_error_bars(values, errors, _reference(lambda x: (1 - mp.sqrt(x)) ** 2, a[:2], b[:2]))
    values, errors = integrate_panels(_elementwise(lambda x: 0.5 / np.sqrt(x)), a[2:], b[2:])
    _assert_within_error_bars(values, errors, _reference(lambda x: 1 / (2 * mp.sqrt(x)), a[2:], b[2:]))


def test_rows_name_each_nodes_panel():
    # a per-panel parameter, read through rows, also after bisection
    scale = np.array([1.0, 2.0, 5.0])
    a, b = np.zeros(3), np.full(3, 4.0)
    values, errors = integrate_panels(lambda x, rows: np.exp(-scale[rows, None] * x**2), a, b)
    ref = [float(mp.sqrt(mp.pi / s) / 2 * mp.erf(4 * mp.sqrt(s))) for s in scale]
    _assert_within_error_bars(values, errors, ref)


def test_empty_and_zero_width_panels_integrate_to_zero():
    values, errors = integrate_panels(_elementwise(np.exp), np.array([]), np.array([]))
    assert values.shape == errors.shape == (0,)
    values, errors = integrate_panels(_elementwise(np.exp), np.array([1.0, 2.0]), np.array([1.0, 1.5]))
    assert values.tolist() == [0.0, 0.0] and errors.tolist() == [0.0, 0.0]


def test_open_panels_fall_back_to_scalar_integrate(monkeypatch):
    calls = []

    def spy(f, a, b, points=()):
        calls.append((a, b))
        return integrate(f, a, b, points)

    monkeypatch.setattr(quadrature, "integrate", spy)
    # sqrt has an infinite slope at 0: one qk21 pass cannot meet the target there
    a, b = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    values, errors = integrate_panels(_elementwise(np.sqrt), a, b, max_depth=0)
    assert calls == [(0.0, 1.0)]
    assert values[0] == pytest.approx(2.0 / 3.0, abs=errors[0] + 1e-15)
    assert values[1] == pytest.approx(2.0 / 3.0 * (2.0**1.5 - 1.0), abs=errors[1] + 1e-15)
    # a smooth integrand settles in the batched passes
    calls.clear()
    integrate_panels(_elementwise(lambda x: np.exp(-x)), a, b)
    assert calls == []
