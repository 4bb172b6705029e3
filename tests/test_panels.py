"""sf/cdf/pdf of an array and the batched qk21 panel rule, with the scalar paths as references.

Bounds:

- sf/cdf/pdf of an array against sf/cdf/pdf of each float at the same point:
  bit for bit, since a float goes through the array formulas as a
  one-element array;
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
from extropy.errors import DivergentIntegral, ExtropyError
from extropy.measures import dcrex, evaluate, evaluate_grid
from extropy.orderstats import KthOrder, MaxOrder, MinOrder, OrderSpec
from extropy.quadrature import integrate_panels

from conftest import ALL_FAMILIES, ids

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
    got = getattr(d, method)(x)
    scalars = [getattr(d, method)(v) for v in x.tolist()]
    assert all(type(v) is float for v in scalars)
    want = np.array(scalars)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == x.shape
    differ = _bits(got) != _bits(want)
    assert not differ.any(), (x[differ], got[differ] - want[differ])


@pytest.mark.parametrize("d", EVERY, ids=ids(EVERY))
def test_float_quantile_is_the_one_element_array_quantile(d):
    for p in [1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6, 1 - 1e-12]:
        got = d.quantile(p)
        assert type(got) is float
        assert _bits(got) == _bits(d.quantile(np.array([p]))), p


def _interior(d):
    """Points strictly inside the support, and the groups of them on one side of each breakpoint."""
    lo, hi = d.support.lower, d.support.upper
    top = hi if math.isfinite(hi) else 40.0
    inner = np.concatenate((np.linspace(lo, top, 203)[1:-1], [np.nextafter(lo, math.inf), np.nextafter(top, -math.inf)]))
    if not math.isfinite(hi):
        inner = np.concatenate((inner, [1e3, 1e300]))
    groups = [inner]
    for p in d.breakpoints:
        groups += [inner[inner <= p], inner[inner > p]]
    return groups


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("d", EVERY, ids=ids(EVERY))
@pytest.mark.parametrize("method", ["sf", "cdf", "pdf"])
def test_interior_points_alone_equal_them_in_a_mixed_array_bit_for_bit(d, method):
    # the interior alone takes the whole-array path, the mixed array the masked one
    lo, hi = d.support.lower, d.support.upper
    outside = [lo, hi, lo - 1.0, hi + 1.0 if math.isfinite(hi) else -math.inf, math.nan]
    g = getattr(d, method)
    for inner in _interior(d):
        with np.errstate(over="ignore"):  # far out in a tail t**theta overflows, as in _levels
            alone = g(inner)
            mixed = g(np.concatenate((outside, inner)))
            strided = g(np.repeat(inner, 2)[::2])
        assert alone.shape == inner.shape and not np.shares_memory(alone, inner)
        assert np.array_equal(_bits(alone), _bits(mixed[len(outside) :]))
        assert np.array_equal(_bits(alone), _bits(strided))
        assert math.isnan(mixed[len(outside) - 1])


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4), (0,)])
def test_uniform_pdf_keeps_the_array_shape(shape):
    x = np.full(shape, 0.5)
    got = Uniform(0.0, 2.0).pdf(x)
    assert isinstance(got, np.ndarray) and got.shape == shape and got.dtype == np.float64
    assert np.all(got == 0.5) and not np.shares_memory(got, x)


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
    assert d.sf(x).tolist() == [d.sf(v) for v in x.tolist()]
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
    values, errors = integrate_panels(_elementwise(lambda x: d.cdf(x.ravel()).reshape(x.shape) ** 4), a, b)
    _assert_within_error_bars(values, errors, _reference(lambda x: _pb_cdf(x) ** 4, a, b))


def test_near_singular_power_panels():
    # Power(1, 0.5): sf = 1 - sqrt(x) has an infinite slope at 0, and its pdf is singular there
    d = Power(1.0, 0.5)
    a = np.array([0.0, 1e-4, 0.0, 1e-6])
    b = np.array([1e-4, 0.5, 0.01, 0.1])
    values, errors = integrate_panels(_elementwise(lambda x: d.sf(x.ravel()).reshape(x.shape) ** 2), a[:2], b[:2])
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


def test_open_panels_go_to_the_end_rule(monkeypatch):
    held = []
    rule = quadrature._end_rule

    def spy(f, pieces, *args):
        held.extend(np.unique(pieces[0]).tolist())
        return rule(f, pieces, *args)

    monkeypatch.setattr(quadrature, "_end_rule", spy)
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 0)
    # sqrt has an infinite slope at 0: one qk21 pass cannot meet the target there
    a, b = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    values, errors = integrate_panels(_elementwise(np.sqrt), a, b)
    assert held == [0.0]
    assert values[0] == pytest.approx(2.0 / 3.0, abs=errors[0] + 1e-15)
    assert values[1] == pytest.approx(2.0 / 3.0 * (2.0**1.5 - 1.0), abs=errors[1] + 1e-15)
    # a smooth integrand settles in the batched passes
    held.clear()
    integrate_panels(_elementwise(lambda x: np.exp(-x)), a, b)
    assert held == []


def test_end_rule_reads_both_ends_and_mapped_tails():
    # x^-1/2 toward an upper end and a cut, a tail x^-3/2 (u^-1/2 once mapped),
    # and x^-1/2 at the finite end x = 0 of a tail (u = 1 once mapped)
    values, errors = integrate_panels(_elementwise(lambda x: 0.5 / np.sqrt(np.abs(1.0 - x))), [0.0], [2.0], [1.0])
    _assert_within_error_bars(values, errors, [2.0])
    values, errors = integrate_panels(_elementwise(lambda x: 0.5 * (1.0 + x) ** -1.5), [0.0], [math.inf])
    _assert_within_error_bars(values, errors, [1.0])
    values, errors = integrate_panels(_elementwise(lambda x: 0.5 * np.exp(-x) / np.sqrt(x)), [0.0], [math.inf])
    _assert_within_error_bars(values, errors, [math.sqrt(math.pi) / 2])


@pytest.mark.parametrize(
    "func,a,b,points,error",
    [
        (lambda x: 1.0 / x, 0.0, 1.0, (), DivergentIntegral),  # log divergence: every ratio is 1
        (lambda x: 1.0 / np.abs(x - 1.0), 0.0, 2.0, (1.0,), DivergentIntegral),
        (lambda x: 1.0 / (1.0 + x), 0.0, math.inf, (), DivergentIntegral),
        # 1/(x log^2 x) converges, but its ratios creep up to 1 and are never steady
        (lambda x: 1.0 / (x * np.log(x) ** 2), 0.0, 0.5, (), ExtropyError),
    ],
)
def test_end_rule_rejects_what_it_cannot_close(func, a, b, points, error):
    with pytest.raises(error, match="diverges at" if error is DivergentIntegral else "not resolved"):
        integrate_panels(_elementwise(func), [a], [b], points)


# ---------------------------------------------------------------------------
# qk21 batch invariance: a row alone gets the bits it gets in a batch
# ---------------------------------------------------------------------------


def _random_pieces(m, rng):
    """m qk21 pieces (row, mapped, lo, hi, origin) over several scales; about a fifth of them mapped."""
    lo = rng.uniform(0.0, 5.0, m) * 10.0 ** rng.integers(-3, 3, m)
    hi = lo + rng.uniform(1e-3, 3.0, m)
    mapped = rng.random(m) < 0.2
    origin = np.where(mapped, lo, 0.0)
    lo, hi = np.where(mapped, rng.uniform(0.0, 0.5, m), lo), np.where(mapped, rng.uniform(0.5, 1.0, m), hi)
    return np.stack([np.arange(m, dtype=np.float64), mapped.astype(np.float64), lo, hi, origin])


def _bumpy(x, rows):
    return np.exp(-x) * (1.0 + np.sin(3.0 * x + rows[:, None])) + 1e-3 * x


INTEGRANDS = {
    "c-order": _bumpy,
    "fortran-order": lambda x, rows: np.asfortranarray(_bumpy(x, rows)),
    "transposed": lambda x, rows: np.ascontiguousarray(_bumpy(x, rows).T).T,
}


@pytest.mark.parametrize("layout", list(INTEGRANDS))
@pytest.mark.parametrize("m", [1, 2, 7, 640, 3000])
def test_qk21_rows_alone_equal_rows_in_a_batch(m, layout):
    f = INTEGRANDS[layout]
    pieces = _random_pieces(m, np.random.default_rng(m))
    values, errors = quadrature._qk21(f, pieces)
    for j in range(m):
        value, error = quadrature._qk21(f, pieces[:, j : j + 1])
        assert (value[0], error[0]) == (values[j], errors[j]), (j, value[0] - values[j], error[0] - errors[j])
