"""Batched evaluation: every batch element is ``evaluate`` bit for bit, and within its error bar.

The engine (``quadrature.integrate_panels``) promises that an integral's
result does not depend on the other integrals in its batch.  So:

- every element of ``_batch_arrays`` (and ``curve``, ``reproduce_figure``)
  must equal ``evaluate`` of its kind alone, exactly, value and error
  estimate, or raise there what ``evaluate`` raises;
- against a 20-digit mpmath integral of the same measure,
  |value - reference| <= abs_error_estimate + 1e-12, for the 17 bundle
  families and their min of 3, max of 3 and 2-of-4 orders, an affine map
  and a mixture, infinite upper ends (QAGI map) and singular endpoints
  included, in a batch and in the panel sweep of ``evaluate_grid``, and for
  integrals that the batched passes leave open and the engine's end rule
  extrapolates;
- an integral that diverges at an end raises ``DivergentIntegral``, alone
  and in a batch.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from extropy import measures, quadrature
from extropy.cli import reproduce_figure
from extropy.distributions import (
    GPD,
    Affine,
    Exponential,
    FiniteRange,
    FoldedCramer,
    Mixture,
    Pareto,
    PiecewiseBounded,
    Power,
    TwoExpMax,
    Uniform,
    Weibull,
    _degenerate,
)
from extropy.errors import DegenerateHead, DegenerateTail, DivergentIntegral
from extropy.measures import (
    Curve,
    MeasureKind,
    MeasureValue,
    cpen,
    cpex,
    cpex_max,
    cren,
    crex_min,
    curve,
    dcpex,
    dcpex_max,
    dcrex,
    dcrex_min,
    evaluate,
    evaluate_grid,
    extropy,
)
from extropy.orderstats import kth_order, max_order, min_order

from conftest import ALL_FAMILIES

SLACK = 1e-12

ORDERS = {
    "plain": lambda d: d,
    "min3": lambda d: min_order(d, 3),
    "max3": lambda d: max_order(d, 3),
    "2of4": lambda d: kth_order(d, 2, 4),
}
CASES = [(d, order) for d in ALL_FAMILIES for order in ORDERS]
CASE_IDS = [f"{d!r}-{order}" for d, order in CASES]


def _kinds(d):
    """Every kind, at the parent's 0.1/0.5/0.9 quantiles and, on a bounded support, past its end.

    Left out: extropy where the density is singular at the lower end, and
    cren where the mean is infinite; those integrals diverge.
    """
    ages = [d.quantile(p) for p in (0.1, 0.5, 0.9)]
    kinds = [crex_min(1), crex_min(3)]
    if math.isfinite(d.pdf(d.support.lower)):
        kinds.append(extropy())
    if d.has_finite_mean:
        kinds.append(cren())
    kinds += [make(t) for t in ages for make in (dcrex, lambda t: dcrex_min(2, t))]
    if d.support.bounded:
        ages.append(d.support.upper + 0.5)
        kinds += [cpen(), cpex(), cpex_max(2)]
        kinds += [make(t) for t in ages for make in (dcpex, lambda t: dcpex_max(2, t), dcrex)]
    return kinds


def _alone(d, kind, force_quadrature=False):
    try:
        return evaluate(d, kind, force_quadrature=force_quadrature)
    except (DegenerateTail, DegenerateHead) as exc:
        return exc


def _batch(d, kinds, force_quadrature=False):
    """The elements of ``_batch_arrays``: a ``MeasureValue``, or the error ``evaluate`` raises at a degenerate age."""
    results = measures._batch_arrays(d, kinds, force_quadrature)
    value, error, closed, degenerate = (field.tolist() for field in results)
    return [
        _degenerate(kind.name in measures.RESIDUAL_KINDS, kind.t)
        if dg
        else MeasureValue(v, "closed-form" if cf else "quadrature", e)
        for kind, v, e, cf, dg in zip(kinds, value, error, closed, degenerate)
    ]


def _same(got, want):
    """The same value and error estimate by hex and the same method, or the same error type and message."""
    if isinstance(want, MeasureValue):
        return (
            isinstance(got, MeasureValue)
            and got.method == want.method
            and got.value.hex() == want.value.hex()
            and got.abs_error_estimate.hex() == want.abs_error_estimate.hex()
        )
    return type(got) is type(want) and str(got) == str(want)


@pytest.mark.parametrize("d,order", CASES, ids=CASE_IDS)
def test_batch_elements_equal_evaluate_bit_for_bit(d, order):
    od = ORDERS[order](d)
    kinds = _kinds(d)
    for force in (False, True):
        batch = _batch(od, kinds, force)
        # reversed, so that each integral has other neighbours in the batch
        backwards = _batch(od, kinds[::-1], force)[::-1]
        for kind, got, again in zip(kinds, batch, backwards):
            want = _alone(od, kind, force)
            assert _same(got, want), (kind, got, want)
            assert _same(again, want), (kind, again, want)


#: every (family, static kind, n <= 3) with a catalog entry
STATIC_CLOSED = [
    (d, MeasureKind(name, n))
    for d in ALL_FAMILIES
    for name in ("crex", "crex-min", "cpex", "cpex-max")
    for n in (1, 2, 3)
    if measures._catalog_entry(d, name, n) is not None
]


def test_static_closed_forms_equal_the_batch_bit_for_bit(monkeypatch):
    assert len({type(d) for d, _ in STATIC_CLOSED}) == 8
    batches = [_batch(d, [kind])[0] for d, kind in STATIC_CLOSED]
    # evaluate returns a static closed form without the arrays
    monkeypatch.setattr(measures, "_evaluate_arrays", None)
    for (d, kind), want in zip(STATIC_CLOSED, batches):
        got = evaluate(d, kind)
        assert got.method == want.method == "closed-form", (d, kind)
        assert type(got.value) is type(want.value) is float, (d, kind)
        assert got.value.hex() == want.value.hex() and got.abs_error_estimate.hex() == want.abs_error_estimate.hex()


#: every (family, dynamic kind, n <= 3) with a catalog entry, and the support end its static kind reads
DYNAMIC_CLOSED = [
    (d, static, dynamic, n, d.support.lower if static.startswith("cr") else d.support.upper)
    for d in ALL_FAMILIES
    for static, dynamic in (("crex", "dcrex"), ("crex-min", "dcrex-min"), ("cpex", "dcpex"), ("cpex-max", "dcpex-max"))
    for n in (1, 2, 3)
    if measures._catalog_entry(d, dynamic, n) is not None
]


@pytest.mark.parametrize(
    "d,static,dynamic,n,end", DYNAMIC_CLOSED, ids=[f"{d!r}-{s}-{n}" for d, s, _, n, _ in DYNAMIC_CLOSED]
)
def test_static_closed_form_is_the_dynamic_one_at_the_support_end(d, static, dynamic, n, end):
    got, want = evaluate(d, MeasureKind(static, n)), evaluate(d, MeasureKind(dynamic, n, end))
    assert got.method == want.method == "closed-form"
    assert got.value.hex() == want.value.hex()


def _pointwise_curve(d, kind_for_t, grid):
    """The ``Curve`` that ``evaluate`` at every age gives: its values, and the ages where it raises."""
    ts, values, skipped = [], [], []
    for t in grid:
        result = _alone(d, kind_for_t(t))
        if isinstance(result, MeasureValue):
            ts.append(t)
            values.append(result.value)
        else:
            skipped.append(t)
    return Curve(tuple(ts), tuple(values), tuple(skipped))


def _curve_grid(d):
    """Ages below, inside and beyond the support: degenerate on one side or the other, closed form or not."""
    lo, hi = d.support.lower, d.support.upper
    inside = [d.quantile(p) for p in (0.05, 0.3, 0.5, 0.7, 0.95)]
    beyond = [hi, hi + 0.5] if d.support.bounded else [1e15]
    return sorted({lo - 0.5, lo, *inside, *beyond})


def test_curve_and_figures_equal_evaluate_bit_for_bit():
    d = kth_order(Weibull(1.3, 1.6), 2, 3)
    grid = list(np.linspace(0.05, 3.0, 60))
    cv = curve(d, dcrex, grid)
    assert cv.values == tuple(evaluate(d, dcrex(t)).value for t in grid)
    for family in ALL_FAMILIES:
        grid = _curve_grid(family)
        kinds = [dcrex, lambda t: dcrex_min(2, t)]
        if family.support.bounded:
            kinds += [dcpex, lambda t: dcpex_max(2, t)]
        for od in (family, kth_order(family, 2, 4)):
            for kind_for_t in kinds:
                got, want = curve(od, kind_for_t, grid), _pointwise_curve(od, kind_for_t, grid)
                assert got == want and [v.hex() for v in got.values] == [v.hex() for v in want.values], (od, grid)
    us, values = reproduce_figure("2.1", points=40)
    assert values == [evaluate(TwoExpMax(), dcrex(-math.log(u))).value for u in us]
    ts, values = reproduce_figure("3.1", points=40)
    assert values == [evaluate(PiecewiseBounded(), dcpex(t)).value for t in ts]
    # the figures' values raise at the first degenerate age, as evaluate does
    with pytest.raises(DegenerateTail, match=r"^sf\(1\.0\) is zero$"):
        measures._evaluate_group(Uniform(0, 1), "dcrex", 1, [0.5, 1.0, 2.0])


# ---------------------------------------------------------------------------
# Error bars against a 20-digit oracle
# ---------------------------------------------------------------------------


def _mp_sf(d):
    """The family's sf in mpmath arithmetic (x >= 0), or of an affine map or a mixture of them."""
    if isinstance(d, Affine):
        base = _mp_sf(d.base)
        return lambda x: base((x - d.shift) / mp.mpf(d.scale))
    if isinstance(d, Mixture):
        parts = [(w, _mp_sf(c)) for w, c in d.components]
        return lambda x: sum(w * sf(x) for w, sf in parts)
    if isinstance(d, Uniform):
        return lambda x: mp.mpf(1) if x <= d.a else (mp.mpf(0) if x >= d.b else (d.b - x) / mp.mpf(d.b - d.a))
    if isinstance(d, FiniteRange):
        return lambda x: (1 - d.a * x) ** d.b if x < 1 / mp.mpf(d.a) else mp.mpf(0)
    if isinstance(d, Weibull):
        return lambda x: mp.exp(-d.lam * x**d.theta)
    if isinstance(d, Exponential):
        return lambda x: mp.exp(-d.lam * x)
    if isinstance(d, FoldedCramer):
        return lambda x: 1 / (1 + d.theta * x)
    if isinstance(d, Pareto):
        return lambda x: (d.lam / (x + d.lam)) ** d.theta
    if isinstance(d, GPD):
        end = -mp.mpf(d.theta) / d.lam if d.lam < 0 else mp.inf
        return lambda x: (1 + d.lam * x / mp.mpf(d.theta)) ** (-(1 + mp.mpf(d.lam)) / d.lam) if x < end else mp.mpf(0)
    if isinstance(d, Power):
        return lambda x: 1 - (x / mp.mpf(d.b)) ** d.c if x < d.b else mp.mpf(0)
    if isinstance(d, TwoExpMax):
        return lambda x: mp.exp(-x) + mp.exp(-2 * x) - mp.exp(-3 * x)
    assert isinstance(d, PiecewiseBounded)

    def sf(x):
        if x <= 1:
            return 1 - mp.exp(-mp.mpf(1) / 2 - 1 / x)
        return 1 - mp.exp(-2 + x * x / 2) if x < 2 else mp.mpf(0)

    return sf


def _mp_order_sf(d, order):
    sf = _mp_sf(d)
    if order == "plain":
        return sf
    if order == "min3":
        return lambda x: sf(x) ** 3
    if order == "max3":
        return lambda x: 1 - (1 - sf(x)) ** 3
    return lambda x: sf(x) ** 4 + 4 * (1 - sf(x)) * sf(x) ** 3


def _reference(d, order, kind):
    """-1/2 int (G/G(t))^2 of the order's sf (residual kinds) or cdf (past kinds), split at the kinks."""
    sf = _mp_order_sf(d, order)
    lo, hi = mp.mpf(d.support.lower), mp.mpf(d.support.upper) if d.support.bounded else mp.inf
    residual = kind.name.startswith(("crex", "dcrex"))
    g = sf if residual else (lambda x: 1 - sf(x))
    a, b = lo, hi
    if kind.t is not None:
        a, b = (mp.mpf(kind.t), hi) if residual else (lo, mp.mpf(kind.t))
    level = g(mp.mpf(kind.t)) if kind.t is not None else 1
    inner = [mp.mpf(p) for p in d.breakpoints if a < p < b]
    return float(-mp.quad(lambda x: (g(x) / level) ** (2 * kind.n), [a, *inner, b]) / 2)


#: the bundle's cases, an affine map with a kink and a mixture with a kink and a tail
ORACLE_CASES = CASES + [
    (Affine(PiecewiseBounded(), 2.0, 1.0), "2of4"),
    (Mixture([(0.4, Exponential(2)), (0.6, Uniform(0, 1))]), "min3"),
]


@pytest.mark.parametrize("d,order", ORACLE_CASES, ids=[f"{d!r}-{order}" for d, order in ORACLE_CASES])
def test_error_bars_hold_against_mpmath(d, order):
    od = ORDERS[order](d)
    kinds = [crex_min(1), dcrex(d.quantile(0.5))]
    sides = [dcrex]
    if d.support.bounded:
        kinds += [cpex_max(1), dcpex(d.quantile(0.5))]
        sides.append(dcpex)
    ages = [d.quantile(0.25), d.quantile(0.75)]
    with mp.workdps(20):
        for kind, mv in zip(kinds, _batch(od, kinds, force_quadrature=True)):
            ref = _reference(d, order, kind)
            assert abs(mv.value - ref) <= mv.abs_error_estimate + SLACK, (kind, mv, ref)
        # the panel sweep: closed forms where the catalog has them, short panels otherwise
        for make in sides:
            for t, mv in zip(ages, evaluate_grid(od, make, ages)):
                ref = _reference(d, order, make(t))
                assert abs(mv.value - ref) <= mv.abs_error_estimate + SLACK, (make(t), mv, ref)


def _spy_end_rule(monkeypatch):
    """Record the rows of every integral that reaches the engine's end rule."""
    rows = []
    rule = quadrature._end_rule

    def spy(f, held, *args):
        rows.extend(np.unique(held[0]).tolist())
        return rule(f, held, *args)

    monkeypatch.setattr(quadrature, "_end_rule", spy)
    return rows


def test_end_rule_integrals_hold_their_error_bars(monkeypatch):
    # two batched passes cannot resolve sqrt-type endpoint singularities, so
    # every one of these goes to the end rule
    rows = _spy_end_rule(monkeypatch)
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 2)
    cases = [(Power(3, 0.5), "plain"), (Weibull(2, 0.5), "min3"), (Power(3, 0.5), "2of4")]
    with mp.workdps(20):
        for d, order in cases:
            od, kinds = ORDERS[order](d), [crex_min(1), crex_min(2)]
            for kind, mv in zip(kinds, _batch(od, kinds)):
                assert _same(mv, evaluate(od, kind))
                ref = _reference(d, order, kind)
                assert abs(mv.value - ref) <= mv.abs_error_estimate + SLACK, (d, order, kind, mv, ref)
    # each batch of two and each kind alone
    assert len(rows) == 4 * len(cases)


def _power_min_extropy(b, c, n):
    """Extropy of the min of n draws of Power(b, c): -(n^2 c / 2b) B(2 - 1/c, 2n - 1), in 30 digits."""
    with mp.workdps(30):
        return float(-(n * n * mp.mpf(c) / (2 * b)) * mp.beta(2 - 1 / mp.mpf(c), 2 * n - 1))


def _weibull_extropy(theta):
    """Extropy of Weibull(1, theta): -theta Gamma(2 - 1/theta) / 2^(3 - 1/theta), in 30 digits."""
    with mp.workdps(30):
        return float(-mp.mpf(theta) * mp.gamma(2 - 1 / mp.mpf(theta)) / 2 ** (3 - 1 / mp.mpf(theta)))


def _weibull_min_crex(lam, theta, n, k):
    """crex-min(k) of the min of n draws of Weibull(lam, theta): -Gamma(1 + 1/theta) / (2 (2 k n lam)^(1/theta))."""
    with mp.workdps(30):
        return float(-mp.gamma(1 + 1 / mp.mpf(theta)) / (2 * (2 * k * n * mp.mpf(lam)) ** (1 / mp.mpf(theta))))


def _weibull_cren(lam, theta):
    """cren of Weibull(lam, theta): Gamma(1 + 1/theta) / (theta lam^(1/theta)), in 30 digits."""
    with mp.workdps(30):
        return float(mp.gamma(1 + 1 / mp.mpf(theta)) / (mp.mpf(theta) * mp.mpf(lam) ** (1 / mp.mpf(theta))))


#: (distribution, kind, reference): integrable endpoint singularities the batched passes leave open
EXTRAPOLATED = [
    *[(Power(3, c), extropy(), _power_min_extropy(3, c, 1)) for c in (0.55, 0.75, 0.9)],
    (Weibull(1, 0.75), extropy(), _weibull_extropy(0.75)),
    (min_order(Power(3, 0.75), 3), extropy(), _power_min_extropy(3, 0.75, 3)),
    # the mass sits within 1e-9 of x = 0, the finite end of the mapped tail [0, inf)
    (min_order(Weibull(7, 0.17), 3), crex_min(2), _weibull_min_crex(7, 0.17, 3, 2)),
    (Weibull(0.1, 0.1), cren(), _weibull_cren(0.1, 0.1)),  # 3.6288e17
]


@pytest.mark.parametrize("d,kind,ref", EXTRAPOLATED, ids=[repr(case[0]) for case in EXTRAPOLATED])
def test_extrapolated_integrals_hold_their_error_bars(d, kind, ref, monkeypatch):
    rows = _spy_end_rule(monkeypatch)
    mv = evaluate(d, kind)
    assert rows == [0]
    assert abs(mv.value - ref) <= mv.abs_error_estimate + SLACK, (mv, ref)
    # the end rule reads the integral's own pieces only: the same bits in a batch
    assert _same(_batch(d, [crex_min(1), kind, crex_min(2)])[1], mv)


#: (distribution, kind): integrals that diverge at an end
DIVERGENT = [
    (Power(3, 0.5), extropy()),
    (min_order(Power(3, 0.5), 3), extropy()),
    (Weibull(2, 0.5), extropy()),
    (FoldedCramer(1), cren()),
]


@pytest.mark.parametrize("d,kind", DIVERGENT, ids=[repr(case[0]) for case in DIVERGENT])
def test_divergent_integrals_raise(d, kind):
    with pytest.raises(DivergentIntegral, match="diverges at"):
        evaluate(d, kind)
    with pytest.raises(DivergentIntegral, match="diverges at"):
        _batch(d, [crex_min(1), kind])


def test_qagi_map_integrates_slow_tails():
    # sf^2 of the folded Cramer law decays like 1/x^2: the mapped tail carries most of the error
    d = FoldedCramer(1)
    mv = evaluate(d, dcrex(3.0), force_quadrature=True)
    assert mv.method == "quadrature"
    assert abs(mv.value - -2.0) <= mv.abs_error_estimate + SLACK  # -1/2 * (1 + t)
