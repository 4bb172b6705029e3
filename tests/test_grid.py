"""Grid evaluation of dynamic measures: the panel sweep against pointwise evaluate and mpmath."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from extropy import analysis, measures, quadrature
from extropy.analysis import (
    check_cpexmax_bounds,
    check_crexmin_mean_bound,
    check_crexmin_monotone_n,
    check_crexmin_vs_crex,
    check_dcpex_bounds,
    check_dcpexmax_monotone_t,
    check_dcrex_bounds,
    check_korder_chains,
    default_grid,
)
from extropy.distributions import (
    Exponential,
    Mixture,
    Pareto,
    PiecewiseBounded,
    Power,
    TwoExpMax,
    Uniform,
    Weibull,
    _levels,
    _shared_values,
)
from extropy.errors import DegenerateHead, DegenerateTail, ExtropyError
from extropy.measures import (
    MeasureKind,
    MeasureValue,
    _Arrays,
    _sweep_arrays,
    dcpex,
    dcrex,
    dcrex_min,
    evaluate,
    evaluate_grid,
)
from extropy.orderstats import KthOrder, MaxOrder, MinOrder, OrderSpec, kth_order
from extropy.quadrature import integrate

from conftest import ALL_FAMILIES, ids

#: every (k, n) that the k-of-n chains reach from n <= 5
CHAIN_ORDERS = [(k, n) for n in range(1, 7) for k in range(1, n + 1)]

SLACK = 1e-12


def _pointwise(d, kind, grid):
    out = []
    for t in grid:
        try:
            out.append(evaluate(d, kind(t)))
        except (DegenerateTail, DegenerateHead) as exc:
            out.append(exc)
    return out


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_sweep_agrees_with_pointwise_evaluate(d):
    grid = default_grid(d)
    sides = (dcrex, dcpex) if d.support.bounded else (dcrex,)
    for k, n in CHAIN_ORDERS:
        od = kth_order(d, k, n)
        for kind in sides:
            for t, got, want in zip(grid, evaluate_grid(od, kind, grid), _pointwise(od, kind, grid)):
                if not isinstance(want, MeasureValue):
                    assert type(got) is type(want), (k, n, kind.__name__, t)
                    continue
                assert got.method == want.method
                bound = got.abs_error_estimate + want.abs_error_estimate + SLACK
                assert abs(got.value - want.value) <= bound, (k, n, kind.__name__, t)


def test_sweep_reports_degenerate_ages():
    d = Uniform(0, 1)
    grid = [-0.5, 0.0, 0.25, 0.5, 1.0, 1.5]
    resid = evaluate_grid(d, dcrex, grid)
    assert [type(v) for v in resid[-2:]] == [DegenerateTail, DegenerateTail]
    past = evaluate_grid(kth_order(d, 2, 3), dcpex, grid)
    assert [type(v) for v in past[:2]] == [DegenerateHead, DegenerateHead]
    # beyond the support the cdf stays 1, as in evaluate
    beyond = evaluate(kth_order(d, 2, 3), dcpex(1.5))
    assert past[-1].value == pytest.approx(beyond.value, abs=1e-12)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_evaluate_and_grid_agree_on_degenerate_ages(d):
    lo, hi = d.support.lower, d.support.upper
    inside = [d.quantile(p) for p in (0.5, 0.999)]
    # inside the support, at its ends and beyond them (far out in an unbounded tail)
    ages = [lo - 1.0, lo, *inside, hi, hi + 1.0] if d.support.bounded else [lo - 1.0, lo, *inside, 1e6]
    for name in ("dcrex", "dcrex-min", "dcpex", "dcpex-max"):
        kind = lambda t: MeasureKind(name, 2, t)  # noqa: E731
        for t, got, want in zip(ages, evaluate_grid(d, kind, ages), _pointwise(d, kind, ages)):
            assert isinstance(got, MeasureValue) == isinstance(want, MeasureValue), (name, t)
            if not isinstance(want, MeasureValue):
                assert type(got) is type(want) and str(got) == str(want), (name, t)


def test_far_tail_age_is_degenerate_without_warnings():
    # Weibull's t**theta overflows at t = 1e300; the level is its limit 0
    d = Weibull(1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateTail, match=r"sf\(1e\+300\) is zero"):
            evaluate(d, dcrex(1e300))
        assert str(evaluate_grid(d, dcrex, [1.0, 1e300])[1]) == "sf(1e+300) is zero"


def _level_ages(d):
    """A grid across the support, with degenerate ages at and beyond both ends and far out in a tail."""
    lo, hi = d.support.lower, d.support.upper
    top = hi if d.support.bounded else 40.0
    return np.concatenate(([lo - 1.0, lo], np.linspace(lo, top, 41)[1:-1], [top, top + 1.0, 1e300]))


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_shared_parent_levels_equal_each_orders_own_bit_for_bit(d):
    # one _shared_values for the parent and its orders, as _sweep_arrays passes it
    grid = _level_ages(d)
    curves = [d, MinOrder(d, 3), MaxOrder(d, 4), KthOrder(d, OrderSpec(2, 5))]
    for residual in (True, False):
        values = _shared_values(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for od in curves:
                shared, alone = _levels(od, residual, grid, values), _levels(od, residual, grid)
                for got, want in zip(shared, alone):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (od, residual)
        assert alone[1].any() and not alone[1].all()  # degenerate ages and others


def test_shared_values_call_each_parent_functional_once(monkeypatch):
    calls = []
    for source in ("sf", "cdf"):
        real = getattr(Exponential, source)
        spy = lambda self, x, real=real, source=source: calls.append(source) or real(self, x)  # noqa: E731
        monkeypatch.setattr(Exponential, source, spy)
    d = Exponential(1)
    grid = _level_ages(d)
    values = _shared_values(grid)
    for od in (d, MinOrder(d, 3), MaxOrder(d, 4), KthOrder(d, OrderSpec(2, 5))):
        for residual in (True, False):
            _levels(od, residual, grid, values)
    assert sorted(calls) == ["cdf", "sf"]


def test_closed_forms_win_pointwise():
    grid = [0.1, 0.5, 2.0]
    for got, t in zip(evaluate_grid(Exponential(2), lambda t: dcrex_min(3, t), grid), grid):
        assert got == evaluate(Exponential(2), dcrex_min(3, t))
        assert got.method == "closed-form"


def test_unordered_grid_falls_back_to_pointwise():
    d = kth_order(Exponential(1), 2, 4)
    grid = [1.0, 0.5, 0.5, 2.0]
    assert evaluate_grid(d, dcrex, grid) == [evaluate(d, dcrex(t)) for t in grid]


# ---------------------------------------------------------------------------
# Several curves in one sweep
# ---------------------------------------------------------------------------


def _arrays_of(values):
    """The ``_Arrays`` of what evaluate returns or raises at every age: 0 at a degenerate one."""
    live = [isinstance(v, MeasureValue) for v in values]
    return _Arrays(
        np.array([v.value if ok else 0.0 for v, ok in zip(values, live)], dtype=float),
        np.array([v.abs_error_estimate if ok else 0.0 for v, ok in zip(values, live)], dtype=float),
        np.array([ok and v.method == "closed-form" for v, ok in zip(values, live)], dtype=bool),
        ~np.array(live, dtype=bool),
    )


def _same(got, want):
    """Bit for bit: every field of two ``_Arrays``."""
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _assert_each_curve_swept_alone(curves, grid):
    swept = _sweep_arrays(curves, grid)
    assert len(swept) == len(curves)
    for (d, name, n), got in zip(curves, swept):
        alone = evaluate_grid(d, lambda t: MeasureKind(name, n, t), grid)
        assert _same(got, _arrays_of(alone)), (d, name, n)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_multi_curve_sweep_equals_each_curve_alone(d):
    grid = default_grid(d)
    names = ("dcrex", "dcpex") if d.support.bounded else ("dcrex",)
    _assert_each_curve_swept_alone([(kth_order(d, k, n), name, 1) for name in names for k, n in CHAIN_ORDERS], grid)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
@pytest.mark.parametrize("n", [1, 4])
def test_bound_triple_sweep_equals_each_curve_alone(d, n):
    grid = default_grid(d)
    sides = [("dcrex", "dcrex-min"), ("dcpex", "dcpex-max")] if d.support.bounded else [("dcrex", "dcrex-min")]
    for plain, extreme in sides:
        _assert_each_curve_swept_alone([(d, extreme, n), (d, plain, 1), (d, extreme, n + 1)], grid)


def test_sweep_levels_mark_degenerate_ages():
    d = Uniform(0, 1)
    grid = [-0.5, 0.0, 0.5, 1.0, 1.5]
    resid, past = _sweep_arrays([(d, "dcrex", 1), (d, "dcpex-max", 2)], grid)
    assert resid.degenerate.tolist() == [False, False, False, True, True]
    assert past.degenerate.tolist() == [True, True, False, False, False]
    assert str(evaluate_grid(d, dcrex, grid)[-1]) == "sf(1.5) is zero"


def test_sweep_curves_must_share_breakpoints():
    with pytest.raises(ValueError):
        _sweep_arrays([(PiecewiseBounded(), "dcrex", 1), (Weibull(1, 2), "dcrex", 1)], [0.5, 1.5])


def _first_pass_pieces(monkeypatch, run):
    """The pieces of the engine's first qk21 pass in run(): (row, mapped, lo, hi) of each."""
    passes = []
    qk21 = quadrature._qk21

    def spy(f, pieces):
        passes.append(pieces[:4].T.tolist())
        return qk21(f, pieces)

    monkeypatch.setattr(quadrature, "_qk21", spy)
    run()
    monkeypatch.undo()
    return passes[0]


#: the four equal pieces of u in (0, 1] that a mapped tail in row 2 starts from
_TAIL = [[2.0, 1.0, k / 4, (k + 1) / 4] for k in range(4)]


@pytest.mark.parametrize(
    "d,kind,ages,swept,segments",
    [
        # no closed form for an order statistic: [0.5, 1], [1, 2] and the tail from 2
        (kth_order(Exponential(1), 2, 3), dcrex, [0.5, 1.0, 2.0], [[0, 0, 0.5, 1], [1, 0, 1, 2], *_TAIL], [1, 1, 1]),
        # from the lower end 0, the middle panel cut at the kink x = 1
        (
            kth_order(PiecewiseBounded(), 2, 3),
            dcpex,
            [0.5, 1.5, 1.8],
            [[0, 0, 0, 0.5], [1, 0, 0.5, 1], [1, 0, 1, 1.5], [2, 0, 1.5, 1.8]],
            [1, 2, 2],
        ),
    ],
    ids=["tail", "kink"],
)
def test_sweep_starts_each_finite_panel_from_one_piece(d, kind, ages, swept, segments, monkeypatch):
    # the sweep: one piece per finite segment, four per mapped tail
    assert _first_pass_pieces(monkeypatch, lambda: evaluate_grid(d, kind, ages)) == swept
    # evaluate's batch of the same ages, one integral per age, still starts every segment from four pieces
    batch = _first_pass_pieces(monkeypatch, lambda: measures._batch_arrays(d, [kind(t) for t in ages]))
    assert [piece[0] for piece in batch] == [row for row, count in enumerate(segments) for _ in range(4 * count)]


def _pointwise_sweep(curves, ages):
    return [_arrays_of(_pointwise(d, lambda t: MeasureKind(name, n, t), ages)) for d, name, n in curves]


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=ids(ALL_FAMILIES))
def test_checks_on_unordered_grid_fall_back_to_pointwise(d, monkeypatch):
    up = default_grid(d, points=6)
    grid = up[::-1] + [up[2]]  # decreasing, then a repeated age
    checks = [lambda: check_korder_chains(d, 2, 4, grid, "residual"), lambda: check_dcrex_bounds(d, 2, grid)]
    if d.support.bounded:
        checks += [lambda: check_korder_chains(d, 2, 4, grid, "past"), lambda: check_dcpex_bounds(d, 2, grid)]
    got = [check() for check in checks]
    # what every check reports when each value is what evaluate gives at that age
    monkeypatch.setattr(analysis, "_sweep_arrays", _pointwise_sweep)
    analysis._CHAIN_SWEEPS.clear()  # else the chains would read the sweeps kept from the first run
    assert got == [check() for check in checks]


#: six bundle families: bounded (one kinked), and unbounded with light, heavy and closed-form tails
CHAIN_FAMILIES = [Uniform(0, 1), Power(3, 0.5), PiecewiseBounded(), Exponential(1), Pareto(1, 2), TwoExpMax()]


def _reference_report(check_id, margins, degenerate, tol):
    """The report of (margin, point) pairs by the builtin ``min``: the first smallest margin is the worst."""
    worst_margin, worst_point = min(margins, key=lambda mp: mp[0], default=(math.nan, None))
    total = len(margins) + degenerate
    if degenerate > analysis._INCONCLUSIVE_FRACTION * total or not margins:
        return analysis.CheckReport(check_id, "Inconclusive", worst_margin, worst_point, len(margins))
    verdict = "Holds" if worst_margin >= -tol else "Fails"
    return analysis.CheckReport(check_id, verdict, worst_margin, worst_point, len(margins))


def _pair_margin(a, b):
    """a >= b: the margin and its tolerance."""
    return a.value - b.value, analysis.BASE_TOL + a.abs_error_estimate + b.abs_error_estimate


def _chain_reference(d, k, n, t_grid, side):
    """check_korder_chains's margins, degenerate count and tolerance from ``evaluate_grid``, pair by pair."""
    chains = analysis._RESIDUAL_CHAIN if side == "residual" else analysis._PAST_CHAIN
    pairs = [
        ((k1, n1), (k2, n2))
        for (k1, n1), (k2, n2) in (chain(k, n) for chain in chains)
        if 1 <= k1 <= n1 <= analysis.MAX_N and 1 <= k2 <= n2 <= analysis.MAX_N
    ]
    orders = list(dict.fromkeys(order for pair in pairs for order in pair))
    name = "dcrex" if side == "residual" else "dcpex"
    curves = {order: evaluate_grid(kth_order(d, *order), lambda t: MeasureKind(name, 1, t), t_grid) for order in orders}
    margins, degenerate, tol = [], 0, analysis.BASE_TOL
    for (k1, n1), (k2, n2) in pairs:
        for t, a, b in zip(t_grid, curves[(k1, n1)], curves[(k2, n2)]):
            if not (isinstance(a, MeasureValue) and isinstance(b, MeasureValue)):
                degenerate += 1
                continue
            margin, pt_tol = _pair_margin(a, b)
            tol = max(tol, pt_tol)
            margins.append((margin, (t, (k1, n1), (k2, n2))))
    return margins, degenerate, tol


@pytest.mark.parametrize("d", CHAIN_FAMILIES, ids=ids(CHAIN_FAMILIES))
@pytest.mark.parametrize("side", ["residual", "past"])
def test_korder_chains_equal_the_pair_by_pair_reference(d, side, monkeypatch):
    lo, hi = d.support.lower, d.support.upper
    ends = [lo - 0.5, lo] + ([hi, hi + 0.5] if d.support.bounded else [1e15])
    long = sorted(default_grid(d) + ends)
    short = sorted(default_grid(d, points=6) + ends)  # more than a tenth of its points degenerate
    grids = [long, short, short[::-1]]  # and one that is not increasing
    passed = []
    real = analysis._report
    monkeypatch.setattr(analysis, "_report", lambda *args: passed.append(args) or real(*args))
    for grid in grids:
        for k in range(1, 5):
            got = check_korder_chains(d, k, 4, grid, side)
            *_, got_degenerate, got_tol = passed[-1]
            margins, degenerate, tol = _chain_reference(d, k, 4, grid, side)
            want = _reference_report(f"korder-chain({side},k={k},n=4)", margins, degenerate, tol)
            assert (got_degenerate, got_tol) == (degenerate, tol), (k, grid)
            assert got == want and got.worst_margin.hex() == want.worst_margin.hex(), (k, grid)


def _bounds_reference(d, n, t_grid, side):
    """check_dcrex_bounds or check_dcpex_bounds, age by age from evaluate_grid and conditional_means."""
    residual = side == "residual"
    plain, extreme = ("dcrex", "dcrex-min") if residual else ("dcpex", "dcpex-max")
    v_grid, base_grid, next_grid = (
        evaluate_grid(d, lambda t, name=name, m=m: MeasureKind(name, m, t), t_grid)
        for name, m in ((extreme, n), (plain, 1), (extreme, n + 1))
    )
    margins, degenerate, tol = [], 0, analysis.BASE_TOL
    for t, v, base, nxt in zip(t_grid, v_grid, base_grid, next_grid):
        if not (isinstance(v, MeasureValue) and isinstance(base, MeasureValue)):
            degenerate += 1
            continue
        if not residual or d.has_finite_mean:
            (mean,), (mean_err,) = (x.tolist() for x in d.conditional_means([t], side))
            margins.append((v.value + 0.5 * mean, ("mrl" if residual else "eit", t)))
            tol = max(tol, analysis.BASE_TOL + v.abs_error_estimate + 0.5 * mean_err)
        margin, pt_tol = _pair_margin(v, base)
        tol = max(tol, pt_tol)
        margins.append((margin, ("vs-parent", t)))
        if not isinstance(nxt, MeasureValue):
            degenerate += 1
            continue
        margin, pt_tol = _pair_margin(nxt, v)
        tol = max(tol, pt_tol)
        margins.append((margin, ("monotone-n", t)))
    return _reference_report(f"{'dcrex' if residual else 'dcpex'}-bounds(n={n})", margins, degenerate, tol)


def _monotone_t_reference(d, n, t_grid):
    """check_dcpexmax_monotone_t, age by age from evaluate_grid."""
    margins, degenerate, tol = [], 0, analysis.BASE_TOL
    prev = prev_t = None
    for t, cur in zip(t_grid, evaluate_grid(d, lambda t: MeasureKind("dcpex-max", n, t), t_grid)):
        if not isinstance(cur, MeasureValue):
            degenerate += 1
            continue
        if prev is not None:
            margin, pt_tol = _pair_margin(prev, cur)
            tol = max(tol, pt_tol)
            margins.append((margin, (prev_t, t)))
        prev, prev_t = cur, t
    return _reference_report(f"dcpexmax-monotone-t(n={n})", margins, degenerate, tol)


def _static_references(d, ns):
    """The three crexmin checks and, on a bounded support, check_cpexmax_bounds, from evaluate one n at a time."""
    mins = [evaluate(d, MeasureKind("crex-min", n)) for n in ns]
    base = evaluate(d, MeasureKind("crex"))
    monotone, tol = [], analysis.BASE_TOL
    for n, prev, cur in zip(ns[1:], mins, mins[1:]):
        margin, pt_tol = _pair_margin(cur, prev)
        tol = max(tol, pt_tol)
        monotone.append((margin, n))
    refs = {"crexmin-monotone-n": _reference_report("crexmin-monotone-n", monotone, 0, tol)}
    vs, tol = [], analysis.BASE_TOL
    for n, v in zip(ns, mins):
        margin, pt_tol = _pair_margin(v, base)
        tol = max(tol, pt_tol)
        vs.append((margin, n))
    refs["crexmin-vs-crex"] = _reference_report("crexmin-vs-crex", vs, 0, tol)
    if d.has_finite_mean:
        mu = d.mean()
        bound = [(v.value + 0.5 * mu, n) for n, v in zip(ns, mins)]
        refs["crexmin-mean-bound"] = _reference_report("crexmin-mean-bound", bound, 0, analysis.BASE_TOL)
    if d.support.bounded:
        b, mu = d.support.upper, d.mean()
        base = evaluate(d, MeasureKind("cpex"))
        maxs = [evaluate(d, MeasureKind("cpex-max", n)) for n in ns]
        margins, tol = [], analysis.BASE_TOL
        for i, (n, v) in enumerate(zip(ns, maxs)):
            margins.append((v.value + 0.5 * (b - mu), ("b-mu", n)))
            margin, pt_tol = _pair_margin(v, base)
            tol = max(tol, pt_tol)
            margins.append((margin, ("vs-parent", n)))
            if i:
                margin, pt_tol = _pair_margin(v, maxs[i - 1])
                tol = max(tol, pt_tol)
                margins.append((margin, ("monotone-n", n)))
        refs["cpexmax-bounds"] = _reference_report("cpexmax-bounds", margins, 0, tol)
    return refs


def _assert_same_report(got, want, *context):
    assert got == want, context
    assert got.worst_margin.hex() == want.worst_margin.hex(), context
    assert repr(got.worst_point) == repr(want.worst_point), context  # the caller's own elements, np.float64 too


@pytest.mark.parametrize("d", CHAIN_FAMILIES, ids=ids(CHAIN_FAMILIES))
def test_bound_suites_equal_the_age_by_age_reference(d):
    lo, hi = d.support.lower, d.support.upper
    ends = [lo - 0.5, lo] + ([hi, hi + 0.5] if d.support.bounded else [1e15])
    long = sorted(default_grid(d) + ends)
    short = sorted(default_grid(d, points=6) + ends)  # more than a tenth of its points degenerate
    for grid in (long, short, short[::-1], default_grid(d), []):
        for n in (1, 3):
            for side, check in (("residual", check_dcrex_bounds), ("past", check_dcpex_bounds)):
                _assert_same_report(check(d, n, grid), _bounds_reference(d, n, grid, side), side, n, grid)
            got = check_dcpexmax_monotone_t(d, n, grid)
            _assert_same_report(got, _monotone_t_reference(d, n, grid), n, grid)
    checks = {
        "crexmin-monotone-n": check_crexmin_monotone_n,
        "crexmin-vs-crex": check_crexmin_vs_crex,
        "crexmin-mean-bound": check_crexmin_mean_bound,
        "cpexmax-bounds": check_cpexmax_bounds,
    }
    for ns in (tuple(range(1, 11)), (3, 1, 2), (2,), ()):
        for check_id, want in _static_references(d, ns).items():
            _assert_same_report(checks[check_id](d, ns), want, check_id, ns)


def test_first_min_picks_what_min_picks():
    # ties, signed zeros and nans, first or later: the index of the margin min(margins, key=...) returns
    cases = [[2.0, 1.0, 1.0], [0.0, -0.0, -1.0, -1.0], [-0.0, 0.0], [math.nan, -1.0], [1.0, math.nan, 0.5, 0.5]]
    cases += [[3.0, math.nan, math.inf], [math.inf, math.nan, math.inf], [math.nan, math.nan]]
    for values in cases:
        want = min(range(len(values)), key=values.__getitem__)
        assert analysis._first_min(np.array(values)) == want, values


def test_nan_age_raises():
    d = kth_order(Exponential(1), 2, 4)
    for grid in ([math.nan], [0.5, math.nan, 1.0]):
        with pytest.raises(ExtropyError):
            evaluate_grid(d, dcrex, grid)
        with pytest.raises(ExtropyError):
            _sweep_arrays([(d, "dcrex", 1)], grid)
        with pytest.raises(ExtropyError):
            check_korder_chains(Exponential(1), 2, 4, grid, "residual")
        with pytest.raises(ExtropyError):
            check_dcrex_bounds(Exponential(1), 2, grid)
        with pytest.raises(ExtropyError):
            check_dcpex_bounds(Uniform(0, 1), 2, grid)


# ---------------------------------------------------------------------------
# Error bars against a 30-digit oracle: kth orders of the kinked cdf
# ---------------------------------------------------------------------------


def _pb_cdf(x):
    if x <= 0:
        return mp.mpf(0)
    if x <= 1:
        return mp.exp(-mp.mpf(1) / 2 - 1 / x)
    if x <= 2:
        return mp.exp(-2 + x * x / 2)
    return mp.mpf(1)


def _kth_sf(F, k, n):
    return mp.fsum(mp.binomial(n, i) * F**i * (1 - F) ** (n - i) for i in range(k))


def _reference(k, n, t, side):
    """dcrex/dcpex of X_{k:n} at t, integrated with the kink at x = 1 as a breakpoint."""
    with mp.workdps(20):
        t = mp.mpf(t)

        def g(x):
            sf = _kth_sf(_pb_cdf(x), k, n)
            return sf if side == "residual" else 1 - sf

        a, b = (t, 2) if side == "residual" else (0, t)
        points = [a, 1, b] if a < 1 < b else [a, b]
        level = g(t)
        return float(-mp.quad(lambda x: (g(x) / level) ** 2, points) / 2)


@pytest.mark.parametrize("k,n", [(1, 1), (1, 3), (2, 3), (3, 4), (4, 5)])
@pytest.mark.parametrize("side", ["residual", "past"])
def test_error_bars_hold_on_piecewise_bounded_orders(k, n, side):
    d = kth_order(PiecewiseBounded(), k, n)
    # 1.9453: figure 3.1's worst point when the kink at x = 1 was not split
    grid = [0.4, 0.95, 1.0, 1.05, 1.6, 1.9453]
    kind = dcrex if side == "residual" else dcpex
    swept = evaluate_grid(d, kind, grid)
    for t, sv in zip(grid, swept):
        ref = _reference(k, n, t, side)
        for mv in (sv, evaluate(d, kind(t))):
            assert abs(mv.value - ref) <= mv.abs_error_estimate + SLACK, (t, mv, ref)


# ---------------------------------------------------------------------------
# Breakpoints
# ---------------------------------------------------------------------------


def test_breakpoints_are_forwarded_and_mapped():
    pb = PiecewiseBounded()
    assert pb.breakpoints == (1.0,)
    assert Exponential(1).breakpoints == ()
    for k, n in [(1, 3), (3, 3), (2, 4)]:
        assert kth_order(pb, k, n).breakpoints == (1.0,)
    assert pb.affine(2.0, 3.0).breakpoints == (5.0,)
    mix = Mixture([(0.5, Uniform(0, 1)), (0.5, pb.affine(1.0, 0.5))])
    assert mix.breakpoints == (0.0, 0.5, 1.0, 1.5, 2.5)


def test_integrate_splits_at_breakpoints():
    # points outside (a, b) are ignored; an infinite tail past the last cut works too
    value, err = integrate(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, points=[1.0 / 3.0, 5.0])
    assert abs(value - 5.0 / 18.0) <= err + 1e-15
    value, err = integrate(lambda x: np.minimum(1.0, np.exp(1.0 - x)), 0.0, math.inf, points=[1.0])
    assert abs(value - 2.0) <= err + 1e-15

