"""One conditioning rule for every functional that conditions on an age t.

Over ``test_panels.EVERY`` and the ages of ``test_panels._ages`` (across the
support, at and next to its ends, and beyond them):

- ``hazard_rate`` and ``mean_residual_life`` raise ``DegenerateTail``
  exactly where ``evaluate(d, dcrex(t))`` does, and ``reversed_hazard`` and
  ``expected_inactivity_time`` raise ``DegenerateHead`` exactly where
  ``evaluate(d, dcpex(t))`` does;
- elsewhere a rate is pdf(t) / sf(t) or pdf(t) / cdf(t), bit for bit;
- a conditional mean, and every cataloged dynamic closed form, agrees with
  the integral path (the means with no ``_closed_mean`` hook, the measures
  with ``force_quadrature``) within the larger of the combined error
  estimates and 1e-9 |value|, at ages outside the support too.
"""

import pytest

from extropy import distributions
from extropy.distributions import Distribution
from extropy.errors import DegenerateHead, DegenerateTail, DivergentMean, ExtropyError
from extropy.measures import MeasureKind, evaluate

from conftest import ids
from test_panels import EVERY, _ages

#: side -> (the plain dynamic kind, its error, the rate, the mean)
SIDES = {
    "residual": ("dcrex", DegenerateTail, "hazard_rate", "mean_residual_life"),
    "past": ("dcpex", DegenerateHead, "reversed_hazard", "expected_inactivity_time"),
}

REL = 1e-9


def _outcome(f, error):
    """What f() gives: "degenerate" where it raises error, "other" for another domain error, else "value"."""
    try:
        f()
    except error:
        return "degenerate"
    except ExtropyError:  # an integral that the engine does not resolve, say
        return "other"
    return "value"


def _close(got, want, err):
    return abs(got - want) <= max(err, REL * abs(want))


@pytest.mark.parametrize("d", EVERY, ids=ids(EVERY))
@pytest.mark.parametrize("side", SIDES)
def test_rates_and_means_raise_where_the_dynamic_measure_raises(d, side, monkeypatch):
    name, error, rate, mean = SIDES[side]
    ages = _ages(d).tolist()
    with_mean = side == "past" or d.has_finite_mean
    live = []
    for t in ages:
        degenerate = _outcome(lambda: evaluate(d, MeasureKind(name, t=t)), error) == "degenerate"
        assert _outcome(lambda: getattr(d, rate)(t), error) == ("degenerate" if degenerate else "value"), (rate, t)
        if degenerate:
            if with_mean:
                assert _outcome(lambda: getattr(d, mean)(t), error) == "degenerate", (mean, t)
        else:
            level = d.sf(t) if side == "residual" else d.cdf(t)
            assert getattr(d, rate)(t).hex() == (d.pdf(t) / level).hex(), (rate, t)
            live.append(t)
    if not with_mean:
        with pytest.raises(DivergentMean):
            d.conditional_means(ages, side)
        return
    # one call for the ages where none raises: the first degenerate age would
    values, errors = d.conditional_means(live, side)
    assert [getattr(d, mean)(t) for t in live[::20]] == values[::20].tolist()
    for cls in vars(distributions).values():
        if isinstance(cls, type) and "_closed_mean" in vars(cls):
            monkeypatch.setattr(cls, "_closed_mean", Distribution._closed_mean)
    integrals, integral_errors = d.conditional_means(live, side)
    for t, v, e, w, we in zip(live, values, errors, integrals, integral_errors):
        assert _close(v, w, e + we), (t, v, e, w, we)


#: the distributions with a dynamic catalog entry
CATALOGED = [
    d
    for d in EVERY
    if isinstance(
        d,
        (
            distributions.Exponential,
            distributions.FiniteRange,
            distributions.GPD,
            distributions.Pareto,
            distributions.Power,
            distributions.Uniform,
        ),
    )
]


@pytest.mark.parametrize("d", CATALOGED, ids=ids(CATALOGED))
def test_dynamic_closed_forms_agree_with_quadrature_inside_and_outside_the_support(d):
    closed = 0
    for t in _ages(d).tolist():
        for name, n in (("dcrex", 1), ("dcrex-min", 2), ("dcpex", 1), ("dcpex-max", 2)):
            kind = MeasureKind(name, n, t)
            try:
                cf = evaluate(d, kind)
            except (DegenerateTail, DegenerateHead):
                continue
            if cf.method != "closed-form":
                continue
            closed += 1
            q = evaluate(d, kind, force_quadrature=True)
            assert q.method == "quadrature"
            assert _close(cf.value, q.value, q.abs_error_estimate), (kind, cf, q)
    assert closed
