"""Shared fixtures: the bundled family instances every suite runs against."""

import pytest

from extropy import analysis
from extropy.distributions import (
    Exponential,
    FiniteRange,
    FoldedCramer,
    GPD,
    Pareto,
    PiecewiseBounded,
    Power,
    TwoExpMax,
    Uniform,
    Weibull,
)

# Families with a finite upper support endpoint.  PiecewiseBounded has a
# kinked cdf and is the canonical counterexample to t-monotonicity of the
# dynamic past measure of maxima, so it is kept out of MONOTONE_BOUNDED.
BOUNDED = [
    Uniform(0, 1),
    Uniform(2, 5),
    FiniteRange(1, 2),
    FiniteRange(0.5, 3),
    Power(1, 2),
    Power(3, 0.5),
    GPD(1, -0.5),
    PiecewiseBounded(),
]
MONOTONE_BOUNDED = [d for d in BOUNDED if not isinstance(d, PiecewiseBounded)]

UNBOUNDED = [
    Exponential(1),
    Exponential(0.5),
    Weibull(1, 2),
    Weibull(2, 0.5),
    Pareto(1, 2),
    Pareto(2, 3),
    GPD(1, 1),
    TwoExpMax(),
    FoldedCramer(1),
]

ALL_FAMILIES = BOUNDED + UNBOUNDED
FINITE_MEAN = [d for d in ALL_FAMILIES if d.has_finite_mean]


def ids(dists):
    return [repr(d) for d in dists]


@pytest.fixture(autouse=True)
def _no_chain_sweep_left_behind():
    """Every test starts and ends with no kept chain sweep, so none reads another test's."""
    analysis._CHAIN_SWEEPS.clear()
    yield
    analysis._CHAIN_SWEEPS.clear()
