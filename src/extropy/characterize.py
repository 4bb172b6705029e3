"""Model identification from extropy curves and ratios.

Constant ratio of residual extropy of minima to the mean residual life pins
down the generalized Pareto family; a constant slope of the same curve does
too, and lets the parameters be read off.  On the past side, a constant
ratio to the expected inactivity time pins down the power family.

Classification thresholds: with r(t) = value / mrl constant equal to -c,
the family is exponential at c = 1/(4n), Lomax (Pareto II) below it, and
power-type GPD on (1/(4n), 1/2).  (A direct integration for the exponential
gives -mrl/(4n), fixing the constant; see the ratio-test oracle in the test
suite.)

Family-equality checks over a finite schedule of orders are reported as
evidence, not proof: the underlying uniqueness statements need a divergent
infinite schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analysis import CheckReport, _kept, _margins_report
from .distributions import Distribution
from .errors import DivergentMean, ExtropyError, UnboundedSupport
from .measures import (
    Curve,
    MeasureKind,
    _batch_arrays,
    cpex,
    cpex_max,
    crex_min,
    dcpex_max,
    dcrex_min,
)
from .orderstats import min_order


def _constancy_tolerance(median: float) -> float:
    # quadrature noise scales with magnitude
    return max(1e-6, 1e-4 * abs(median))


@dataclass(frozen=True)
class CharacterizationResult:
    model: str  # Exponential | ParetoII | PowerGPD | PowerBounded | NotConstant
    c_hat: float
    dispersion: float
    recovered_params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "c_hat": self.c_hat,
            "dispersion": self.dispersion,
            "recovered_params": self.recovered_params,
        }


@dataclass(frozen=True)
class CheckSchedule:
    """Strictly increasing orders used by family-equality checks."""

    orders: tuple[int, ...] = tuple(range(1, 13))

    def __post_init__(self) -> None:
        if any(n < 1 for n in self.orders):
            raise ExtropyError("schedule orders must be >= 1")
        if any(b <= a for a, b in zip(self.orders, self.orders[1:])):
            raise ExtropyError("schedule must be strictly increasing")


def _classify_ratio(c_hat: float, n: int) -> str:
    exp_c = 1.0 / (4.0 * n)
    if abs(c_hat - exp_c) <= 1e-6 * max(1.0, abs(c_hat)):
        return "Exponential"
    if c_hat < exp_c:
        return "ParetoII"
    if c_hat < 0.5:
        return "PowerGPD"
    return "NotConstant"


def _gpd_lambda_from_c(c: float, n: int) -> float:
    # invert c = 1 / (2 (2n(1+lam) - lam))
    return (1.0 / (2.0 * c) - 2.0 * n) / (2.0 * n - 1.0)


def _ratios(d: Distribution, kinds: list[MeasureKind], side: str) -> np.ndarray:
    """value / mrl (side "residual") or value / eit (side "past") at every nondegenerate age.

    The values come from one batch, the means from one ``conditional_means`` call.
    """
    results = _batch_arrays(d, kinds)
    live = ~results.degenerate
    means, _ = d.conditional_means(_kept([kind.t for kind in kinds], live), side)
    return results.value[live] / means


def _constancy_gate(ratios: np.ndarray, sign: float) -> tuple[float, float, Optional[CharacterizationResult]]:
    """sign * the ratios' median, their dispersion (max - min), and the NotConstant
    result when there are none or the dispersion exceeds the constancy tolerance."""
    if not ratios.size:
        return math.nan, math.nan, CharacterizationResult("NotConstant", math.nan, math.nan)
    med = float(np.median(ratios))
    c_hat, dispersion = sign * med, float(ratios.max() - ratios.min())
    constant = dispersion <= _constancy_tolerance(med)
    return c_hat, dispersion, None if constant else CharacterizationResult("NotConstant", c_hat, dispersion)


def gpd_ratio_test(d: Distribution, n: int, t_grid: Sequence[float]) -> CharacterizationResult:
    """Constant ratio of minima residual extropy to mean residual life => GPD."""
    try:
        ratios = _ratios(d, [dcrex_min(n, t) for t in t_grid], "residual")
    except DivergentMean:
        ratios = np.zeros(0)
    c_hat, dispersion, rejected = _constancy_gate(ratios, -1.0)
    if rejected is not None:
        return rejected
    model = _classify_ratio(c_hat, n)
    params: dict = {}
    if model != "NotConstant":
        lam = 0.0 if model == "Exponential" else _gpd_lambda_from_c(c_hat, n)
        params["lambda"] = lam
    return CharacterizationResult(model, c_hat, dispersion, params)


def gpd_slope_test(curve: Curve, n: int) -> CharacterizationResult:
    """Linear minima residual-extropy curve => GPD; read parameters off the fit.

    Ordinary least squares with a max-residual constancy gate: a single bend
    must fail the verdict.
    """
    if len(curve) < 3:
        raise ExtropyError("slope test needs a curve with at least 3 points")
    ts = np.asarray(curve.ts)
    vals = np.asarray(curve.values)
    slope, intercept = np.polyfit(ts, vals, 1)
    residual_max = float(np.max(np.abs(vals - (slope * ts + intercept))))
    c_hat = float(slope)
    if residual_max > _constancy_tolerance(float(np.median(vals))):
        return CharacterizationResult("NotConstant", c_hat, residual_max)
    if abs(c_hat) <= 1e-9:
        lam = 0.0
        model = "Exponential"
    else:
        c1 = 4.0 * n * c_hat / (2.0 * c_hat - 1.0)
        lam = c1 / (1.0 - c1)
        model = "ParetoII" if lam > 0 else "PowerGPD"
    # intercept = -theta / (2 (2n(1+lam) - lam))
    theta = -float(intercept) * 2.0 * (2.0 * n * (1.0 + lam) - lam)
    return CharacterizationResult(
        model, c_hat, residual_max, {"lambda": lam, "theta": theta}
    )


def power_ratio_test(d: Distribution, n: int, t_grid: Sequence[float]) -> CharacterizationResult:
    """Constant ratio of maxima past extropy to expected inactivity time => power."""
    if not d.support.bounded:
        raise UnboundedSupport("power characterization requires bounded support")
    ratios = _ratios(d, [dcpex_max(n, t) for t in t_grid], "past")
    k_hat, dispersion, rejected = _constancy_gate(ratios, 1.0)
    if rejected is not None:
        return rejected
    # invert k = -(c+1) / (2 (2nc + 1))
    denom = 4.0 * n * k_hat + 1.0
    if denom == 0.0:
        return CharacterizationResult("NotConstant", k_hat, dispersion)
    c = -(2.0 * k_hat + 1.0) / denom
    if c <= 0:
        return CharacterizationResult("NotConstant", k_hat, dispersion)
    return CharacterizationResult(
        "PowerBounded", k_hat, dispersion, {"c": c, "b": d.support.upper}
    )


def family_equality_check(
    d1: Distribution,
    d2: Distribution,
    schedule: CheckSchedule = CheckSchedule(),
    mode: str = "Location",
    tolerance: float = 1e-6,
) -> CheckReport:
    """Finite-schedule equality of extropy summaries across two models.

    mode="Location": residual extropy of minima; mode="Scale": the same
    normalized by the minima mean (supports must both be [0, inf));
    mode="LocationScale": past extropy of maxima normalized by the parent's.
    Holds is finite-schedule evidence of same-family membership, not proof.
    """
    if mode not in ("Location", "Scale", "LocationScale"):
        raise ExtropyError(f"unknown mode {mode!r}")
    if mode == "Scale":
        for d in (d1, d2):
            s = d.support
            if s.lower != 0.0 or s.bounded:
                raise UnboundedSupport("Scale mode requires both supports to be [0, inf)")
    orders = schedule.orders

    def summaries(d: Distribution) -> np.ndarray:
        if mode == "LocationScale":
            values = _batch_arrays(d, [cpex()] + [cpex_max(n) for n in orders]).value
            return values[1:] / values[0]
        values = _batch_arrays(d, [crex_min(n) for n in orders]).value
        if mode == "Scale":
            return values / np.array([min_order(d, n).mean() for n in orders])
        return values

    a, b = summaries(d1), summaries(d2)
    # max(abs(a), abs(b), 1e-12) as the builtin takes it: a later argument wins only where it is larger
    scale = np.where(abs(b) > abs(a), abs(b), abs(a))
    scale = np.where(1e-12 > scale, 1e-12, scale)
    return _margins_report(f"family-equality({mode})", tolerance - abs(a - b) / scale, orders)
