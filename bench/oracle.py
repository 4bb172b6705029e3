"""High-precision references for the benchmark's output checks.

Every function returns a Python float rounded from a 30-digit mpmath value.
The references are independent of the library: they never call extropy.

Curves (dynamic measures at an age t):

- figure 2.1, TwoExpMax: sf = y + y^2 - y^3 with y = exp(-x), so sf^k is a
  finite sum of exponentials and its integral over [t, inf) is exact.
- figure 3.1, PiecewiseBounded: ``mp.quad`` with the support end 0, the cdf
  kink at x = 1 and the age t as breakpoints.
- Weibull: the tail integral is an upper incomplete gamma function.
- Power: ``mp.quad`` over [0, t] with both ends as breakpoints.

Estimators: ``residual(k, t)`` = int_t^inf (sf(x)/sf(t))^k dx and
``past(k)`` = int_0^B cdf(x)^k dx per family, in closed form.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30


def _poly_pow(coeffs: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        nxt = [0] * (len(out) + len(coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(coeffs):
                nxt[i + j] += a * b
        out = nxt
    return out


# sf of TwoExpMax as a polynomial in y = exp(-x): y + y^2 - y^3
_TWOEXP_SF = [0, 1, 1, -1]


def _twoexp_sf(x):
    y = mp.exp(-x)
    return y + y**2 - y**3


def twoexp_residual(k: int, t: float):
    """int_t^inf (sf(x)/sf(t))^k dx for TwoExpMax, exactly (as mpf)."""
    t = mp.mpf(t)
    coeffs = _poly_pow(_TWOEXP_SF, k)
    total = mp.fsum(c * mp.exp(-j * t) / j for j, c in enumerate(coeffs) if j > 0 and c)
    return total / _twoexp_sf(t) ** k


def _pb_cdf(x):
    if x <= 0:
        return mp.mpf(0)
    if x <= 1:
        return mp.exp(-mp.mpf(1) / 2 - 1 / x)
    if x <= 2:
        return mp.exp(-2 + x * x / 2)
    return mp.mpf(1)


def fig21_value(t: float) -> float:
    """dcrex(t) of TwoExpMax."""
    return float(-twoexp_residual(2, t) / 2)


def fig31_value(t: float) -> float:
    """dcpex(t) of PiecewiseBounded, 1 < t < 2."""
    t = mp.mpf(t)
    ft = _pb_cdf(t)
    points = [0, 1, t] if t > 1 else [0, t]
    return float(-mp.quad(lambda x: (_pb_cdf(x) / ft) ** 2, points) / 2)


def _weibull_residual(lam: float, theta: float, k: int, t: float):
    lam, theta, t = mp.mpf(lam), mp.mpf(theta), mp.mpf(t)
    c = k * lam
    tail = mp.gammainc(1 / theta, c * t**theta) / (theta * c ** (1 / theta))
    return tail * mp.exp(c * t**theta)


def weibull_dcrex_min(lam: float, theta: float, n: int, t: float) -> float:
    return float(-_weibull_residual(lam, theta, 2 * n, t) / 2)


def power_dcpex_max(b: float, c: float, n: int, t: float) -> float:
    """dcpex_max(n) at t <= b of Power(b, c)."""
    t, c = mp.mpf(t), mp.mpf(c)
    return float(-mp.quad(lambda x: (x / t) ** (2 * n * c), [0, t]) / 2)


# ---------------------------------------------------------------------------
# Estimator references: the integrals the plug-in estimators converge to
# ---------------------------------------------------------------------------


def residual(family: str, params: tuple, k: int, t: float = 0.0):
    """int_t^inf (sf(x)/sf(t))^k dx, with sf = 1 below the support."""
    t = mp.mpf(t)
    if family == "exponential":
        (lam,) = params
        return 1 / (k * mp.mpf(lam))
    if family == "weibull":
        return _weibull_residual(*params, k, t)
    if family == "pareto":
        lam, theta = map(mp.mpf, params)
        return (lam + t) / (k * theta - 1)
    if family == "uniform":
        a, b = map(mp.mpf, params)
        lo = max(t, a)
        return (lo - t) + (b - lo) / (k + 1)
    if family == "power":
        b, c = map(mp.mpf, params)
        if t != 0:
            raise ValueError("power residual reference is only defined at t = 0")
        return b / c * mp.beta(1 / c, k + 1)
    if family == "two-exp-max":
        return twoexp_residual(k, t)
    raise ValueError(f"no residual reference for {family}")


def past(family: str, params: tuple, k: int):
    """int_0^B cdf(x)^k dx over [0, B], B the upper support end."""
    if family == "uniform":
        a, b = map(mp.mpf, params)
        return (b - a) / (k + 1)
    if family == "power":
        b, c = map(mp.mpf, params)
        return b / (k * c + 1)
    raise ValueError(f"no past reference for {family}")


def sf(family: str, params: tuple, t: float):
    t = mp.mpf(t)
    if family == "exponential":
        return mp.exp(-mp.mpf(params[0]) * t)
    if family == "weibull":
        lam, theta = map(mp.mpf, params)
        return mp.exp(-lam * t**theta)
    if family == "pareto":
        lam, theta = map(mp.mpf, params)
        return (lam / (t + lam)) ** theta
    if family == "uniform":
        a, b = map(mp.mpf, params)
        return min(mp.mpf(1), max(mp.mpf(0), (b - t) / (b - a)))
    if family == "two-exp-max":
        return _twoexp_sf(t)
    raise ValueError(f"no sf for {family}")
