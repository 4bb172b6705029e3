"""Thin adaptive-quadrature wrapper used throughout the package.

Backed by QUADPACK (adaptive Gauss-Kronrod) via ``scipy.integrate.quad``
with a relative target of 1e-9 and an absolute floor of 1e-14.  Breakpoints
(kinks of the integrand) strictly inside the interval go to QUADPACK's QAGP,
which starts from the pieces between them.  Infinite upper limits go through
the QAGI transformation; if QUADPACK flags trouble there, we retry on a
truncated interval and add the truncation remainder to the reported error
estimate.

``integrate_panels`` applies QUADPACK's 21-point Gauss-Kronrod rule (qk21)
to many panels in one numpy pass, with the same error estimate and targets;
panels it cannot settle by bisection go to ``integrate``.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _si

EPS_ABS = 1e-14
EPS_REL = 1e-9
_LIMIT = 256

#: bisections of a panel before it goes to ``integrate``: at most _LIMIT pieces
_MAX_DEPTH = 8

# QUADPACK dqk21: Kronrod nodes on [-1, 1] (xgk, the centre last), their
# weights (wgk), and the weights (wg) of the 10-point Gauss rule on the
# nodes xgk(2), xgk(4), ..., xgk(10).
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208703532341,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _mirror(v: Sequence[float]) -> np.ndarray:
    """Weights at xgk(1..11) spread over the 21 ascending nodes -xgk(1) .. 0 .. xgk(1)."""
    return np.array(list(v[:-1]) + list(reversed(v)))


_NODES = np.array([-x for x in _XGK[:-1]] + list(reversed(_XGK)))
_KRONROD = _mirror(_WGK)
_GAUSS = _mirror([0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3], 0.0, _WG[4], 0.0])
_EPMACH = float(np.finfo(np.float64).eps)
_UFLOW = float(np.finfo(np.float64).tiny)


def integrate(
    f: Callable[[float], float], a: float, b: float, points: Sequence[float] = ()
) -> tuple[float, float]:
    """Integrate ``f`` over [a, b], split at ``points``; returns (value, abs_error_estimate)."""
    if b <= a:
        return 0.0, 0.0
    cuts = sorted({p for p in points if a < p < b})
    if cuts and math.isinf(b):
        # QAGP needs a finite interval: the tail past the last cut goes alone
        head, head_err = integrate(f, a, cuts[-1], cuts)
        tail, tail_err = integrate(f, cuts[-1], b)
        return head + tail, head_err + tail_err
    extra = {"points": cuts} if cuts else {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", _si.IntegrationWarning)
        try:
            value, err = _si.quad(f, a, b, epsabs=EPS_ABS, epsrel=EPS_REL, limit=_LIMIT, **extra)
            return value, err
        except _si.IntegrationWarning:
            pass
    if math.isinf(b):
        return _truncated_tail(f, a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _si.IntegrationWarning)
        value, err = _si.quad(f, a, b, epsabs=EPS_ABS, epsrel=EPS_REL, limit=_LIMIT, **extra)
    return value, err


def _truncated_tail(f: Callable[[float], float], a: float) -> tuple[float, float]:
    """Integrate [a, inf) by extending a finite window until the tail is negligible."""
    hi = max(2.0 * abs(a), 1.0)
    total, err = 0.0, 0.0
    lo = a
    for _ in range(60):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", _si.IntegrationWarning)
            piece, perr = _si.quad(f, lo, hi, epsabs=EPS_ABS, epsrel=EPS_REL, limit=_LIMIT)
        total += piece
        err += perr
        if abs(piece) <= max(EPS_ABS, EPS_REL * abs(total)):
            # remaining tail bounded by the last (geometrically shrinking) piece
            return total, err + abs(piece)
        lo, hi = hi, 2.0 * hi
    return total, err + abs(piece)


def _qk21(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's dqk21 on every piece [lo_j, hi_j] at once: (values, abs_error_estimates)."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = f(centre[:, None] + half[:, None] * _NODES, rows)
    resk = fx @ _KRONROD
    resg = fx @ _GAUSS
    resabs = np.abs(fx) @ _KRONROD * half
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _KRONROD * half
    err = np.abs((resk - resg) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _UFLOW / (50.0 * _EPMACH), np.maximum(50.0 * _EPMACH * resabs, err), err)
    return resk * half, err


def integrate_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    max_depth: int = _MAX_DEPTH,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate m panels [a_i, b_i] at once; returns per-panel (values, abs_error_estimates).

    ``f(x, rows)`` evaluates the integrand elementwise on a node array ``x``
    whose row j lies in panel ``rows[j]``.  Every panel goes through the qk21
    rule in one batched pass, and is accepted when its error estimate is at
    most max(EPS_ABS, EPS_REL |value|).  A panel that misses is bisected and
    its pieces go to the next batched pass: a piece settles once its error
    is within its length's share of the panel's target, so the settled
    pieces of a panel never exceed that target.  Panels still open after
    ``max_depth`` bisections are integrated by ``integrate`` instead.  A
    panel with b_i <= a_i integrates to 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m = a.size
    value, error = np.zeros(m), np.zeros(m)
    rows = np.flatnonzero(b > a)
    lo, hi = a[rows], b[rows]
    for depth in range(max_depth + 1):
        if not rows.size:
            break
        v, e = _qk21(f, lo, hi, rows)
        target = np.maximum(EPS_ABS, EPS_REL * np.abs(value + np.bincount(rows, v, m)))
        settled = e <= target[rows] * (hi - lo) / (b - a)[rows]
        value += np.bincount(rows[settled], v[settled], m)
        error += np.bincount(rows[settled], e[settled], m)
        rows, lo, hi = rows[~settled], lo[~settled], hi[~settled]
        if depth < max_depth:
            mid = 0.5 * (lo + hi)
            rows, lo, hi = np.concatenate((rows, rows)), np.concatenate((lo, mid)), np.concatenate((mid, hi))
    for i in np.unique(rows).tolist():
        row = np.array([i])
        value[i], error[i] = integrate(lambda y: float(f(np.array([[y]]), row)[0, 0]), a[i], b[i])
    return value, error
