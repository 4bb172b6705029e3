"""Thin adaptive-quadrature wrapper used throughout the package.

Backed by QUADPACK (adaptive Gauss-Kronrod) via ``scipy.integrate.quad``
with a relative target of 1e-9 and an absolute floor of 1e-14.  Breakpoints
(kinks of the integrand) strictly inside the interval go to QUADPACK's QAGP,
which starts from the pieces between them.  Infinite upper limits go through
the QAGI transformation; if QUADPACK flags trouble there, we retry on a
truncated interval and add the truncation remainder to the reported error
estimate.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

from scipy import integrate as _si

EPS_ABS = 1e-14
EPS_REL = 1e-9
_LIMIT = 256


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
