"""Adaptive Gauss-Kronrod quadrature: one batched numpy engine.

``integrate_panels`` is the engine.  It integrates many independent
integrals at once with QUADPACK's 21-point Gauss-Kronrod rule (qk21) and
its error estimate, written in numpy: every integral is cut at the given
breakpoints (kinks of the integrand), an infinite upper end is mapped to
(0, 1] as in QUADPACK's QAGI, each finite segment starts as ``pieces``
equal pieces (4 by default; 1, QUADPACK's QAGS start, for the sweep's
short panels) and each mapped tail as 4, and each integral is accepted by
QUADPACK's global rule, its summed error at most max(EPS_ABS, EPS_REL
|value|), with a relative target of 1e-9 and an absolute floor of 1e-14.
Until then its largest-error pieces are bisected in the next batched pass.
An integral's result does not depend on what else is in the batch: qk21's
row sums are ``np.einsum("ij,j->i", fx, w)`` on a C-contiguous fx, which
sums every row with the same loop whatever the number of rows.  Not
``fx @ w``, which hands the rows to BLAS, and not einsum on a
Fortran-ordered fx, which runs down the columns: either can round a row
otherwise alone than in a batch.

An integral still open after the passes goes to ``_end_rule``, which closes
an integrable endpoint singularity or raises.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DivergentIntegral, ExtropyError

EPS_ABS = 1e-14
EPS_REL = 1e-9
_LIMIT = 256

#: batched bisection passes before an open integral goes to ``_end_rule``
_MAX_DEPTH = 32
#: the end rule reads _RATIOS ratios of neighbouring contributions; steady
#: ones spread by at most _STEADY (1 - ratio), and ones within _STEADY of 1
#: count as 1 (rounding near a nonzero end moves a ratio of 1 by about 1e-5).
#: It reads to _END_ULPS ulps of a nonzero end (closer, the nodes round to a
#: few values) and to _TINY from 0 (so 1/u^2 stays finite).  It replaces a
#: tail's pieces within _TAIL_REACH of u = 1, where u, spaced 2^-53 apart,
#: resolves x to worse than 2^-36, and reads them in x.
_RATIOS = 4
_STEADY = 1e-3
_END_ULPS = 2.0**16
_TINY = 2.0**-500
_TAIL_REACH = 2.0**-17
#: equal pieces a mapped tail, and by default a finite segment, starts from
_START_PIECES = 4

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


def _equal_pieces(
    rows: np.ndarray, mapped: float | np.ndarray, lo: np.ndarray, hi: np.ndarray, origin: np.ndarray, count: int
) -> np.ndarray:
    """``count`` equal pieces of every segment [lo_j, hi_j], as the columns (row, mapped, lo, hi, origin).

    The pieces are in segment order; piece k starts at lo + (hi - lo)(k/count),
    and the last one ends at hi.  ``mapped`` broadcasts to (segments, count).
    """
    split = lo[:, None] + (hi - lo)[:, None] * (np.arange(count + 1) / count)
    split[:, -1] = hi
    pieces = np.empty((5, rows.size, count))
    pieces[0], pieces[1], pieces[4] = rows[:, None], mapped, origin[:, None]
    pieces[2], pieces[3] = split[:, :-1], split[:, 1:]
    return pieces.reshape(5, -1)


def _start_pieces(
    a: np.ndarray, b: np.ndarray, points: Sequence[float], pieces: int = _START_PIECES
) -> np.ndarray:
    """The first pieces of every integral with b_i > a_i, as the columns (row, mapped, lo, hi, origin).

    Each integral is cut at the points inside it, and each finite segment
    into ``pieces`` equal pieces.  The segment [c, inf) of an infinite upper
    end is mapped to u in (0, 1] by x = c + (1 - u)/u: it starts as
    _START_PIECES equal intervals of u (mapped = 1), with origin c.  The
    pieces are in segment order, except that where the two counts differ
    the tails' pieces follow all the finite ones.  A tail is the last
    segment of its integral, so either way each integral's pieces run left
    to right, and its start depends only on its own segments and ``pieces``.
    """
    cuts = sorted({float(p) for p in points if math.isfinite(p)})
    lo, hi = a[:, None], b[:, None]
    # a cut outside [a_i, b_i] is clipped to an end, where it makes an empty segment
    edges = np.concatenate((lo, np.array(cuts).clip(lo, hi), hi) if cuts else (lo, hi), axis=1)
    nonempty = edges[:, 1:] > edges[:, :-1]
    rows = np.nonzero(nonempty)[0]
    seg_lo, seg_hi = edges[:, :-1][nonempty], edges[:, 1:][nonempty]
    mapped = np.isinf(seg_hi)
    origin = seg_lo
    if np.count_nonzero(mapped):
        seg_lo, seg_hi = np.where(mapped, 0.0, seg_lo), np.where(mapped, 1.0, seg_hi)
        if pieces != _START_PIECES:
            finite = ~mapped
            return np.concatenate(
                (
                    _equal_pieces(rows[finite], 0.0, seg_lo[finite], seg_hi[finite], origin[finite], pieces),
                    _equal_pieces(rows[mapped], 1.0, seg_lo[mapped], seg_hi[mapped], origin[mapped], _START_PIECES),
                ),
                axis=1,
            )
    return _equal_pieces(rows, mapped[:, None], seg_lo, seg_hi, origin, pieces)


def _qk21(f: Callable[[np.ndarray, np.ndarray], np.ndarray], pieces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's dqk21 on every piece at once: (values, abs_error_estimates).

    A mapped piece is an interval of u and integrates f(origin + (1 - u)/u) / u^2.
    Each row sum is ``np.einsum("ij,j->i", fx, w)`` on a C-contiguous fx, so
    a row gets the same bits alone as in a batch of any size.  In probes of
    one row alone against the same row in a batch, einsum on a C-ordered
    array agreed in 1,500 of 1,500 cases, ``fx @ w`` (BLAS) in 424 of 1,500,
    and einsum on a Fortran-ordered array in 265 of 1,000; multiply-and-sum
    on a Fortran-ordered array differed in 66 of 172 rows.  So an integrand
    that returns a transposed or Fortran-ordered array is copied first.
    """
    rows, mapped, lo, hi, origin = pieces
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = np.multiply.outer(half, _NODES)
    x += centre[:, None]  # centre + half * node, in place
    if np.count_nonzero(mapped):
        mapped = mapped != 0.0
        u = x[mapped]
        x[mapped] = origin[mapped, None] + (1.0 - u) / u
        fx = np.ascontiguousarray(f(x, rows.astype(np.intp)))
        fx[mapped] /= u * u
    else:
        fx = np.ascontiguousarray(f(x, rows.astype(np.intp)))
    resk = np.einsum("ij,j->i", fx, _KRONROD)
    resg = np.einsum("ij,j->i", fx, _GAUSS)
    resabs = np.einsum("ij,j->i", np.abs(fx), _KRONROD) * half
    dev = fx - 0.5 * resk[:, None]
    resasc = np.einsum("ij,j->i", np.abs(dev, out=dev), _KRONROD) * half
    err = np.abs((resk - resg) * half)
    # dqk21's scaling of the Kronrod-Gauss difference, where both are nonzero
    # (mostly everywhere: then no masks), and its floor of 50 eps |f|
    scale = (resasc != 0.0) & (err != 0.0)
    if np.count_nonzero(scale) == scale.size:
        err = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    else:
        err[scale] = resasc[scale] * np.minimum(1.0, (200.0 * err[scale] / resasc[scale]) ** 1.5)
    err = np.where(resabs > _UFLOW / (50.0 * _EPMACH), np.maximum(50.0 * _EPMACH * resabs, err), err)
    return resk * half, err


def integrate_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    points: Sequence[float] = (),
    *,
    pieces: int = _START_PIECES,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate f over m intervals [a_i, b_i] at once; returns per-interval (values, abs_error_estimates).

    ``f(x, rows)`` evaluates the integrand elementwise on a node array ``x``
    whose row j lies in integral ``rows[j]``.  Each integral is cut at the
    ``points`` inside it, and each finite segment starts as ``pieces`` equal
    pieces; an infinite b_i is mapped as in QUADPACK's QAGI, and its tail
    starts as _START_PIECES pieces.  A caller whose segments are short (the
    panels of ``measures._sweep_arrays``) passes pieces=1; a long segment
    with a singular end resolves in fewer passes from 4.  Every piece
    goes through the qk21 rule in one batched pass.  An integral is accepted
    once the summed error of its pieces is at most max(EPS_ABS, EPS_REL
    |value|); until then each of its pieces whose error exceeds half that
    target over its piece count is bisected, and the halves go to the next
    batched pass.  An integral still open after _MAX_DEPTH bisection
    passes, or that would need more than _LIMIT pieces, goes to
    ``_end_rule``, which closes it or raises.  An integral with b_i <= a_i
    is 0.

    Batch invariance: an integral's result does not depend on the other
    integrals, because f is elementwise, row sums are taken row by row (see
    ``_qk21``), its start depends on its own segments and ``pieces`` only,
    each integral's pieces are summed in an order that its own bisections
    fix, and those bisections, like the end rule, depend on its own pieces
    only.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m = a.size
    pieces = _start_pieces(a, b, points, pieces)
    v, e = _qk21(f, pieces)
    total, total_err = np.zeros(m), np.zeros(m)
    refining = np.ones(m, dtype=bool)
    held: list[np.ndarray] = []  # the pieces, values and errors of the integrals given up
    for depth in range(_MAX_DEPTH + 1):
        # pieces holds the pieces of the open integrals only: an accepted
        # integral's pieces never change, so its sums are final
        rows = pieces[0].astype(np.intp)
        total = np.where(refining, np.bincount(rows, v, m), total)
        total_err = np.where(refining, np.bincount(rows, e, m), total_err)
        target = np.maximum(EPS_ABS, EPS_REL * np.abs(total))
        refining &= ~(total_err <= target)  # a NaN error keeps refining, then goes to the end rule
        if not np.count_nonzero(refining):
            break
        count = np.bincount(rows, minlength=m)
        split = refining[rows] & ~(e <= 0.5 * target[rows] / count[rows])
        # a split at most doubles an integral's pieces: below _LIMIT / 2 none can pass _LIMIT
        if depth == _MAX_DEPTH or 2 * count.max() > _LIMIT:
            give_up = refining
            if depth < _MAX_DEPTH:
                give_up = refining & (count + np.bincount(rows[split], minlength=m) > _LIMIT)
            if np.count_nonzero(give_up):
                held.append(np.vstack((pieces, v, e))[:, give_up[rows]])
                refining &= ~give_up
                split &= refining[rows]
                if not np.count_nonzero(split):
                    break
        # kept pieces, then the halves: an integral's pieces keep an order
        # that only its own bisections decide, and its sums follow that order
        halves = pieces[:, split].repeat(2, axis=1)
        mid = 0.5 * (halves[2, ::2] + halves[3, ::2])
        halves[3, ::2] = halves[2, 1::2] = mid
        hv, he = _qk21(f, halves)
        keep = refining[rows] & ~split
        pieces = np.concatenate((pieces[:, keep], halves), axis=1)
        v, e = np.concatenate((v[keep], hv)), np.concatenate((e[keep], he))
    if held:
        _end_rule(f, np.concatenate(held, axis=1), a, b, points, total, total_err)
    return total, total_err


def _end_rule(
    f: Callable, held: np.ndarray, a: np.ndarray, b: np.ndarray, points: Sequence[float],
    total: np.ndarray, err: np.ndarray
) -> None:
    """Close the integrals the passes left open, in place in (total, err), or raise.

    ``held`` has the columns (row, mapped, lo, hi, origin, value, error) of
    their pieces.  Each round takes an open integral's largest-error piece,
    which must touch an end e of its segment (a cut, a_i, b_i, or u = 0 or 1
    of a tail, u = 1 read as x = origin), and replaces its pieces within w
    of e, w at least that piece, 2^(_RATIOS + 1) times the closest the rule
    reads and, at u = 1, _TAIL_REACH.  One batched qk21 call reads [e + w
    2^-(k+1), e + w 2^-k] down to that closest; for (x - e)^alpha, adjacent
    contributions have the ratio 2^-(1 + alpha).  The last _RATIOS ratios
    all within _STEADY of 1 or above raise DivergentIntegral; steady ones
    add the remainder c r / (1 - r) of the last contribution c and ratio r
    (Aitken's Delta^2), with an error term for their spread and c's error;
    anything else raises ExtropyError.  An integral whose other pieces still
    hold more error than the engine accepts goes to another round.
    """
    cuts = {float(p) for p in points if math.isfinite(p)}
    rows = held[0].astype(np.intp)
    left = np.ones(rows.size, dtype=bool)  # the pieces not replaced yet
    done = {int(i): np.zeros(2) for i in np.unique(rows)}  # value and error of each row's replaced pieces
    todo = list(done)
    while todo:
        ladders, plans = [], []
        for i in todo:
            own = (rows == i) & left
            _, mapped, lo, hi, origin = held[:5, np.flatnonzero(own)[np.argmax(held[6, own])]].tolist()
            ends = {0.0, 1.0} if mapped else cuts | {float(a[i]), float(b[i])}
            end, sign = (lo, 1.0) if lo in ends else (hi, -1.0)
            where = ("infinity" if end == 0.0 else f"x = {origin}") if mapped else f"x = {end}"
            fail = ExtropyError(f"the integral over [{a[i]}, {b[i]}] is not resolved near {where}")
            if end not in ends:
                raise fail
            tail = mapped and end == 1.0  # a tail's finite end: read in x, which resolves it far better than u
            closest = max(_END_ULPS * math.ulp(origin if tail else end), _TINY)
            side = own & (held[1] == mapped)
            dist = sign * (held[2:4, side] - end)  # of the piece ends on e's side
            far = dist.max(axis=0)
            reach = max(_TAIL_REACH if tail else 0.0, closest * 2.0 ** (_RATIOS + 1))
            w = float(far[far >= max(hi - lo, reach)].min(initial=math.inf))
            if any(0.0 < sign * (c - end) < w for c in ends):
                raise fail  # the segment is too short
            left[np.flatnonzero(side)[(dist.min(axis=0) >= 0.0) & (far <= w)]] = False
            if tail:
                mapped, end, sign, w = 0.0, origin, 1.0, w / (1.0 - w)
            edges = end + sign * np.ldexp(w, -np.arange(math.floor(math.log2(w / closest)) + 1))
            ladders.append(np.stack(np.broadcast_arrays(i, mapped, edges[1:], edges[:-1], origin)))
            ladders[-1][2:4].sort(axis=0)
            plans.append((i, fail, f"the integral over [{a[i]}, {b[i]}] diverges at {where}"))
        with np.errstate(all="ignore"):
            values, errors = _qk21(f, np.concatenate(ladders, axis=1))
        cut, todo = np.cumsum([ladder.shape[1] for ladder in ladders])[:-1], []
        for (i, fail, diverges), c, e in zip(plans, np.split(values, cut), np.split(errors, cut)):
            n = int(np.append(np.isfinite(c) & np.isfinite(e), False).argmin())
            c, e, rem, rem_err = c[:n], e[:n], 0.0, 0.0
            if n < _RATIOS + 1:
                raise fail
            if np.count_nonzero(c[-_RATIOS - 1 :]):
                with np.errstate(all="ignore"):
                    ratios = c[-_RATIOS:] / c[-_RATIOS - 1 : -1]
                if (ratios >= 1.0 - _STEADY).all():
                    raise DivergentIntegral(diverges)
                low, high, r = float(ratios.min()), float(ratios.max()), float(ratios[-1])
                if not (0.0 <= low and high - low <= _STEADY * (1.0 - high)):
                    raise fail
                geometric = r / (1.0 - r)
                rem = float(c[-1]) * geometric
                rem_err = 2.0 * abs(float(c[-1])) * (high / (1.0 - high) - low / (1.0 - low)) + float(e[-1]) * geometric
            done[i] += (c.sum() + rem, e.sum() + rem_err)
            own = (rows == i) & left
            total[i], err[i] = held[5, own].sum() + done[i][0], held[6, own].sum() + done[i][1]
            if not held[6, own].sum() <= max(EPS_ABS, EPS_REL * abs(total[i])):
                todo.append(i)


def integrate(g: Callable, a: float, b: float, points: Sequence[float] = ()) -> tuple[float, float]:
    """Integrate an elementwise numpy function g of a 1-D array over [a, b], split at ``points``: (value, error)."""
    values, errors = integrate_panels(lambda x, rows: g(x.ravel()).reshape(x.shape), [a], [b], points)
    return float(values[0]), float(errors[0])
