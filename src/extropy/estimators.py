"""Plug-in estimators from iid samples via the empirical sf/cdf.

The empirical step function makes every defining integral a finite sum, so
the estimators below are exact integrals of the plug-in curve (no smoothing,
no kernels).  Integration starts at 0: lifetimes are nonnegative, so the
segment [0, x_(1)) carries empirical sf = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import Distribution
from .errors import DegenerateTail, EmptySample, ExtropyError


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sorted nonnegative observations, with an optional known support bound.

    ``values`` is stored as a read-only float64 array. A 1-D float64
    ``ndarray`` that is already read-only and owns its data is adopted as
    is, so ``SampleSet(s.values, bound)`` shares ``s.values``; a caller who
    passes such an array gives up writing to it. Any other input is copied.
    The widths of the empirical step function's segments, [0, x_(1)] and
    (x_(i), x_(i+1)], are kept beside it, read-only, for the estimators.
    """

    values: np.ndarray
    upper_bound: Optional[float] = None

    def __post_init__(self) -> None:
        arr = self.values
        if not (
            type(arr) is np.ndarray
            and arr.dtype == np.float64
            and arr.ndim == 1
            and arr.flags.owndata
            and not arr.flags.writeable
        ):
            arr = np.array(arr, dtype=np.float64)
        if arr.ndim != 1:
            raise ExtropyError("sample values must be a flat sequence")
        if arr.size == 0:
            raise EmptySample("sample must contain at least one observation")
        # widths x_(1), x_(2) - x_(1), ... all >= 0 (a nan fails) and a finite
        # x_(m) hold exactly for a sorted, finite, nonnegative sample; they
        # are the bits of np.diff(arr, prepend=0.0), without its concatenation
        widths = np.empty_like(arr)
        widths[0] = arr[0]
        np.subtract(arr[1:], arr[:-1], out=widths[1:])
        if not (np.all(widths >= 0) and np.isfinite(arr[-1])):
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ExtropyError("sample values must be finite and nonnegative")
            raise ExtropyError("sample values must be sorted ascending")
        if self.upper_bound is not None and not (arr[-1] <= self.upper_bound < np.inf):  # nan fails too
            raise ExtropyError(f"upper_bound must be finite and >= max(values), got {self.upper_bound}")
        arr.flags.writeable = False
        widths.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_widths", widths)

    @classmethod
    def from_values(cls, values: Sequence[float], upper_bound: Optional[float] = None) -> "SampleSet":
        arr = np.array(values, dtype=np.float64)
        arr.sort()
        arr.flags.writeable = False
        return cls(arr, upper_bound)

    @property
    def size(self) -> int:
        return len(self.values)


def empirical_crex(s: SampleSet, n: int = 1) -> float:
    """Exact integral of (empirical sf)^{2n} over [0, x_(m)], times -1/2."""
    m = s.size
    h = np.arange(m, 0, -1, dtype=np.float64)  # empirical sf on each segment (x_(i), x_(i+1)]
    h /= m
    h **= 2 * n
    h *= s._widths
    return -0.5 * float(np.sum(h))


def empirical_cpex(s: SampleSet, n: int = 1) -> float:
    """Exact integral of (empirical cdf)^{2n} over [0, B], times -1/2.

    B is the known support bound when given (the segment [x_(m), B] has
    empirical cdf 1), otherwise the largest observation.
    """
    m = s.size
    h = np.arange(m, dtype=np.float64)  # empirical cdf on each segment (x_(i), x_(i+1))
    h /= m
    h **= 2 * n
    h *= s._widths
    total = float(np.sum(h))
    if s.upper_bound is not None:
        total += s.upper_bound - float(s.values[-1])
    return -0.5 * total


def empirical_dcrex(s: SampleSet, t: float, n: int = 1) -> float:
    """Plug-in dynamic residual extropy at age t."""
    x = s.values
    m = s.size
    if not np.isfinite(t):
        raise ExtropyError(f"age t must be finite, got {t}")
    if t >= x[-1]:
        raise DegenerateTail(f"empirical sf at t={t} is zero")
    j = int(np.searchsorted(x, t, side="right"))  # x[j:] are the observations above t
    # sf is (m - j)/m on [t, x_j] and (m - i - 1)/m on [x_i, x_{i+1}]; a tie
    # makes a zero-width segment, so its sf does not matter
    h = np.arange(m - j, 0, -1, dtype=np.float64)
    h /= m
    h /= (m - j) / m
    h **= 2 * n
    h[0] *= x[j] - t
    h[1:] *= s._widths[j + 1 :]
    return -0.5 * float(np.sum(h))


def draw_samples(d: Distribution, m: int, seed: int) -> SampleSet:
    """Inverse-cdf sampling with an explicit seed; each call owns its RNG."""
    rng = np.random.default_rng(seed)
    x = d.quantile(rng.uniform(size=m))
    if not (type(x) is np.ndarray and x.dtype == np.float64 and x.flags.owndata and x.flags.writeable):
        x = np.array(x, dtype=np.float64)
    x.sort()  # in place: np.sort is a copy followed by this same sort
    x.flags.writeable = False
    return SampleSet(x)


def read_sample_file(path: str, upper_bound: Optional[float] = None) -> SampleSet:
    """One float per line; blank lines and '#' comments allowed."""
    values: list[float] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                try:
                    values.append(float(stripped))
                except ValueError:
                    raise ExtropyError(f"{path}:{lineno}: not a number: {stripped!r}") from None
    return SampleSet.from_values(values, upper_bound)
