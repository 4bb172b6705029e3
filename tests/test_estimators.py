"""Plug-in estimators: hand-computed step integrals and sampling behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extropy.distributions import Exponential, Uniform
from extropy.errors import DegenerateTail, EmptySample, ExtropyError
from extropy.estimators import (
    SampleSet,
    draw_samples,
    empirical_cpex,
    empirical_crex,
    empirical_dcrex,
    read_sample_file,
)


def test_crex_hand_value():
    s = SampleSet.from_values([1, 2, 3])
    assert empirical_crex(s) == pytest.approx(-7 / 9)


def test_crex_single_point():
    assert empirical_crex(SampleSet.from_values([4.0])) == pytest.approx(-2.0)


def test_cpex_hand_value():
    s = SampleSet.from_values([1, 2, 3])
    assert empirical_cpex(s) == pytest.approx(-5 / 18)


def test_cpex_single_point_with_bound():
    # empirical cdf is 0 below the only observation, 1 on [b, b]
    assert empirical_cpex(SampleSet.from_values([2.0], upper_bound=2.0)) == pytest.approx(0.0)


def test_cpex_known_bound_adds_tail_segment():
    s = SampleSet.from_values([1, 2, 3], upper_bound=4.0)
    assert empirical_cpex(s) == pytest.approx(-5 / 18 - 0.5)


def test_dcrex_hand_value():
    s = SampleSet.from_values([1, 2, 3])
    assert empirical_dcrex(s, 1.5) == pytest.approx(-0.375)


def test_dcrex_at_zero_reduces_to_crex():
    s = SampleSet.from_values([1, 2, 3])
    assert empirical_dcrex(s, 0.0) == pytest.approx(empirical_crex(s))


def test_dcrex_degenerate_age():
    s = SampleSet.from_values([1, 2, 3])
    with pytest.raises(DegenerateTail):
        empirical_dcrex(s, 3.0)


@pytest.mark.parametrize("bound", [float("nan"), float("inf")])
def test_non_finite_upper_bound_rejected(bound):
    # these gave empirical_cpex nan and -inf
    with pytest.raises(ExtropyError, match="upper_bound must be finite"):
        SampleSet.from_values([1, 2, 3], upper_bound=bound)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_dcrex_rejects_a_non_finite_age(t):
    # nan gave -0.0 and -inf gave -inf
    with pytest.raises(ExtropyError, match="must be finite"):
        empirical_dcrex(SampleSet.from_values([1, 2, 3]), t, 1)


def _dcrex_by_searching_every_break(s, t, n):
    """The former empirical_dcrex: one searchsorted per segment start."""
    x, m = s.values, s.size
    st = float(np.sum(x > t)) / m
    breaks = np.concatenate(([t], x[x > t]))
    sf = (m - np.searchsorted(x, breaks[:-1], side="right")) / m
    return -0.5 * float(np.sum(np.diff(breaks) * (sf / st) ** (2 * n)))


@pytest.mark.parametrize("seed", range(5))
def test_dcrex_matches_per_segment_search_bit_for_bit_with_ties(seed):
    rng = np.random.default_rng(seed)
    s = SampleSet.from_values(np.round(rng.exponential(size=400), 1))  # many ties
    assert len(np.unique(s.values)) < s.size
    for t in [0.0, 0.05, 0.3, 1.0, 1.0 + 1e-12, float(s.values[-2])]:
        for n in (1, 2, 3):
            assert empirical_dcrex(s, t, n) == _dcrex_by_searching_every_break(s, t, n)


def _crex_by_differencing(s, n):
    """The former empirical_crex: widths and sf levels rebuilt on every call."""
    x, m = s.values, s.size
    widths = np.diff(np.concatenate(([0.0], x)))
    sf = (m - np.arange(m)) / m
    return -0.5 * float(np.sum(widths * sf ** (2 * n)))


def _cpex_by_differencing(s, n):
    """The former empirical_cpex."""
    x, m = s.values, s.size
    widths = np.diff(np.concatenate(([0.0], x)))
    cdf = np.arange(m) / m
    total = float(np.sum(widths * cdf ** (2 * n)))
    if s.upper_bound is not None:
        total += s.upper_bound - float(x[-1])
    return -0.5 * total


def _dcrex_by_differencing(s, t, n):
    """The former empirical_dcrex: widths from t over the observations above it."""
    x, m = s.values, s.size
    j = int(np.searchsorted(x, t, side="right"))
    widths = np.diff(np.concatenate(([t], x[j:])))
    sf = (m - np.arange(j, m)) / m
    return -0.5 * float(np.sum(widths * (sf / ((m - j) / m)) ** (2 * n)))


@pytest.mark.parametrize("m", [1, 2, 1000])
@pytest.mark.parametrize("seed", range(3))
def test_estimators_match_the_differencing_formulas_bit_for_bit(m, seed):
    rng = np.random.default_rng(seed)
    values = np.round(rng.exponential(size=m), 1 if m > 2 else 3)  # ties when m = 1000
    if m == 1000:
        assert len(np.unique(values)) < m
    x = np.sort(values)
    for bound in (None, float(x[-1]), float(x[-1]) + 0.37):
        s = SampleSet.from_values(values, upper_bound=bound)
        for n in (1, 2, 3):
            assert empirical_crex(s, n) == _crex_by_differencing(s, n)
            assert empirical_cpex(s, n) == _cpex_by_differencing(s, n)
            below = [0.0, 0.5 * float(x[0])]
            on = [float(v) for v in x[:-1:97]]  # observations, ties included
            between = [float(0.5 * (a + b)) for a, b in zip(x[:-1:89], x[1::89]) if a < b]
            for t in below + on + between:
                assert empirical_dcrex(s, t, n) == _dcrex_by_differencing(s, t, n), t


def test_sample_keeps_its_step_widths_read_only():
    s = SampleSet.from_values([3.0, 1.0, 1.0, 2.5])
    assert np.array_equal(s._widths, np.diff(s.values, prepend=0.0))
    assert s._widths.tolist() == [1.0, 0.0, 1.5, 0.5]
    with pytest.raises(ValueError, match="read-only"):
        s._widths[0] = 9.0


def test_ties_contribute_nothing():
    a = empirical_crex(SampleSet.from_values([1, 2, 2, 3]))
    # segments [0,1], (1,2], the zero-width tie, (2,3] with sf 1, 3/4, -, 1/4
    widths_only = -0.5 * (1 * 1.0 + 1 * (3 / 4) ** 2 + 0.0 + 1 * (1 / 4) ** 2)
    assert a == pytest.approx(widths_only)


def test_sample_validation():
    with pytest.raises(EmptySample):
        SampleSet(())
    with pytest.raises(ExtropyError):
        SampleSet.from_values([1.0, 5.0], upper_bound=4.0)


@pytest.mark.parametrize(
    "values, message",
    [
        ([-1.0, 2.0], "finite and nonnegative"),
        ([1.0, float("nan")], "finite and nonnegative"),
        ([float("nan"), 1.0], "finite and nonnegative"),
        ([1.0, float("inf")], "finite and nonnegative"),
        ([float("inf")], "finite and nonnegative"),
        ([3.0, -1.0], "finite and nonnegative"),  # unsorted as well
        ([3.0, float("nan"), 1.0], "finite and nonnegative"),
        ([3.0, 1.0], "sorted ascending"),
        ([0.0, 2.0, 2.0, 1.0], "sorted ascending"),
    ],
)
def test_each_invalid_sample_gets_its_message(values, message):
    with pytest.raises(ExtropyError, match=f"^sample values must be {message}$"):
        SampleSet(values)


def test_mean_bound_is_exact():
    # discrete analogue: estimator >= -(sample mean)/2
    rng = np.random.default_rng(7)
    values = rng.exponential(size=200)
    s = SampleSet.from_values(values)
    assert empirical_crex(s) >= -0.5 * float(np.mean(values)) - 1e-15


def test_draw_samples_deterministic():
    a = draw_samples(Exponential(1), 100, seed=42)
    b = draw_samples(Exponential(1), 100, seed=42)
    c = draw_samples(Exponential(1), 100, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_consistency_median_error_decreases():
    # aggregate over 20 seeded replications at three sample sizes
    errors = []
    for m in (10**3, 10**4, 10**5):
        errs = []
        for seed in range(20):
            s = draw_samples(Exponential(1), m, seed=seed)
            errs.append(abs(empirical_crex(s) - (-0.25)))
        errors.append(float(np.median(errs)))
    assert errors[0] > errors[1] > errors[2]


def test_read_sample_file(tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text("# header comment\n1.0\n2.0  # inline\n\n3.0\n")
    s = read_sample_file(str(path))
    assert s.values.tolist() == [1.0, 2.0, 3.0]
    s2 = read_sample_file(str(path), upper_bound=5.0)
    assert s2.upper_bound == 5.0


def test_read_sample_file_names_the_bad_line(tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text("# header\n1.0\n2.o\n3.0\n")
    with pytest.raises(ExtropyError, match=r"samples.txt:3: not a number: '2.o'"):
        read_sample_file(str(path))


@settings(max_examples=60)
@given(
    values=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30),
    scale=st.floats(min_value=0.01, max_value=50),
)
def test_crex_scale_equivariance(values, scale):
    base = empirical_crex(SampleSet.from_values(values))
    scaled = empirical_crex(SampleSet.from_values([scale * v for v in values]))
    assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-12)


@settings(max_examples=60)
@given(
    values=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30),
    n=st.integers(min_value=1, max_value=8),
)
def test_crex_monotone_in_n(values, n):
    s = SampleSet.from_values(values)
    assert empirical_crex(s, n + 1) >= empirical_crex(s, n) - 1e-15
