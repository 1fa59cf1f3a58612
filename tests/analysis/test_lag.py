"""Tests for lead/lag correlation analysis."""

import math

import pytest

from repro.analysis.lag import lagged_correlation
from repro.analysis.series import Series
from repro.common.errors import AnalysisError


def pulse(center_us, width_us, grid_step=10_000, horizon=2_000_000):
    pairs = []
    for t in range(0, horizon, grid_step):
        inside = center_us <= t < center_us + width_us
        pairs.append((t, 1.0 if inside else 0.0))
    return Series.from_pairs(pairs)


def test_lag_detects_leader():
    cause = pulse(center_us=500_000, width_us=300_000)
    effect = pulse(center_us=600_000, width_us=300_000)  # 100 ms later
    result = lagged_correlation(cause, effect, max_lag_us=300_000, step_us=10_000)
    assert result.best_lag_us == pytest.approx(100_000, abs=20_000)
    assert result.leader == "a"
    assert result.best_correlation > result.zero_lag_correlation


def test_lag_zero_for_aligned_series():
    a = pulse(center_us=500_000, width_us=300_000)
    result = lagged_correlation(a, a, max_lag_us=200_000, step_us=10_000)
    assert result.best_lag_us == 0
    assert result.best_correlation == pytest.approx(1.0)
    assert result.leader == "simultaneous"


def test_lag_negative_when_b_leads():
    cause = pulse(center_us=600_000, width_us=300_000)
    effect = pulse(center_us=500_000, width_us=300_000)  # b fires first
    result = lagged_correlation(cause, effect, max_lag_us=300_000, step_us=10_000)
    assert result.best_lag_us < 0
    assert result.leader == "b"


def test_lag_validation():
    a = pulse(0, 100_000)
    with pytest.raises(AnalysisError):
        lagged_correlation(a, a, max_lag_us=5, step_us=10)
    with pytest.raises(AnalysisError):
        lagged_correlation(a, a, max_lag_us=100, step_us=0)


def test_lag_on_scenario_shape():
    """Disk saturation leads the queue: the best lag is non-negative."""
    disk = pulse(center_us=400_000, width_us=300_000)
    queue_pairs = []
    for t in range(0, 2_000_000, 10_000):
        # queue ramps while the disk is busy, drains after
        if 400_000 <= t < 700_000:
            value = (t - 400_000) / 300_000
        elif 700_000 <= t < 900_000:
            value = 1.0 - (t - 700_000) / 200_000
        else:
            value = 0.0
        queue_pairs.append((t, value))
    queue = Series.from_pairs(queue_pairs)
    result = lagged_correlation(disk, queue, max_lag_us=400_000, step_us=20_000)
    assert result.best_lag_us >= 0
    assert not math.isnan(result.best_correlation)
