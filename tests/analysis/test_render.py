"""Tests for terminal series rendering."""

import pytest

from repro.analysis.render import sparkline
from repro.analysis.series import Series
from repro.common.errors import AnalysisError


def ramp(n=100):
    return Series.from_pairs([(i * 1_000, float(i)) for i in range(n)])


def test_sparkline_width():
    line = sparkline(ramp(), width=40)
    assert 1 <= len(line) <= 40


def test_sparkline_monotone_ramp():
    line = sparkline(ramp(), width=20)
    levels = [" ▁▂▃▄▅▆▇█".index(c) for c in line]
    assert levels == sorted(levels)
    assert levels[0] == 0
    assert levels[-1] == 8


def test_sparkline_constant_series():
    flat = Series.from_pairs([(i, 5.0) for i in range(10)])
    line = sparkline(flat, width=10)
    assert set(line) == {" "}


def test_sparkline_empty_rejected():
    with pytest.raises(AnalysisError):
        sparkline(Series.from_pairs([]))

