"""Tests for StepSeries time-weighted tracking."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.sim.tracking import StepSeries


def test_initial_value_holds_before_first_record():
    s = StepSeries(initial=7)
    assert s.value_at(0) == 7
    assert s.value_at(1_000_000) == 7


def test_value_at_steps():
    s = StepSeries()
    s.record(10, 2)
    s.record(20, 5)
    assert s.value_at(0) == 0
    assert s.value_at(10) == 2
    assert s.value_at(19) == 2
    assert s.value_at(20) == 5


def test_record_same_time_overwrites():
    s = StepSeries()
    s.record(10, 1)
    s.record(10, 9)
    assert s.value_at(10) == 9
    assert len(s) == 2  # initial + one change point


def test_record_out_of_order_rejected():
    s = StepSeries()
    s.record(10, 1)
    with pytest.raises(SimulationError):
        s.record(5, 2)


def test_adjust_returns_new_value():
    s = StepSeries()
    assert s.adjust(5, +3) == 3
    assert s.adjust(8, -1) == 2
    assert s.current == 2


def test_integral_piecewise():
    s = StepSeries()
    s.record(10, 2)
    s.record(20, 5)
    # [0,10): 0, [10,20): 2*10=20, [20,30): 5*10=50
    assert s.integral(0, 30) == 70
    assert s.integral(15, 25) == 2 * 5 + 5 * 5


def test_integral_empty_window():
    s = StepSeries()
    assert s.integral(5, 5) == 0.0


def test_integral_reversed_window_rejected():
    s = StepSeries()
    with pytest.raises(SimulationError):
        s.integral(10, 5)


def test_mean():
    s = StepSeries()
    s.record(0, 4)
    s.record(50, 0)
    assert s.mean(0, 100) == pytest.approx(2.0)


def test_max_between():
    s = StepSeries()
    s.record(10, 2)
    s.record(20, 9)
    s.record(30, 1)
    assert s.max_between(0, 40) == 9
    assert s.max_between(0, 15) == 2
    assert s.max_between(21, 29) == 9
    assert s.max_between(30, 40) == 1


def test_max_between_window_starting_before_the_first_sample():
    s = StepSeries(initial=9)
    s.record(5, 0)
    assert s.max_between(-5, 10) == 9
    assert s.max_between(-5, 1) == 9
    with pytest.raises(SimulationError, match="max window empty"):
        s.max_between(-1, 0)


def test_resample_grid():
    s = StepSeries()
    s.record(10, 1)
    s.record(30, 3)
    times, values = s.resample(0, 50, 10)
    assert times == [0, 10, 20, 30, 40]
    assert values == [0, 1, 1, 3, 3]


def test_window_means():
    s = StepSeries()
    s.record(0, 2)
    s.record(10, 4)
    times, values = s.window_means(0, 20, 10)
    assert times == [0, 10]
    assert values == [2, 4]


def test_interleaved_record_and_query():
    # Queries between records must not corrupt the lazy integral cache.
    s = StepSeries()
    s.record(10, 1)
    assert s.integral(0, 20) == 10
    s.record(30, 2)
    assert s.integral(0, 40) == 10 + 10 + 20


@given(
    st.lists(
        st.tuples(st.integers(1, 1_000), st.integers(0, 100)),
        min_size=1,
        max_size=50,
    )
)
def test_integral_matches_bruteforce(deltas):
    """Property: the integral equals a brute-force per-µs accumulation."""
    s = StepSeries()
    t = 0
    points = [(0, 0)]
    for delta, value in deltas:
        t += delta
        s.record(t, value)
        points.append((t, value))
    horizon = t + 10

    brute = 0
    for (t0, v0), (t1, _) in zip(points, points[1:]):
        brute += (t1 - t0) * v0
    brute += (horizon - points[-1][0]) * points[-1][1]

    assert s.integral(0, horizon) == brute


@given(st.lists(st.integers(0, 50), min_size=1, max_size=30))
def test_value_at_returns_last_recorded(values):
    """Property: value_at(t) is the most recent record at or before t."""
    s = StepSeries()
    for i, v in enumerate(values):
        s.record((i + 1) * 10, v)
    for i, v in enumerate(values):
        assert s.value_at((i + 1) * 10) == v
        assert s.value_at((i + 1) * 10 + 5) == v


#: One step of an interleaving: record after a gap (0 overwrites the
#: value at the current time), or ask for an integral or a mean.
SERIES_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.sampled_from([0, 0, 1, 7, 250]),
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        ),
        st.tuples(st.just("integral"), st.integers(0, 400), st.integers(0, 400)),
        st.tuples(st.just("mean"), st.integers(0, 400), st.integers(1, 400)),
    ),
    max_size=60,
)


@given(SERIES_OPS)
def test_integral_extended_lazily_equals_a_rebuild(ops):
    """Property: queries interleaved with records (same-time overwrites
    included) give exactly what a series built from the final records
    in one go gives."""
    series = StepSeries(initial=3)
    records = []
    queries = []
    now = 0
    for op, a, b in ops:
        if op == "record":
            now += a
            series.record(now, b)
            records.append((now, b))
        else:
            start = min(a, now)
            stop = start + b
            getattr(series, op)(start, stop)  # extends the integral so far
            queries.append((op, start, stop))
    rebuilt = StepSeries(initial=3)
    for time, value in records:
        rebuilt.record(time, value)
    horizon = now + 500
    for op, start, stop in queries + [("integral", 0, horizon), ("mean", 0, horizon)]:
        assert getattr(series, op)(start, stop) == getattr(rebuilt, op)(start, stop)
