"""Packed simulator histories answer exactly like list-backed ones.

:class:`StepSeries` and :class:`CumulativeCounter` keep their change
times and running sums in ``array("q")`` / ``array("d")``.  The
reference classes below are the list-backed implementations they
replaced, kept verbatim in behaviour: every query must return the same
value of the same Python type (compared through ``repr``, which tells
``2`` from ``2.0`` and round-trips every float bit), or raise the same
error.
"""

import tracemalloc
from bisect import bisect_right

from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.ntier.hardware import CumulativeCounter
from repro.sim.tracking import StepSeries


class ListStepSeries:
    """The list-backed step series."""

    def __init__(self, initial=0):
        self._times = [0]
        self._values = [initial]
        self._cumulative = [0.0]

    def record(self, time, value):
        times = self._times
        last = times[-1]
        if time > last:
            times.append(time)
            self._values.append(value)
        elif time == last:
            self._values[-1] = value
        else:
            raise SimulationError(f"out of order: {time} < {last}")

    @property
    def last_change(self):
        return self._times[-1]

    def __len__(self):
        return len(self._times)

    def value_at(self, time):
        if time < 0:
            raise SimulationError(f"negative query time: {time}")
        return self._values[bisect_right(self._times, time) - 1]

    def _ensure_cumulative(self):
        cumulative, times, values = self._cumulative, self._times, self._values
        total = cumulative[-1]
        for i in range(len(cumulative), len(times)):
            total += (times[i] - times[i - 1]) * values[i - 1]
            cumulative.append(total)

    def integral(self, start, stop):
        if stop < start:
            raise SimulationError("integral window reversed")
        if stop == start:
            return 0.0
        self._ensure_cumulative()
        return self._integral_to(stop) - self._integral_to(start)

    def _integral_to(self, time):
        index = bisect_right(self._times, time) - 1
        base = self._cumulative[index]
        return base + (time - self._times[index]) * self._values[index]

    def mean(self, start, stop):
        if stop <= start:
            raise SimulationError("mean window empty")
        return self.integral(start, stop) / (stop - start)

    def max_between(self, start, stop):
        lo = max(bisect_right(self._times, start) - 1, 0)
        hi = bisect_right(self._times, stop - 1)
        if stop <= start or hi <= lo:
            raise SimulationError("max window empty")
        return max(self._values[lo:hi])

    def resample(self, start, stop, step):
        if step <= 0:
            raise SimulationError("resample step must be positive")
        times, values = [], []
        t = start
        while t < stop:
            times.append(t)
            values.append(self.value_at(t))
            t += step
        return times, values

    def window_means(self, start, stop, step):
        if step <= 0:
            raise SimulationError("window step must be positive")
        times, values = [], []
        t = start
        while t < stop:
            end = min(t + step, stop)
            times.append(t)
            values.append(self.mean(t, end))
            t = end
        return times, values

    def changes(self):
        return iter(zip(self._times, self._values))


class ListCumulativeCounter:
    """The list-backed cumulative counter."""

    def __init__(self):
        self._times = [0]
        self._totals = [0.0]

    def add(self, time, amount):
        if amount < 0:
            raise SimulationError(f"counter decrement not allowed: {amount}")
        times = self._times
        last = times[-1]
        if time > last:
            times.append(time)
            self._totals.append(self._totals[-1] + amount)
        elif time == last:
            self._totals[-1] += amount
        else:
            raise SimulationError(f"counter add out of order: {time} < {last}")

    @property
    def total(self):
        return self._totals[-1]

    def total_at(self, time):
        index = bisect_right(self._times, time) - 1
        if index < 0:
            return 0.0
        return self._totals[index]

    def between(self, start, stop):
        if stop < start:
            raise SimulationError("counter window reversed")
        return self.total_at(stop) - self.total_at(start)


def answer(call):
    """``repr`` of what ``call()`` returns, or the error type it raises."""
    try:
        result = call()
    except SimulationError as exc:
        return ("raises", type(exc))
    if hasattr(result, "__next__"):
        result = list(result)
    return ("returns", repr(result))


#: Recorded values: ints (what ``len(queue)`` and byte counts give),
#: floats with fractional parts and signed zeros, and big ints past
#: 2**53, where int-times-int products stop being exact floats.
VALUES = st.one_of(
    st.integers(-1_000, 1_000),
    st.integers(2**53, 2**60),
    st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False),
)

#: Gaps between records; 0 overwrites the value at the current time.
GAPS = st.sampled_from([0, 0, 1, 3, 50, 1_000, 123_457])

#: An interleaving of records (``None`` query) and queries, so the
#: prefix integral is extended from many different points.
STEP_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("record"), GAPS, VALUES),
        st.tuples(
            st.sampled_from(
                ["value_at", "integral", "mean", "max_between",
                 "resample", "window_means"]
            ),
            st.integers(-5, 400_000),
            st.integers(-5, 400_000),
        ),
    ),
    max_size=60,
)


def step_queries(name, a, b):
    """The calls one generated query expands to."""
    if name == "value_at":
        return [("value_at", (a,))]
    if name in ("resample", "window_means"):
        start = max(a, 0)
        step = (b % 7 - 1) * 997  # non-positive steps must raise alike
        return [(name, (start, start + 50_000, step))]
    return [(name, (a, b))]


@given(st.one_of(st.integers(0, 5), st.floats(-10, 10)), STEP_OPS)
def test_packed_step_series_answers_like_the_list_backed_one(initial, ops):
    packed = StepSeries(initial=initial)
    reference = ListStepSeries(initial=initial)
    now = 0
    for op, a, b in ops:
        if op == "record":
            now += a
            assert answer(lambda: packed.record(now, b)) == answer(
                lambda: reference.record(now, b)
            )
            continue
        for name, args in step_queries(op, a, b):
            assert answer(lambda: getattr(packed, name)(*args)) == answer(
                lambda: getattr(reference, name)(*args)
            ), (name, args)
    horizon = now + 1_000
    for name, args in [
        ("integral", (0, horizon)),
        ("mean", (0, horizon)),
        ("max_between", (0, horizon)),
        ("window_means", (0, horizon, 997)),
        ("changes", ()),
        ("__len__", ()),
    ]:
        assert answer(lambda: getattr(packed, name)(*args)) == answer(
            lambda: getattr(reference, name)(*args)
        ), (name, args)
    assert answer(lambda: packed.last_change) == answer(
        lambda: reference.last_change
    )


#: Counter amounts: ints, fractional floats, and rejected negatives.
AMOUNTS = st.one_of(
    st.integers(-3, 1_000_000),
    st.floats(-1.0, 1e7, allow_nan=False, allow_infinity=False),
)

COUNTER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), GAPS, AMOUNTS),
        st.tuples(st.just("total_at"), st.integers(-5, 400_000), st.none()),
        st.tuples(
            st.just("between"),
            st.integers(-5, 400_000),
            st.integers(-5, 400_000),
        ),
    ),
    max_size=60,
)


@given(COUNTER_OPS)
def test_packed_counter_answers_like_the_list_backed_one(ops):
    packed = CumulativeCounter()
    reference = ListCumulativeCounter()
    now = 0
    for op, a, b in ops:
        if op == "add":
            now += a
            calls = [("add", (now, b))]
        elif op == "total_at":
            calls = [("total_at", (a,))]
        else:
            calls = [("between", (a, b))]
        calls.append(("total", None))
        for name, args in calls:
            if args is None:
                got = answer(lambda: packed.total)
                want = answer(lambda: reference.total)
            else:
                got = answer(lambda: getattr(packed, name)(*args))
                want = answer(lambda: getattr(reference, name)(*args))
            assert got == want, (name, args)


ENTRIES = 100_000


def traced_bytes_per_entry(build) -> float:
    """Bytes tracemalloc sees ``build()`` keep alive, per entry."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept is not None
    return (after - before) / ENTRIES


def recorded_series(with_integral: bool) -> StepSeries:
    # Small ints are shared objects, so what is measured is the
    # history's own storage, as for a queue length.
    series = StepSeries()
    for i in range(1, ENTRIES + 1):
        series.record(i * 50, i % 7)
    if with_integral:
        series.integral(0, ENTRIES * 50)
    return series


def counted() -> CumulativeCounter:
    counter = CumulativeCounter()
    for i in range(1, ENTRIES + 1):
        counter.add(i * 50, 37)
    return counter


def test_histories_cost_at_most_24_bytes_per_entry():
    """A boxed int time, a boxed float total and two list slots cost
    72 B an entry; packed, times and totals are 8 B each."""
    assert traced_bytes_per_entry(lambda: recorded_series(False)) <= 24
    assert traced_bytes_per_entry(counted) <= 24


def test_prefix_integral_costs_at_most_8_more_bytes_per_entry():
    """Built, the prefix integral adds one packed double per entry, not
    a list slot and a boxed float (80 B an entry with both lists)."""
    assert traced_bytes_per_entry(lambda: recorded_series(True)) <= 32
