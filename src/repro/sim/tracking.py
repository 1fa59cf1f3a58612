"""Time-weighted series tracking.

:class:`StepSeries` records a right-continuous step function — queue
lengths, busy-server counts, buffer levels — and supports the queries
analysis and the resource monitors need: instantaneous value, window
integral/mean/max, and uniform resampling.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Iterator

from repro.common.errors import SimulationError
from repro.common.timebase import Micros

__all__ = ["StepSeries"]


class StepSeries:
    """A right-continuous step function of simulation time.

    The value recorded at time ``t`` holds for ``[t, t_next)``.  Before
    the first record the series holds ``initial``.

    Examples
    --------
    >>> s = StepSeries(initial=0)
    >>> s.record(10, 2)
    >>> s.record(20, 5)
    >>> s.value_at(15)
    2
    >>> s.integral(0, 30)
    70
    """

    __slots__ = ("_times", "_values", "_cumulative")

    def __init__(self, initial: float = 0) -> None:
        # Times and prefix integrals are packed int64/double arrays (8 B
        # an entry, no boxed object): they hold the same int µs and the
        # same float sums a list would.  Values stay a list, because
        # callers record ints and get them back as ints.
        self._times = array("q", [0])
        self._values: list[float] = [initial]
        #: ``_cumulative[i]`` is the integral over ``[0, _times[i])``;
        #: it may lag behind ``_times`` and is extended on demand.
        self._cumulative = array("d", [0.0])

    def record(self, time: Micros, value: float) -> None:
        """Record that the series takes ``value`` from ``time`` onward."""
        times = self._times
        last = times[-1]
        if time > last:
            times.append(time)
            self._values.append(value)
        elif time == last:
            self._values[-1] = value
        else:
            raise SimulationError(
                f"StepSeries.record out of order: {time} < {last}"
            )

    def adjust(self, time: Micros, delta: float) -> float:
        """Add ``delta`` to the current value at ``time``; return the new value."""
        new_value = self._values[-1] + delta
        self.record(time, new_value)
        return new_value

    @property
    def current(self) -> float:
        """The most recently recorded value."""
        return self._values[-1]

    @property
    def last_change(self) -> Micros:
        """The time of the most recent record."""
        return self._times[-1]

    def __len__(self) -> int:
        return len(self._times)

    def value_at(self, time: Micros) -> float:
        """Instantaneous value at ``time`` (right-continuous)."""
        if time < 0:
            raise SimulationError(f"negative query time: {time}")
        index = bisect_right(self._times, time) - 1
        return self._values[index]

    def _ensure_cumulative(self) -> None:
        # Extend the prefix integral from where it stopped.  Entry i
        # reads only values[i - 1], and record() changes nothing but
        # values[-1] or the tail, so the entries already built stay
        # exact.
        cumulative = self._cumulative
        times = self._times
        values = self._values
        total = cumulative[-1]
        for i in range(len(cumulative), len(times)):
            total += (times[i] - times[i - 1]) * values[i - 1]
            cumulative.append(total)

    def integral(self, start: Micros, stop: Micros) -> float:
        """Integral of the series over ``[start, stop)`` (value·µs)."""
        if stop < start:
            raise SimulationError(f"integral window reversed: [{start}, {stop})")
        if stop == start:
            return 0.0
        self._ensure_cumulative()
        return self._integral_to(stop) - self._integral_to(start)

    def _integral_to(self, time: Micros) -> float:
        index = bisect_right(self._times, time) - 1
        base = self._cumulative[index]
        return base + (time - self._times[index]) * self._values[index]

    def mean(self, start: Micros, stop: Micros) -> float:
        """Time-weighted mean over ``[start, stop)``."""
        if stop <= start:
            raise SimulationError(f"mean window empty: [{start}, {stop})")
        return self.integral(start, stop) / (stop - start)

    def max_between(self, start: Micros, stop: Micros) -> float:
        """Maximum instantaneous value over ``[start, stop)``; the part
        of the window before time 0 holds no value."""
        lo = max(bisect_right(self._times, start) - 1, 0)
        hi = bisect_right(self._times, stop - 1)
        if stop <= start or hi <= lo:
            raise SimulationError(f"max window empty: [{start}, {stop})")
        return max(self._values[lo:hi])

    def resample(
        self, start: Micros, stop: Micros, step: Micros
    ) -> tuple[list[Micros], list[float]]:
        """Instantaneous values on a uniform grid over ``[start, stop)``."""
        if step <= 0:
            raise SimulationError(f"resample step must be positive: {step}")
        times: list[Micros] = []
        values: list[float] = []
        t = start
        while t < stop:
            times.append(t)
            values.append(self.value_at(t))
            t += step
        return times, values

    def window_means(
        self, start: Micros, stop: Micros, step: Micros
    ) -> tuple[list[Micros], list[float]]:
        """Time-weighted means over consecutive windows of width ``step``.

        Each returned timestamp is the window start.
        """
        if step <= 0:
            raise SimulationError(f"window step must be positive: {step}")
        times: list[Micros] = []
        values: list[float] = []
        t = start
        while t < stop:
            end = min(t + step, stop)
            times.append(t)
            values.append(self.mean(t, end))
            t = end
        return times, values

    def changes(self) -> Iterator[tuple[Micros, float]]:
        """Iterate the raw ``(time, value)`` change points."""
        return iter(zip(self._times, self._values))
