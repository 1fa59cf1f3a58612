"""Simulation time base.

All simulator-internal timestamps are integer **microseconds** since the
start of the simulation (type alias :data:`Micros`).  Integer time keeps
event ordering exact and log output byte-reproducible; floats appear only
at presentation boundaries (milliseconds in analysis output, seconds on
plot axes).

Native log files carry wall-clock timestamps.  Experiments anchor the
simulation at a fixed epoch (:data:`DEFAULT_EPOCH`) so that identical
seeds produce byte-identical logs.
"""

from __future__ import annotations

import datetime as _dt
from typing import Final

__all__ = [
    "Micros",
    "US_PER_MS",
    "US_PER_SEC",
    "MS_PER_SEC",
    "DEFAULT_EPOCH",
    "ms",
    "seconds",
    "minutes",
    "to_ms",
    "to_seconds",
    "WallClock",
]

#: Integer microseconds since simulation start.
Micros = int

US_PER_MS: Final[int] = 1_000
US_PER_SEC: Final[int] = 1_000_000
MS_PER_SEC: Final[int] = 1_000

#: Wall-clock anchor used when experiments do not specify one.  The value
#: is arbitrary but fixed: reproducibility requires that log timestamps
#: never depend on the real current time.
DEFAULT_EPOCH: Final[_dt.datetime] = _dt.datetime(
    2017, 3, 1, 10, 0, 0, tzinfo=_dt.timezone.utc
)


def ms(value: float) -> Micros:
    """Convert milliseconds to integer microseconds."""
    return round(value * US_PER_MS)


def seconds(value: float) -> Micros:
    """Convert seconds to integer microseconds."""
    return round(value * US_PER_SEC)


def minutes(value: float) -> Micros:
    """Convert minutes to integer microseconds."""
    return round(value * 60 * US_PER_SEC)


def to_ms(value: Micros) -> float:
    """Convert integer microseconds to float milliseconds."""
    return value / US_PER_MS


def to_seconds(value: Micros) -> float:
    """Convert integer microseconds to float seconds."""
    return value / US_PER_SEC


#: Wall-clock seconds a :class:`WallClock` keeps formatted; a run's log
#: writers stay within a few seconds of each other.
_SECOND_CACHE = 64


class WallClock:
    """Maps simulation time to wall-clock timestamps for native logs.

    The second-granularity fields of every format (date, ``HH:MM:SS``,
    the Apache prefix) are formatted once per wall-clock second and
    cached; only the sub-second digits are formatted per call.

    Parameters
    ----------
    epoch:
        The wall-clock datetime corresponding to simulation time zero.
        Must be timezone-aware; defaults to :data:`DEFAULT_EPOCH`.
    """

    __slots__ = ("_epoch", "_epoch_us", "_base", "_base_us", "_seconds")

    def __init__(self, epoch: _dt.datetime | None = None) -> None:
        if epoch is None:
            epoch = DEFAULT_EPOCH
        if epoch.tzinfo is None:
            raise ValueError("WallClock epoch must be timezone-aware")
        self._epoch = epoch
        self._epoch_us = int(epoch.timestamp() * US_PER_SEC)
        # A skewed epoch need not sit on a whole second: cache keys
        # count whole seconds from the epoch's own second.
        self._base = epoch.replace(microsecond=0)
        self._base_us = epoch.microsecond
        self._seconds: dict[int, tuple[str, str, str]] = {}

    @property
    def epoch(self) -> _dt.datetime:
        """The wall-clock datetime corresponding to simulation time zero."""
        return self._epoch

    def at(self, sim_time: Micros) -> _dt.datetime:
        """Return the wall-clock datetime at ``sim_time``."""
        return self._epoch + _dt.timedelta(microseconds=sim_time)

    def epoch_micros(self, sim_time: Micros) -> int:
        """Return microseconds since the Unix epoch at ``sim_time``."""
        return self._epoch_us + sim_time

    def _second(self, sim_time: Micros) -> tuple[tuple[str, str, str], int]:
        """``((clf prefix, HH:MM:SS, YYYY-MM-DD), microsecond)`` at ``sim_time``."""
        second, micro = divmod(self._base_us + sim_time, US_PER_SEC)
        fields = self._seconds.get(second)
        if fields is None:
            if len(self._seconds) >= _SECOND_CACHE:
                self._seconds.clear()
            dt = self._base + _dt.timedelta(seconds=second)
            fields = (
                dt.strftime("%d/%b/%Y:%H:%M:%S ") + dt.strftime("%z"),
                dt.strftime("%H:%M:%S"),
                dt.strftime("%Y-%m-%d"),
            )
            self._seconds[second] = fields
        return fields, micro

    def apache_clf(self, sim_time: Micros) -> str:
        """Format ``sim_time`` as an Apache common-log-format timestamp.

        Example: ``01/Mar/2017:10:00:00 +0000``.
        """
        return self._second(sim_time)[0][0]

    def hms(self, sim_time: Micros) -> str:
        """Format as ``HH:MM:SS`` (the granularity SAR prints by default)."""
        return self._second(sim_time)[0][1]

    def hms_ms(self, sim_time: Micros) -> str:
        """Format as ``HH:MM:SS.mmm`` (millisecond granularity)."""
        fields, micro = self._second(sim_time)
        return f"{fields[1]}.{micro // 1000:03d}"

    def iso(self, sim_time: Micros) -> str:
        """Format as an ISO-8601 timestamp with microseconds."""
        return self.at(sim_time).isoformat()

    def date(self, sim_time: Micros) -> str:
        """Format as ``YYYY-MM-DD``."""
        return self._second(sim_time)[0][2]
