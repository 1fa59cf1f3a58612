"""Wall-clock string parsing shared by the mScopeParsers.

Every parser normalizes its source's timestamp dialect into one tag —
``timestamp_us``, integer microseconds since the Unix epoch — so the
warehouse can join series from different monitors on a common axis.

A log repeats one date on every line and each ``HH:MM:SS`` on every
line of that second, so the date and the whole-second parse are
memoised; a string that fails raises on every call (``lru_cache``
never caches an exception).
"""

from __future__ import annotations

import datetime as _dt
import functools

from repro.common.errors import ParseError

__all__ = ["wall_to_epoch_us", "clf_to_epoch_us", "compact_date_to_iso"]

_UTC = _dt.timezone.utc


def wall_to_epoch_us(date_str: str, time_str: str) -> int:
    """Combine ``YYYY-MM-DD``/``MM/DD/YYYY``/``YYYYMMDD`` and ``HH:MM:SS[.mmm]``.

    All milliScope logs are written in UTC (the testbed's convention),
    so no timezone inference is attempted.
    """
    parts = time_str.split(".")
    try:
        seconds = _epoch_seconds(date_str, parts[0])
    except ValueError as exc:
        raise ParseError(f"bad time {time_str!r}: {exc}") from exc
    micros = 0
    if len(parts) == 2:
        fraction = parts[1]
        if not fraction.isdigit() or len(fraction) > 6:
            raise ParseError(f"bad fractional seconds in {time_str!r}")
        micros = int(fraction.ljust(6, "0"))
    elif len(parts) > 2:
        raise ParseError(f"bad time {time_str!r}")
    return seconds * 1_000_000 + micros


@functools.lru_cache(maxsize=1024)
def _epoch_seconds(date_str: str, clock_str: str) -> int:
    """Whole epoch seconds of a date and an ``HH:MM:SS`` clock.

    Raises :class:`ParseError` for a bad date and ``ValueError`` for a
    bad clock, which the caller words with the full time string.
    """
    date = _parse_date(date_str)
    clock = _dt.datetime.strptime(clock_str, "%H:%M:%S").time()
    return int(_dt.datetime.combine(date, clock, tzinfo=_UTC).timestamp())


@functools.lru_cache(maxsize=256)
def _parse_date(date_str: str) -> _dt.date:
    for fmt in ("%Y-%m-%d", "%m/%d/%Y", "%Y%m%d", "%y%m%d"):
        try:
            return _dt.datetime.strptime(date_str, fmt).date()
        except ValueError:
            continue
    raise ParseError(f"unrecognized date {date_str!r}")


def clf_to_epoch_us(clf: str) -> int:
    """Parse an Apache common-log-format timestamp (second granularity)."""
    try:
        stamp = _dt.datetime.strptime(clf, "%d/%b/%Y:%H:%M:%S %z")
    except ValueError as exc:
        raise ParseError(f"bad CLF timestamp {clf!r}: {exc}") from exc
    return int(stamp.timestamp()) * 1_000_000


def compact_date_to_iso(date_str: str) -> str:
    """Normalize any accepted date spelling to ``YYYY-MM-DD``."""
    return _parse_date(date_str).isoformat()
