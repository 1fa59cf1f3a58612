"""Tests for the simulation time base and wall-clock mapping."""

import datetime

import pytest

from repro.common.timebase import (
    DEFAULT_EPOCH,
    WallClock,
    minutes,
    ms,
    seconds,
    to_ms,
    to_seconds,
)


def test_ms_round_trips():
    assert ms(1) == 1_000
    assert ms(2.5) == 2_500
    assert to_ms(2_500) == 2.5


def test_seconds_and_minutes():
    assert seconds(1) == 1_000_000
    assert seconds(0.001) == 1_000
    assert minutes(7) == 420_000_000
    assert to_seconds(1_500_000) == 1.5


def test_conversions_are_integers():
    assert isinstance(ms(0.1234), int)
    assert isinstance(seconds(1.23456789), int)


def test_wallclock_epoch_default():
    clock = WallClock()
    assert clock.epoch == DEFAULT_EPOCH
    assert clock.at(0) == DEFAULT_EPOCH


def test_wallclock_requires_timezone():
    with pytest.raises(ValueError):
        WallClock(datetime.datetime(2017, 3, 1))


def test_wallclock_advances():
    clock = WallClock()
    later = clock.at(seconds(90))
    assert later - clock.epoch == datetime.timedelta(seconds=90)


def test_apache_clf_format():
    clock = WallClock()
    stamp = clock.apache_clf(0)
    assert stamp == "01/Mar/2017:10:00:00 +0000"


def test_hms_formats():
    clock = WallClock()
    assert clock.hms(seconds(62)) == "10:01:02"
    assert clock.hms_ms(ms(1234.5)) == "10:00:01.234"


def test_iso_and_date():
    clock = WallClock()
    assert clock.date(0) == "2017-03-01"
    assert clock.iso(0).startswith("2017-03-01T10:00:00")


def test_epoch_micros_monotone():
    clock = WallClock()
    assert clock.epoch_micros(10) - clock.epoch_micros(0) == 10


def _reference(clock, sim_time):
    """The formats as strftime renders them from scratch."""
    dt = clock.at(sim_time)
    return (
        dt.strftime("%d/%b/%Y:%H:%M:%S ") + dt.strftime("%z"),
        dt.strftime("%H:%M:%S"),
        dt.strftime("%H:%M:%S.") + f"{dt.microsecond // 1000:03d}",
        dt.strftime("%Y-%m-%d"),
    )


def _formatted(clock, sim_time):
    return (
        clock.apache_clf(sim_time),
        clock.hms(sim_time),
        clock.hms_ms(sim_time),
        clock.date(sim_time),
    )


@pytest.mark.parametrize(
    "epoch",
    [
        DEFAULT_EPOCH,
        # A skewed node's epoch sits off the whole second.
        DEFAULT_EPOCH + datetime.timedelta(microseconds=999_400),
        DEFAULT_EPOCH + datetime.timedelta(microseconds=-250),
    ],
)
def test_cached_formats_match_strftime_across_a_second_boundary(epoch):
    clock = WallClock(epoch)
    boundary = seconds(3) - epoch.microsecond
    times = [boundary - 1_001, boundary - 1, boundary, boundary + 999, 0, 1]
    # Revisit every second after moving past it: the cache is keyed on
    # the second, not on the last call.
    for sim_time in times + times[::-1]:
        assert _formatted(clock, sim_time) == _reference(clock, sim_time)


def test_cached_formats_match_strftime_across_midnight():
    epoch = datetime.datetime(
        2017, 3, 1, 23, 59, 58, 600_000, tzinfo=datetime.timezone.utc
    )
    clock = WallClock(epoch)
    for sim_time in (0, 1_399_999, 1_400_000, 1_400_001, 2_400_000, 0):
        assert _formatted(clock, sim_time) == _reference(clock, sim_time)
    assert clock.date(1_399_999) == "2017-03-01"
    assert clock.hms_ms(1_399_999) == "23:59:59.999"
    assert clock.date(1_400_000) == "2017-03-02"
    assert clock.apache_clf(1_400_000) == "02/Mar/2017:00:00:00 +0000"
    assert clock.hms_ms(1_400_000) == "00:00:00.000"


def test_format_cache_stays_bounded():
    clock = WallClock()
    for second in range(1_000):
        assert clock.hms(seconds(second)) == _reference(clock, seconds(second))[1]
    assert len(clock._seconds) <= 64
