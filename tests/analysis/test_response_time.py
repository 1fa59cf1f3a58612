"""Tests for point-in-time response-time analysis."""

import pytest

from repro.analysis.response_time import (
    CompletionSample,
    completions_from_traces,
    completions_from_warehouse,
    point_in_time_response_times,
)
from repro.common.errors import AnalysisError
from repro.common.records import RequestTrace
from repro.common.timebase import ms
from repro.warehouse.db import MScopeDB


def sample(completed_ms, rt_ms, request_id="R0A000000001"):
    return CompletionSample(
        completed_at=ms(completed_ms),
        response_time_us=ms(rt_ms),
        request_id=request_id,
    )


def test_windows_cover_span():
    windows = point_in_time_response_times([], ms(50), 0, ms(200))
    assert len(windows) == 4
    assert windows[0].start == 0
    assert windows[-1].stop == ms(200)


def test_max_and_mean_per_window():
    samples = [sample(10, 5), sample(20, 15), sample(60, 100)]
    windows = point_in_time_response_times(samples, ms(50), 0, ms(100))
    assert windows[0].count == 2
    assert windows[0].max_ms == 15
    assert windows[0].mean_ms == 10
    assert windows[1].max_ms == 100


def test_empty_window_zeroes():
    samples = [sample(10, 5)]
    windows = point_in_time_response_times(samples, ms(50), 0, ms(100))
    assert windows[1].count == 0
    assert windows[1].max_ms == 0.0


def test_invalid_parameters_rejected():
    with pytest.raises(AnalysisError):
        point_in_time_response_times([], 0, 0, 100)
    with pytest.raises(AnalysisError):
        point_in_time_response_times([], 10, 100, 100)


def test_completions_from_traces_skips_incomplete():
    done = RequestTrace("R0A000000001", "ViewStory", client_send=0)
    done.client_receive = ms(12)
    pending = RequestTrace("R0A000000002", "ViewStory", client_send=0)
    samples = completions_from_traces([done, pending])
    assert len(samples) == 1
    assert samples[0].response_time_us == ms(12)


def test_completions_from_warehouse_rebases_epoch():
    db = MScopeDB()
    db.create_table(
        "apache_events_web1",
        [
            ("request_id", "TEXT"),
            ("interaction", "TEXT"),
            ("upstream_arrival_us", "INTEGER"),
            ("upstream_departure_us", "INTEGER"),
        ],
    )
    epoch = 1_000_000_000
    db.insert_rows(
        "apache_events_web1",
        ["request_id", "interaction", "upstream_arrival_us", "upstream_departure_us"],
        [("R0A000000001", "ViewStory", epoch + 100, epoch + 5_100)],
    )
    samples = completions_from_warehouse(db, epoch_us=epoch)
    assert samples[0].completed_at == 5_100
    assert samples[0].response_time_us == 5_000
    assert samples[0].interaction == "ViewStory"

