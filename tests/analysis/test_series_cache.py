"""Tests for the SeriesCache — the diagnosis engine's columnar layer."""

import numpy as np
import pytest

from repro.analysis.cache import SeriesCache
from repro.analysis.metrics import metric_series
from repro.analysis.queues import concurrency_series, spans_from_warehouse
from repro.telemetry.spans import SpanData, SpanProbe
from repro.warehouse.db import MScopeDB

EPOCH = 1_000_000_000
MS = 1_000


@pytest.fixture
def db():
    db = MScopeDB()
    db.create_table(
        "collectl_db1", [("timestamp_us", "INTEGER"), ("dsk_pctutil", "REAL")]
    )
    db.insert_rows(
        "collectl_db1",
        ["timestamp_us", "dsk_pctutil"],
        [(EPOCH + i * 10 * MS, float(i % 100)) for i in range(200)],
    )
    db.create_table(
        "apache_events_web1",
        [
            ("request_id", "TEXT"),
            ("upstream_arrival_us", "INTEGER"),
            ("upstream_departure_us", "INTEGER"),
        ],
    )
    db.insert_rows(
        "apache_events_web1",
        ["request_id", "upstream_arrival_us", "upstream_departure_us"],
        [(f"R{i}", EPOCH + 5 * MS * i, EPOCH + 5 * MS * i + 8 * MS) for i in range(50)],
    )
    return db


def test_metric_loaded_once(db):
    cache = SeriesCache(db, epoch_us=EPOCH)
    first = cache.metric("collectl_db1", ("dsk_pctutil",))
    second = cache.metric("collectl_db1", ("dsk_pctutil",))
    assert first is second
    assert (cache.misses, cache.hits) == (1, 1)


def test_metric_matches_direct_query(db):
    cache = SeriesCache(db, epoch_us=EPOCH)
    cached = cache.metric("collectl_db1", ("dsk_pctutil",))
    direct = metric_series(db, "collectl_db1", ("dsk_pctutil",), epoch_us=EPOCH)
    np.testing.assert_array_equal(cached.times, direct.times)
    np.testing.assert_array_equal(cached.values, direct.values)


def test_window_matches_sql_bounded_query(db):
    """A cached slice equals the SQL-filtered scalar query bit for bit."""
    cache = SeriesCache(db, epoch_us=EPOCH)
    start, stop = 200 * MS, 700 * MS
    sliced = cache.window("collectl_db1", ("dsk_pctutil",), start, stop)
    direct = metric_series(
        db, "collectl_db1", ("dsk_pctutil",), epoch_us=EPOCH, start=start, stop=stop
    )
    np.testing.assert_array_equal(sliced.times, direct.times)
    np.testing.assert_array_equal(sliced.values, direct.values)


def test_queue_series_matches_scalar_kernel(db):
    cache = SeriesCache(db, epoch_us=EPOCH)
    cached = cache.queue_series("apache_events_web1", 0, 300 * MS, 10 * MS)
    spans = spans_from_warehouse(db, "apache_events_web1", EPOCH)
    direct = concurrency_series(spans, 0, 300 * MS, 10 * MS)
    np.testing.assert_array_equal(cached.times, direct.times)
    np.testing.assert_array_equal(cached.values, direct.values)


def test_queue_series_merges_replicated_tier(db):
    db.create_table(
        "apache_events_web2",
        [
            ("request_id", "TEXT"),
            ("upstream_arrival_us", "INTEGER"),
            ("upstream_departure_us", "INTEGER"),
        ],
    )
    db.insert_rows(
        "apache_events_web2",
        ["request_id", "upstream_arrival_us", "upstream_departure_us"],
        [("RX", EPOCH + 2 * MS, EPOCH + 90 * MS)],
    )
    cache = SeriesCache(db, epoch_us=EPOCH)
    merged = cache.queue_series(
        ["apache_events_web1", "apache_events_web2"], 0, 100 * MS, 10 * MS
    )
    spans = spans_from_warehouse(db, "apache_events_web1", EPOCH)
    spans += spans_from_warehouse(db, "apache_events_web2", EPOCH)
    direct = concurrency_series(spans, 0, 100 * MS, 10 * MS)
    np.testing.assert_array_equal(merged.values, direct.values)


def test_resample_memoized_by_key_and_grid(db):
    cache = SeriesCache(db, epoch_us=EPOCH)
    series = cache.metric("collectl_db1", ("dsk_pctutil",))
    grid = np.arange(0, 500 * MS, 25 * MS, dtype=np.int64)
    first = cache.resample_keyed("k", series, grid)
    second = cache.resample_keyed("k", series, grid)
    assert first is second
    # A different grid (or key) is a distinct entry, not a stale hit.
    other = cache.resample_keyed("k", series, grid[:-1])
    assert other is not first
    np.testing.assert_array_equal(first.values, series.resample(grid).values)


def test_clear_forgets_everything(db):
    cache = SeriesCache(db, epoch_us=EPOCH)
    cache.metric("collectl_db1", ("dsk_pctutil",))
    cache.tier_spans("apache_events_web1")
    cache.clear()
    cache.metric("collectl_db1", ("dsk_pctutil",))
    assert cache.misses == 3


def test_loads_credited_to_spans(db):
    spans: list[SpanData] = []
    cache = SeriesCache(db, epoch_us=EPOCH, probe=SpanProbe(), spans=spans)
    cache.metric("collectl_db1", ("dsk_pctutil",))
    cache.queue_series("apache_events_web1", 0, 100 * MS, 10 * MS)
    cache.metric("collectl_db1", ("dsk_pctutil",))  # hit: no new span
    stages = [s.stage for s in spans]
    assert stages == ["analysis.load_metric", "analysis.load_spans"]
    assert spans[0].records == 200
    assert spans[1].records == 50


def test_empty_event_table_yields_zero_queue(db):
    db.create_table(
        "tomcat_events_app1",
        [
            ("request_id", "TEXT"),
            ("upstream_arrival_us", "INTEGER"),
            ("upstream_departure_us", "INTEGER"),
        ],
    )
    cache = SeriesCache(db, epoch_us=EPOCH)
    series = cache.queue_series("tomcat_events_app1", 0, 50 * MS, 10 * MS)
    assert series.max() == 0.0
    assert len(series) == 5


def test_window_slices_share_parent_buffer(db):
    """Windows are views, not copies — the whole point of the cache."""
    cache = SeriesCache(db, epoch_us=EPOCH)
    parent = cache.metric("collectl_db1", ("dsk_pctutil",))
    sliced = cache.window("collectl_db1", ("dsk_pctutil",), 0, 10**9)
    assert sliced.values.base is parent.values or sliced.values is parent.values


def test_departure_bound_is_exact_from_since(db):
    """Spans that departed before ``since`` are not read, and the
    queue series of every grid starting at or after ``since`` is the
    one all spans give."""
    db.insert_rows(
        "apache_events_web1",
        ["request_id", "upstream_arrival_us", "upstream_departure_us"],
        # Long requests, one departing on a grid point, one still open.
        [
            ("L1", EPOCH + 10 * MS, EPOCH + 190 * MS),
            ("L2", EPOCH + 30 * MS, EPOCH + 120 * MS),
            ("L3", EPOCH + 40 * MS, None),
        ],
    )
    spans = spans_from_warehouse(db, "apache_events_web1", EPOCH)
    for since in (0, 57 * MS, 120 * MS, 200 * MS):
        cache = SeriesCache(db, epoch_us=EPOCH)
        arrivals, departures = cache.tier_spans("apache_events_web1", since)
        assert len(departures) == sum(d >= since for _, d in spans)
        for start in (since, since + 3 * MS, since + 40 * MS):
            cached = cache.queue_series(
                "apache_events_web1", start, start + 100 * MS, 10 * MS
            )
            direct = concurrency_series(spans, start, start + 100 * MS, 10 * MS)
            np.testing.assert_array_equal(cached.values, direct.values)
        assert cache.misses == 1


def test_earlier_grid_reloads_spans(db):
    cache = SeriesCache(db, epoch_us=EPOCH)
    late = cache.queue_series("apache_events_web1", 200 * MS, 300 * MS, 10 * MS)
    early = cache.queue_series("apache_events_web1", 0, 300 * MS, 10 * MS)
    assert cache.misses == 2
    spans = spans_from_warehouse(db, "apache_events_web1", EPOCH)
    direct = concurrency_series(spans, 0, 300 * MS, 10 * MS)
    np.testing.assert_array_equal(early.values, direct.values)
    np.testing.assert_array_equal(late.values, direct.values[20:])
    # The whole-table load serves every later grid.
    cache.queue_series("apache_events_web1", 100 * MS, 200 * MS, 10 * MS)
    cache.tier_spans("apache_events_web1")
    full = SeriesCache(db, epoch_us=EPOCH)
    full.tier_spans("apache_events_web1")
    full.queue_series("apache_events_web1", 0, 100 * MS, 10 * MS)
    assert (cache.misses, full.misses) == (3, 1)
