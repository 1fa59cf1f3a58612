"""Unit tests of the Diagnoser on synthetic warehouses."""

import pytest

from repro.analysis.cache import SeriesCache
from repro.analysis.diagnosis import Diagnoser, QueueFinding
from repro.analysis.queues import concurrency_from_sorted
from repro.common.errors import AnalysisError
from repro.warehouse.db import MScopeDB

EPOCH = 1_000_000_000
MS = 1_000


def make_event_table(db, table, spans, interaction="ViewStory"):
    db.create_table(
        table,
        [
            ("request_id", "TEXT"),
            ("interaction", "TEXT"),
            ("upstream_arrival_us", "INTEGER"),
            ("upstream_departure_us", "INTEGER"),
        ],
    )
    rows = [
        (f"R0A{i:09d}", interaction, EPOCH + a, EPOCH + d)
        for i, (a, d) in enumerate(spans)
    ]
    db.insert_rows(
        table,
        ["request_id", "interaction", "upstream_arrival_us", "upstream_departure_us"],
        rows,
    )


def healthy_spans(n=120, rt_us=5 * MS, spacing_us=10 * MS):
    return [(i * spacing_us, i * spacing_us + rt_us) for i in range(n)]


def anomalous_spans():
    spans = healthy_spans()
    # A burst of ten 300 ms requests starting around t=500 ms.
    spans += [(500 * MS + i * MS, 800 * MS + i * MS) for i in range(10)]
    return spans


def add_resource_table(db, table, column, values, step_us=50 * MS):
    db.create_table(
        table, [("timestamp_us", "INTEGER"), (column, "REAL")]
    )
    db.insert_rows(
        table,
        ["timestamp_us", column],
        [(EPOCH + i * step_us, v) for i, v in enumerate(values)],
    )
    hostname = table.rsplit("_", 1)[1]
    db.register_monitor("collectl", hostname, "p", "collectl_csv", table)


def test_missing_front_table_rejected():
    db = MScopeDB()
    with pytest.raises(AnalysisError):
        Diagnoser(db)


def test_missing_tier_tables_filtered():
    db = MScopeDB()
    make_event_table(db, "apache_events_web1", healthy_spans())
    diagnoser = Diagnoser(db)
    assert diagnoser.tier_tables == {"apache": "apache_events_web1"}


def test_healthy_warehouse_no_reports():
    db = MScopeDB()
    make_event_table(db, "apache_events_web1", healthy_spans())
    assert Diagnoser(db, epoch_us=EPOCH).diagnose() == []


def test_anomaly_without_resource_evidence_is_inconclusive():
    db = MScopeDB()
    make_event_table(db, "apache_events_web1", anomalous_spans())
    (report,) = Diagnoser(db, epoch_us=EPOCH).diagnose()
    assert report.causes == []
    assert "inconclusive" in report.to_text()


def test_saturated_disk_becomes_primary_cause():
    db = MScopeDB()
    make_event_table(db, "apache_events_web1", anomalous_spans())
    # Disk saturates in the 500-800 ms windows, quiet elsewhere.
    values = [5.0] * 10 + [98.0] * 7 + [5.0] * 10
    add_resource_table(db, "collectl_db1", "dsk_pctutil", values)
    (report,) = Diagnoser(db, epoch_us=EPOCH).diagnose()
    primary = report.primary_cause()
    assert primary is not None
    assert primary.kind == "disk_util"
    assert primary.hostname == "db1"


def test_below_threshold_metric_not_blamed():
    db = MScopeDB()
    make_event_table(db, "apache_events_web1", anomalous_spans())
    add_resource_table(db, "collectl_db1", "dsk_pctutil", [60.0] * 30)
    (report,) = Diagnoser(db, epoch_us=EPOCH).diagnose()
    assert report.primary_cause() is None


def test_small_dirty_drop_ignored():
    db = MScopeDB()
    make_event_table(db, "apache_events_web1", anomalous_spans())
    # A 100 KB dirty-page drop: log-buffer noise, not recycling.
    values = [100.0] * 12 + [10.0] * 18
    add_resource_table(db, "collectl_web1", "mem_dirty", values)
    (report,) = Diagnoser(db, epoch_us=EPOCH).diagnose()
    assert all(c.kind != "dirty_pages" for c in report.causes)


def test_large_dirty_drop_detected():
    db = MScopeDB()
    make_event_table(db, "apache_events_web1", anomalous_spans())
    values = [40_000.0] * 12 + [4_000.0] * 18  # 40 MB -> 4 MB
    add_resource_table(db, "collectl_web1", "mem_dirty", values)
    (report,) = Diagnoser(db, epoch_us=EPOCH).diagnose()
    assert any(c.kind == "dirty_pages" for c in report.causes)


def test_steal_threshold_lower_than_saturation():
    db = MScopeDB()
    make_event_table(db, "apache_events_web1", anomalous_spans())
    db.create_table(
        "sar_app1", [("timestamp_us", "INTEGER"), ("steal_pct", "REAL")]
    )
    db.insert_rows(
        "sar_app1",
        ["timestamp_us", "steal_pct"],
        [(EPOCH + i * 50 * MS, 50.0 if 10 <= i <= 16 else 0.0) for i in range(30)],
    )
    db.register_monitor("sar", "app1", "p", "sar_text", "sar_app1")
    (report,) = Diagnoser(db, epoch_us=EPOCH).diagnose()
    # 50% would not count as CPU saturation, but it does count as steal.
    assert any(c.kind == "cpu_steal" for c in report.causes)


def test_queue_finding_amplification():
    finding = QueueFinding(tier="apache", peak_queue=30.0, baseline_queue=2.0)
    assert finding.amplification == pytest.approx(15.0)
    zero_base = QueueFinding(tier="apache", peak_queue=10.0, baseline_queue=0.0)
    assert zero_base.amplification == pytest.approx(20.0)  # floor at 0.5


def test_windowed_queue_grid_may_start_before_the_cache_bound(monkeypatch):
    """A window selects VLRTs by completion, but their anomaly window,
    and the queue grid around it, starts at their arrival: seconds
    before the cache's lower bound when the requests are slow.  The
    span read is therefore bounded on the grid's start, and its
    findings are the ones a read of every span gives."""
    db = MScopeDB()
    # 14 s of healthy traffic, plus ten 3 s requests arriving at 10 s.
    spans = healthy_spans(n=1400)
    spans += [(10_000 * MS + i * MS, 13_000 * MS + i * MS) for i in range(10)]
    make_event_table(db, "apache_events_web1", spans)
    window = (12_900 * MS, 13_900 * MS)
    diagnoser = Diagnoser(db, epoch_us=EPOCH, window_us=window)
    (report,) = diagnoser.diagnose()
    grid_start = report.window.start - diagnoser.queue_context_us
    assert 0 < grid_start < diagnoser.cache.bounds[0] - 2_000 * MS

    # Bounding on the cache's lower bound instead would drop spans the
    # grid still counts.
    bound = diagnoser.cache.bounds[0]
    cache = SeriesCache(db, epoch_us=EPOCH)
    wrong = concurrency_from_sorted(
        *cache.tier_spans("apache_events_web1", bound), grid_start, bound, 10 * MS
    )
    right = cache.queue_series("apache_events_web1", grid_start, bound, 10 * MS)
    assert wrong.values.sum() < right.values.sum()

    load = SeriesCache.tier_spans
    monkeypatch.setattr(
        SeriesCache, "tier_spans", lambda self, table, since=None: load(self, table)
    )
    (unbounded,) = Diagnoser(db, epoch_us=EPOCH, window_us=window).diagnose()
    assert report.to_text() == unbounded.to_text()
    assert report.queue_findings == unbounded.queue_findings
