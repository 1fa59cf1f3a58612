"""Multi-window diagnosis + analysis-stage telemetry tests."""

import pytest

from repro.analysis.diagnosis import Diagnoser
from repro.telemetry.spans import TelemetryCollector, zero_clock
from repro.warehouse.db import MScopeDB

EPOCH = 1_000_000_000
MS = 1_000


def two_burst_spans():
    """Healthy traffic with two separated VLRT bursts → two windows."""
    spans = [(i * 10 * MS, i * 10 * MS + 5 * MS) for i in range(300)]
    spans += [(500 * MS + i * MS, 800 * MS + i * MS) for i in range(10)]
    spans += [(2_000 * MS + i * MS, 2_300 * MS + i * MS) for i in range(10)]
    return spans


def build_warehouse(path):
    db = MScopeDB(path)
    db.create_table(
        "apache_events_web1",
        [
            ("request_id", "TEXT"),
            ("interaction", "TEXT"),
            ("upstream_arrival_us", "INTEGER"),
            ("upstream_departure_us", "INTEGER"),
        ],
    )
    db.insert_rows(
        "apache_events_web1",
        ["request_id", "interaction", "upstream_arrival_us", "upstream_departure_us"],
        [
            (f"R0A{i:09d}", "ViewStory", EPOCH + a, EPOCH + d)
            for i, (a, d) in enumerate(two_burst_spans())
        ],
    )
    # Disk saturation covering the first burst only: the two windows
    # must come back with *different* causes, in window order.
    db.create_table(
        "collectl_db1", [("timestamp_us", "INTEGER"), ("dsk_pctutil", "REAL")]
    )
    db.insert_rows(
        "collectl_db1",
        ["timestamp_us", "dsk_pctutil"],
        [
            (EPOCH + i * 50 * MS, 98.0 if 10 <= i <= 16 else 5.0)
            for i in range(70)
        ],
    )
    db.register_monitor("collectl", "db1", "p", "collectl_csv", "collectl_db1")
    return db


@pytest.fixture
def warehouse(tmp_path):
    db = build_warehouse(tmp_path / "mscope.db")
    yield db
    db.close()


def test_windows_get_distinct_causes_in_order(warehouse):
    first, second = Diagnoser(warehouse, epoch_us=EPOCH).diagnose()
    assert first.window.start < second.window.start
    assert first.primary_cause() is not None
    assert first.primary_cause().kind == "disk_util"
    assert second.primary_cause() is None  # disk was quiet by then


def test_telemetry_spans_cover_the_run(warehouse):
    telemetry = TelemetryCollector(clock=zero_clock)
    diagnoser = Diagnoser(warehouse, epoch_us=EPOCH, telemetry=telemetry)
    diagnoser.diagnose()
    stages = [s.stage for s in telemetry.spans]
    assert stages[0] == "analysis.completions"
    assert "analysis.candidates" in stages
    assert stages.count("analysis.window") == 2
    assert stages[-1] == "analysis.run"
    assert "analysis.load_spans" in stages  # cache loads credited too
    assert all(stage.startswith("analysis.") for stage in stages)


def test_persist_stages_lands_next_to_ingest_rows(warehouse):
    # Simulate a prior transform's persisted telemetry...
    warehouse.append_pipeline_metrics([("parse", "web1", "a.log", 10, 100, 0, 5)])
    telemetry = TelemetryCollector(clock=zero_clock)
    Diagnoser(warehouse, epoch_us=EPOCH, telemetry=telemetry).diagnose()
    telemetry.persist_stages(warehouse)
    rows = warehouse.query(
        "SELECT stage FROM pipeline_metrics ORDER BY seq"
    )
    stages = [r[0] for r in rows]
    assert stages[0] == "parse"  # ingest telemetry untouched
    assert "analysis.run" in stages
    # Re-running analysis replaces only its own rows (idempotent).
    telemetry.persist_stages(warehouse)
    rerun = [r[0] for r in warehouse.query("SELECT stage FROM pipeline_metrics")]
    assert rerun.count("parse") == 1
    assert rerun.count("analysis.run") == 1


def test_diagnose_rerun_reuses_cache(warehouse):
    diagnoser = Diagnoser(warehouse, epoch_us=EPOCH)
    first = diagnoser.diagnose()
    loads_after_first = diagnoser.cache.misses
    second = diagnoser.diagnose()
    assert second == first
    assert diagnoser.cache.misses == loads_after_first  # all hits
