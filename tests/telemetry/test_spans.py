"""Unit tests of the span measurement layer and the collector."""

import pytest
from hypothesis import given, strategies as st

from repro.telemetry.spans import (
    MAIN_WORKER,
    NULL_TELEMETRY,
    SpanData,
    TelemetryCollector,
    zero_clock,
)
from repro.warehouse.db import MScopeDB


def ticking_clock(values):
    """A clock replaying a fixed sequence of nanosecond readings."""
    iterator = iter(values)
    return lambda: next(iterator)


def test_span_measures_duration_and_attribution():
    collector = TelemetryCollector(clock=ticking_clock([100, 350]))
    with collector.span("parse", "web1", "/x/access.log", parent="file") as s:
        s.add(records=7, bytes=1024)
        s.add(errors=2)
    (span,) = collector.spans
    assert span == SpanData(
        stage="parse",
        hostname="web1",
        source_path="/x/access.log",
        parent="file",
        start_ns=100,
        duration_ns=250,
        records=7,
        bytes=1024,
        errors=2,
    )


def test_span_closes_on_exception():
    collector = TelemetryCollector(clock=ticking_clock([1, 2]))
    with pytest.raises(RuntimeError):
        with collector.span("convert"):
            raise RuntimeError("stage blew up")
    assert [s.stage for s in collector.spans] == ["convert"]


@given(st.integers(0, 2**40), st.integers(0, 2**40))
def test_duration_never_negative_even_with_misbehaving_clock(start, end):
    """Property: a backwards-jumping injected clock still yields a
    non-negative duration (the aggregation layer relies on it)."""
    collector = TelemetryCollector(clock=ticking_clock([start, end]))
    with collector.span("parse"):
        pass
    (span,) = collector.spans
    assert span.duration_ns == max(0, end - start)
    assert span.duration_ns >= 0


def test_disabled_probe_never_touches_clock_or_output():
    def exploding_clock():
        raise AssertionError("disabled collector called the clock")

    collector = TelemetryCollector(clock=exploding_clock, enabled=False)
    with collector.span("parse") as span:
        span.add(records=10)
    collector.start_run()
    collector.record_queue_depth(3)
    assert collector.finish_run() == 0
    assert collector.spans == [] and collector.queue_depth == []
    assert NULL_TELEMETRY.span("x") is collector.span("y")


def test_worker_spans_carry_the_worker_label():
    collector = TelemetryCollector(clock=zero_clock, worker="pid-9")
    with collector.span("parse"):
        pass
    assert collector.spans[0].worker == "pid-9"


def test_collector_wall_time_accumulates_across_runs():
    collector = TelemetryCollector(clock=ticking_clock([10, 30, 100, 150]))
    collector.start_run()
    assert collector.finish_run() == 20
    collector.start_run()
    assert collector.finish_run() == 50
    assert collector.wall_ns == 70
    assert collector.finish_run() == 0  # no run in flight


def test_collector_ingests_in_call_order_and_aggregates():
    collector = TelemetryCollector(clock=zero_clock)
    collector.ingest([SpanData(stage="parse", records=3, worker="pid-7")])
    collector.ingest((SpanData(stage="import", records=3),))
    collector.record_queue_depth(2)
    telemetry = collector.run_telemetry()
    assert [s.stage for s in collector.spans] == ["parse", "import"]
    assert telemetry.stages["parse"].records == 3
    assert sorted(telemetry.workers) == ["main", "w0"]
    assert telemetry.queue_depth == [(0, 2)]


def test_persist_round_trips_through_warehouse():
    collector = TelemetryCollector(clock=zero_clock)
    collector.start_run()
    collector.ingest(
        [
            SpanData(stage="parse", hostname="web1", source_path="a.log",
                     records=5, bytes=100),
            SpanData(stage="import", hostname="web1", source_path="a.log",
                     records=5),
        ]
    )
    collector.finish_run()
    db = MScopeDB()
    collector.persist(db)
    assert db.has_pipeline_metrics()
    rows = db.pipeline_metrics()
    assert [(r[0], r[3]) for r in rows] == [("parse", 5), ("import", 5)]
    workers = db.pipeline_workers()
    assert [w[0] for w in workers] == [MAIN_WORKER]
    # Re-persisting replaces, not appends.
    collector.persist(db)
    assert len(db.pipeline_metrics()) == 2


def test_null_telemetry_is_inert():
    db = MScopeDB()
    NULL_TELEMETRY.start_run()
    NULL_TELEMETRY.ingest([SpanData(stage="parse")])
    NULL_TELEMETRY.record_queue_depth(5)
    assert NULL_TELEMETRY.finish_run() == 0
    NULL_TELEMETRY.persist(db)
    NULL_TELEMETRY.persist_stages(db)
    with NULL_TELEMETRY.span("analysis.run") as span:
        span.add(records=1)
    assert NULL_TELEMETRY.spans == []
    assert NULL_TELEMETRY.queue_depth == []
    assert not NULL_TELEMETRY.enabled
    assert "pipeline_metrics" not in db.tables()
