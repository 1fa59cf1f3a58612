"""Serve-daemon tail sampling: deferred VLRT evidence survives drain.

The daemon threads ONE shared tail-sampling policy through its one
LiveTransformer, so a request proved slow on one tier retroactively
commits its buffered records from all tiers.  The SIGTERM drain must
flush every withheld record before the final diagnosis — the closing
warehouse equals a sampled batch transform of the same tree.
"""

import pytest

from repro.common.records import BoundaryRecord
from repro.common.timebase import WallClock, ms
from repro.serve.daemon import MScopeServeDaemon, ServeConfig
from repro.serve.render import render_stats
from repro.transformer.pipeline import MScopeDataTransformer
from repro.warehouse.db import MScopeDB

WALL = WallClock()

SAMPLING = "tail:0.3:50"


def mysql_line(i, host, span_ms=2, rid=None):
    boundary = BoundaryRecord(
        request_id=rid or f"R0A00000000{i}",
        tier="mysql",
        node=host,
        upstream_arrival=ms(10 * (i + 1)),
        upstream_departure=ms(10 * (i + 1) + span_ms),
    )
    return format_line(boundary, i)


def format_line(boundary, i):
    from repro.logfmt.mysql import format_mscope_query

    return format_mscope_query(WALL, boundary, f"SELECT {i}")


def append(path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        for line in lines:
            handle.write(line + "\n")


@pytest.fixture()
def vlrt_storm(tmp_path):
    """Six hosts of fast traffic; RVLRT is fast on db0 (deferred) and
    crosses the 50 ms threshold only on db5 — the last host a cycle
    reaches."""
    root = tmp_path / "logs"
    for n in range(6):
        lines = [mysql_line(i, f"db{n}") for i in range(3)]
        if n == 0:
            lines.append(mysql_line(7, "db0", span_ms=2, rid="RVLRT0000001"))
        if n == 5:
            lines.append(mysql_line(8, "db5", span_ms=80, rid="RVLRT0000001"))
        append(root / f"db{n}" / "mysql_log.log", lines)
    return root


def rows_for(db, table, rid):
    return db.query(
        f"SELECT request_id FROM {table} WHERE request_id = ?", (rid,)
    )


def test_storm_drain_commits_deferred_vlrt_records(vlrt_storm):
    daemon = MScopeServeDaemon(ServeConfig(logs=vlrt_storm, sampling=SAMPLING))
    daemon.ingest_cycle()
    # After a cycle, db0's fast RVLRT record sits in the deferral buffer.
    assert rows_for(daemon.db, "mysql_events_db0", "RVLRT0000001") == []
    daemon.drain()
    # Drain flushed the shared policy: the deferred db0 record of the
    # now-decided VLRT landed retroactively, on both tiers.
    assert len(rows_for(daemon.db, "mysql_events_db0", "RVLRT0000001")) == 1
    assert len(rows_for(daemon.db, "mysql_events_db5", "RVLRT0000001")) == 1
    # And the ledger shows sampling actually happened.
    summary = daemon.db.sampling_summary()
    assert summary["policies"] == [SAMPLING]
    assert summary["rows_kept"] < summary["rows_seen"]


def test_drained_sampled_warehouse_matches_sampled_batch(vlrt_storm):
    daemon = MScopeServeDaemon(ServeConfig(logs=vlrt_storm, sampling=SAMPLING))
    daemon.ingest_cycle()
    daemon.drain()
    batch = MScopeDB()
    MScopeDataTransformer(batch, sampling=SAMPLING).transform_directory(
        vlrt_storm
    )
    assert list(daemon.db.iterdump_content()) == list(
        batch.iterdump_content()
    )


def test_stats_expose_sampling_gauges(vlrt_storm):
    daemon = MScopeServeDaemon(
        ServeConfig(logs=vlrt_storm, sampling=SAMPLING)
    )
    daemon.ingest_cycle()
    daemon.drain()
    assert daemon.state.sampled_rows > daemon.state.kept_rows > 0
    body, _ = render_stats(
        "prom", daemon.telemetry_snapshot(), daemon.state,
        daemon.broker.counts,
    )
    assert f"mscope_serve_sampled_total {daemon.state.sampled_rows}" in body
    assert f"mscope_serve_kept_total {daemon.state.kept_rows}" in body
    # An unsampled daemon reports zeros, not absence: the gauge set is
    # stable for scrapers.
    plain = MScopeServeDaemon(ServeConfig(logs=vlrt_storm))
    plain.ingest_cycle()
    body, _ = render_stats(
        "prom", plain.telemetry_snapshot(), plain.state,
        plain.broker.counts,
    )
    assert "mscope_serve_sampled_total 0" in body
