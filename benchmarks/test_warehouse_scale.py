"""Sharded warehouse benchmark: partition-pruned reads.

A one-window query against a time-sharded warehouse opens only the
overlapping shard files (asserted via the ``shard_opens`` counter) and
is timed against the same query scanning the whole history.

``MSCOPE_SCALE_ROWS`` (default 1M) sizes the tier; the read set is a
tenth of it, at least 10k rows.  When
``MSCOPE_BENCH_JSON`` names a file, the measured numbers are written
there in the shared bench-record schema (see ``benchmarks/record.py``)
— the CI ``warehouse-bench`` job uploads it as an artifact, so the
pruned-read cost is a recorded curve over time, not a one-off.
"""

import os
import time

from conftest import report
from record import record
from repro.warehouse.sharded import ShardedMScopeDB

HOSTS = ("web1", "web2", "db1", "db2")
ROWS = int(os.environ.get("MSCOPE_SCALE_ROWS", "1000000"))
#: One-minute shards; the row span covers ten of them.
WINDOW_US = 60 * 1_000_000
SPAN_WINDOWS = 10
COLUMNS = [
    ("timestamp_us", "INTEGER"),
    ("dsk_pctutil", "REAL"),
    ("cpu_user_pct", "REAL"),
]


def _table(host: str) -> str:
    return f"collectl_cpu_{host}"


def _host_rows(host_index: int, count: int) -> list[tuple]:
    """Deterministic synthetic samples spread over the full span."""
    step = max(1, SPAN_WINDOWS * WINDOW_US // count)
    return [
        (
            i * step,
            float((i * 7 + host_index) % 100),
            float((i * 13 + host_index) % 100),
        )
        for i in range(count)
    ]


def _ingest_sharded(root, rows_per_host: int) -> None:
    """Load every host's rows through the warehouse's own write path."""
    with ShardedMScopeDB(root, window_us=WINDOW_US) as db:
        with db.bulk_load():
            for index, host in enumerate(HOSTS):
                db.create_table(_table(host), COLUMNS)
                db.insert_rows(
                    _table(host),
                    [c for c, _ in COLUMNS],
                    _host_rows(index, rows_per_host),
                )


def test_pruned_window_read_speedup(tmp_path):
    rows_per_host = max(10_000, ROWS // 10) // len(HOSTS)
    _ingest_sharded(tmp_path / "read.shards", rows_per_host)

    sql = (
        f"SELECT COUNT(*), SUM(dsk_pctutil) FROM {_table('db1')} "
        f"WHERE timestamp_us >= ? AND timestamp_us < ?"
    )
    last = ((SPAN_WINDOWS - 1) * WINDOW_US, SPAN_WINDOWS * WINDOW_US)

    def timed_query(bounds, pruned):
        db = ShardedMScopeDB(tmp_path / "read.shards")
        try:
            started = time.perf_counter()
            # One (count, sum) per shard read; a shard with no row in
            # bounds reports (0, NULL).
            parts = db.query_table(
                _table("db1"),
                sql,
                bounds,
                window=bounds if pruned else (None, None),
            )
            rows = (
                sum(count for count, _ in parts),
                sum(total or 0.0 for _, total in parts),
            )
            return time.perf_counter() - started, rows, db.shard_opens
        finally:
            db.close()

    full_s, full_rows, full_opens = timed_query(last, pruned=False)
    pruned_s, pruned_rows, pruned_opens = timed_query(last, pruned=True)

    assert pruned_rows == full_rows
    # The point of partitioning: the windowed read must not touch the
    # nine windows outside its bounds.
    assert 0 < pruned_opens < full_opens

    speedup = full_s / pruned_s if pruned_s > 0 else float("inf")
    report(
        "Partition-pruned window read",
        f"1-of-{SPAN_WINDOWS}-windows query: unpruned opens "
        f"{full_opens} shards in {full_s * 1000:.1f}ms, pruned opens "
        f"{pruned_opens} in {pruned_s * 1000:.1f}ms "
        f"(speedup {speedup:.1f}x)",
    )
    record(
        "pruned_read",
        rows_per_host=rows_per_host,
        rows_tier=ROWS,
        unpruned_opens=full_opens,
        pruned_opens=pruned_opens,
        unpruned_s=round(full_s, 4),
        pruned_s=round(pruned_s, 4),
        speedup=round(speedup, 2),
    )
