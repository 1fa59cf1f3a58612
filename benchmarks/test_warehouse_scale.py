"""Warehouse scale benchmarks: windowed reads against growing history.

A one-window query against a time-sharded warehouse opens only the
overlapping shard files (asserted via the ``shard_opens`` counter) and
is timed against the same query scanning the whole history.  On the
monolith, a windowed diagnosis's event-table reads at the tail of
100 k and of 1 M imported rows cost about the same: both search the
``departure`` index the importer builds.

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
from repro.analysis.cache import SeriesCache
from repro.analysis.response_time import completions_from_warehouse
from repro.transformer.importer import MScopeDataImporter
from repro.transformer.xml_to_csv import CsvTable
from repro.warehouse.db import MScopeDB
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


# ----------------------------------------------------------------------
# monolith: windowed event reads at the tail of a growing table

EVENT_TABLE = "apache_events_web1"
EVENT_COLUMNS = [
    ("request_id", "TEXT"),
    ("interaction", "TEXT"),
    ("upstream_arrival_us", "INTEGER"),
    ("upstream_departure_us", "INTEGER"),
]
#: One request per millisecond, so a 1 s window holds 1,000 of them at
#: any table size.
ARRIVAL_STEP_US = 1_000
#: Rows per import: the first creates the table and its indexes, the
#: rest land in the indexed table, as live ingest does.
IMPORT_CHUNK = 50_000
#: Repeats per read; the fastest is kept.
READ_REPEATS = 15
#: Bound on (1 M-row read time) / (100 k-row read time).  Both reads
#: search the same-sized index range; a read of the whole table would
#: take about 10x.
TAIL_READ_RATIO_BOUND = 3.0


def _event_rows(start: int, count: int) -> list[tuple]:
    """Deterministic requests: 4 ms, with every 97th taking 300 ms."""
    return [
        (
            f"R{i:07d}",
            ("ViewStory", "Search", "Login")[i % 3],
            i * ARRIVAL_STEP_US,
            i * ARRIVAL_STEP_US + (300_000 if i % 97 == 0 else 4_000),
        )
        for i in range(start, start + count)
    ]


def _import_events(path, rows: int) -> None:
    """Load ``rows`` synthetic requests through the importer."""
    with MScopeDB(path) as db:
        importer = MScopeDataImporter(db)
        for start in range(0, rows, IMPORT_CHUNK):
            importer.import_table(
                CsvTable(
                    name=EVENT_TABLE,
                    columns=EVENT_COLUMNS,
                    rows=_event_rows(start, min(IMPORT_CHUNK, rows - start)),
                    monitor="apache_events",
                    source="/logs/web1/apache_events.log",
                ),
                "web1",
                "apache_log",
            )


def _tail_read_s(path, rows: int) -> tuple[float, int]:
    """Fastest windowed completions + queue-span read of the last
    second, repeated on one handle, and the rows it returned."""
    stop = rows * ARRIVAL_STEP_US
    start = stop - 1_000_000
    best = float("inf")
    with MScopeDB(path) as db:
        for _ in range(READ_REPEATS):
            started = time.perf_counter()
            completions = completions_from_warehouse(
                db, EVENT_TABLE, start=start, stop=stop
            )
            cache = SeriesCache(db, bounds=(start, stop))
            arrivals, _ = cache.tier_spans(EVENT_TABLE, start)
            best = min(best, time.perf_counter() - started)
    return best, len(completions) + len(arrivals)


def test_monolith_tail_window_read_is_flat(tmp_path):
    sizes = (100_000, 1_000_000)
    measured = {}
    for rows in sizes:
        path = tmp_path / f"events-{rows}.db"
        _import_events(path, rows)
        measured[rows] = _tail_read_s(path, rows)
        path.unlink()
    (small_s, small_rows), (large_s, large_rows) = (
        measured[rows] for rows in sizes
    )
    # The same window, so the same answer size at either table size.
    assert small_rows == large_rows > 0
    ratio = large_s / small_s
    report(
        "Monolith windowed read at the tail",
        f"1 s completions + queue-span read: {small_s * 1000:.2f} ms at "
        f"{sizes[0]:,} rows, {large_s * 1000:.2f} ms at {sizes[1]:,} "
        f"(x{ratio:.2f})",
    )
    record(
        "mono_tail_read",
        rows_small=sizes[0],
        rows_large=sizes[1],
        small_ms=round(small_s * 1000, 3),
        large_ms=round(large_s * 1000, 3),
        ratio=round(ratio, 3),
    )
    assert ratio < TAIL_READ_RATIO_BOUND
