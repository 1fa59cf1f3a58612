"""Scale-out warehouse benchmark: parallel shard ingest and pruned reads.

Two measurements back the sharded warehouse's performance claims:

* **ingest throughput** — loading the same million synthetic Collectl
  rows (four hosts' worth) into one monolithic mScopeDB file with a
  single writer, vs four :class:`ShardHostWriter` processes each
  owning its host's shard files.  The floor is the acceptance
  criterion: four writers must at least double single-file throughput.
* **pruned-read speedup** — a one-window query against the sharded
  warehouse opens only the overlapping shard files (asserted via the
  ``shard_opens`` counter) and is timed against the same query
  scanning the whole history.

The default tier loads 1M rows; set ``MSCOPE_SCALE_ROWS=10000000``
for the 10M-row tier (nightly-scale, minutes not seconds).  When
``MSCOPE_BENCH_JSON`` names a file, the measured numbers are written
there in the shared bench-record schema (see ``benchmarks/record.py``)
— the CI ``warehouse-bench`` job uploads it as an artifact, so
throughput is a recorded curve over time, not a one-off.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from conftest import report
from record import record
from repro.warehouse.db import MScopeDB
from repro.warehouse.sharded import ShardedMScopeDB, ShardHostWriter

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
_CORES = os.cpu_count() or 1


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


def _ingest_monolith(db_path, rows_per_host: int) -> float:
    started = time.perf_counter()
    with MScopeDB(db_path) as db:
        with db.bulk_load():
            for index, host in enumerate(HOSTS):
                db.create_table(_table(host), COLUMNS)
                db.insert_rows(
                    _table(host),
                    [c for c, _ in COLUMNS],
                    _host_rows(index, rows_per_host),
                )
    return time.perf_counter() - started


def _shard_ingest_task(root_str: str, host: str, host_index: int, count: int):
    """One writer process: generate and load one host's shard files."""
    writer = ShardHostWriter(root_str, host, window_us=WINDOW_US)
    writer.ensure_table(_table(host), COLUMNS)
    writer.begin_bulk()
    writer.insert_rows(
        _table(host), [c for c, _ in COLUMNS], _host_rows(host_index, count)
    )
    writer.end_bulk()
    return writer.close()


def _ingest_sharded(root, rows_per_host: int, writers: int) -> float:
    started = time.perf_counter()
    db = ShardedMScopeDB(root, window_us=WINDOW_US)
    for host in HOSTS:
        db.create_table(_table(host), COLUMNS)
    with ProcessPoolExecutor(max_workers=writers) as pool:
        futures = [
            pool.submit(
                _shard_ingest_task, str(db.root), host, index, rows_per_host
            )
            for index, host in enumerate(HOSTS)
        ]
        for future in futures:
            db.register_shards(future.result())
    db.close()
    return time.perf_counter() - started


@pytest.mark.skipif(
    _CORES < 4,
    reason=(
        f"parallel shard ingest needs 4 writer cores to show its "
        f"floor; detected {_CORES}"
    ),
)
def test_sharded_ingest_throughput(tmp_path):
    rows_per_host = ROWS // len(HOSTS)

    # Warm-up at a fraction of the load: page cache, imports, pool.
    _ingest_monolith(tmp_path / "warm.db", rows_per_host // 10)
    _ingest_sharded(tmp_path / "warm.shards", rows_per_host // 10, 4)

    mono_s = min(
        _ingest_monolith(tmp_path / f"mono{r}.db", rows_per_host)
        for r in range(2)
    )
    shard_s = min(
        _ingest_sharded(tmp_path / f"shard{r}.shards", rows_per_host, 4)
        for r in range(2)
    )

    with ShardedMScopeDB(tmp_path / "shard0.shards") as db:
        loaded = sum(db.row_count(_table(host)) for host in HOSTS)
    assert loaded == rows_per_host * len(HOSTS)

    speedup = mono_s / shard_s
    total = rows_per_host * len(HOSTS)
    report(
        "Warehouse scale-out ingest",
        f"{total} rows over {len(HOSTS)} hosts: single-writer "
        f"{mono_s:.2f}s ({total / mono_s:,.0f} rows/s), 4 shard "
        f"writers {shard_s:.2f}s ({total / shard_s:,.0f} rows/s), "
        f"speedup {speedup:.2f}x (floor 2.0x)",
    )
    record(
        "ingest",
        rows=total,
        rows_tier=ROWS,
        hosts=len(HOSTS),
        single_writer_s=round(mono_s, 3),
        shard_writers_s=round(shard_s, 3),
        speedup=round(speedup, 2),
    )
    assert speedup >= 2.0


def test_pruned_window_read_speedup(tmp_path):
    rows_per_host = max(10_000, ROWS // 10) // len(HOSTS)
    _ingest_sharded(tmp_path / "read.shards", rows_per_host, min(4, _CORES))

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
