"""Tests for the host/time-partitioned warehouse (``ShardedMScopeDB``).

The sharded warehouse's contract is *transparency*: behind the
``MScopeDB`` API it must hold exactly the monolith's content (checked
here table-by-table and via the canonical content dump), while its
*reads* open only the shard files their time window overlaps (checked
via the ``shard_opens`` counter the acceptance criteria name).
"""

import pytest

from repro.common.errors import WarehouseError
from repro.warehouse.db import MScopeDB
from repro.warehouse.explorer import WarehouseExplorer
from repro.warehouse.sharded import (
    ShardedMScopeDB,
    host_for_table,
    open_warehouse,
)

SECOND = 1_000_000
#: Shard width used throughout: one minute.  Wide enough that the
#: 30 s in-flight slack windowed reads apply still prunes most shards.
WINDOW = 60 * SECOND

EVENT_COLUMNS = [
    ("request_id", "TEXT"),
    ("interaction", "TEXT"),
    ("upstream_arrival_us", "INTEGER"),
    ("upstream_departure_us", "INTEGER"),
]
METRIC_COLUMNS = [("timestamp_us", "INTEGER"), ("dsk_pctutil", "REAL")]


def _populate(db, minutes=5, per_minute=4):
    """Identical content for any warehouse implementation.

    Event rows for web1 spread over ``minutes`` one-minute windows
    (the last request of each minute *spans* into the next one);
    Collectl disk samples for db1 over the same range; one metric row
    with a NULL timestamp (lands in the misc shard when sharded).
    """
    db.register_host("web1", "apache", 4, 100_000_000)
    db.register_host("db1", "mysql", 4, 100_000_000)
    db.create_table("apache_events_web1", EVENT_COLUMNS)
    db.create_table("collectl_cpu_db1", METRIC_COLUMNS)
    db.register_monitor(
        "collectl", "db1", "/logs/db1/c.log", "collectl_csv", "collectl_cpu_db1"
    )
    events, metrics = [], []
    for m in range(minutes):
        base = m * WINDOW
        for i in range(per_minute):
            arrival = base + i * 10 * SECOND
            # The last request each minute departs in the *next*
            # window — the boundary-spanning case.
            departure = arrival + (
                70 * SECOND if i == per_minute - 1 else 20_000
            )
            events.append(
                (f"req-{m}-{i}", f"op{i % 2}", arrival, departure)
            )
        metrics.extend(
            (base + i * 10 * SECOND, 10.0 * m + i) for i in range(per_minute)
        )
    db.insert_rows(
        "apache_events_web1", [c for c, _ in EVENT_COLUMNS], events
    )
    db.insert_rows(
        "collectl_cpu_db1", [c for c, _ in METRIC_COLUMNS], metrics
    )
    db.insert_rows("collectl_cpu_db1", ["dsk_pctutil"], [(99.5,)])
    db.create_response_time_index("apache_events_web1")
    db.create_covering_index(
        "apache_events_web1",
        ("interaction", "upstream_arrival_us", "upstream_departure_us"),
        name="interaction_rt",
    )
    db.record_load("apache_events_web1", "/logs/web1/a.log", len(events), 4)
    db.set_experiment_meta("epoch_us", "0")
    return db


@pytest.fixture
def pair(tmp_path):
    """(monolith, sharded) with identical content, time-windowed."""
    mono = _populate(MScopeDB(tmp_path / "mono.db"))
    shard = _populate(
        ShardedMScopeDB(tmp_path / "mscope.shards", window_us=WINDOW)
    )
    shard.flush()
    yield mono, shard
    mono.close()
    shard.close()


# ----------------------------------------------------------------------
# routing


def test_host_for_table_prefers_known_hosts():
    assert host_for_table("apache_events_web1") == "web1"
    # Multi-token hostnames only resolve through the registry.
    assert (
        host_for_table("collectl_cpu_db_main", known_hosts=["db_main", "main"])
        == "db_main"
    )
    assert host_for_table("experiment_meta", known_hosts=["web1"]) == "meta"


def test_rows_land_in_host_and_window_shards(pair):
    _, shard = pair
    layout = {
        (info.host, info.window_index) for info in shard.shard_manifest()
    }
    hosts = {host for host, _ in layout}
    assert hosts == {"web1", "db1"}
    # 5 minutes of web1 arrivals -> windows 0..4; db1 adds a NULL-time
    # row, which must land in the misc shard, not a time window.
    assert {w for h, w in layout if h == "web1"} == {0, 1, 2, 3, 4}
    assert -1 in {w for h, w in layout if h == "db1"}
    for info in shard.shard_manifest():
        assert (shard.root / info.relpath).exists()


def test_window_conflict_on_reopen(tmp_path):
    root = tmp_path / "w.shards"
    ShardedMScopeDB(root, window_us=WINDOW).close()
    # Same window or unspecified: fine (recorded in the manifest).
    reopened = ShardedMScopeDB(root)
    assert reopened.window_us == WINDOW
    reopened.close()
    with pytest.raises(WarehouseError):
        ShardedMScopeDB(root, window_us=WINDOW * 2)


def test_rejected_ddl_leaves_the_manifest_untouched(tmp_path):
    """Bad identifiers and types are refused up front, as the monolith
    refuses them — nothing reaches ``schema_catalog`` / ``shard_schema``
    or names a shard directory."""
    root = tmp_path / "w.shards"
    shard = ShardedMScopeDB(root)
    shard.create_table("m_web1", [("a", "INTEGER")])
    with pytest.raises(WarehouseError):
        shard.create_table("x; DROP", [("a", "INTEGER")])
    with pytest.raises(WarehouseError):
        shard.create_table("bad_web1", [("a", "BLOB")])
    with pytest.raises(WarehouseError):
        shard.add_column("m_web1", 'b"; --', "TEXT")
    with pytest.raises(WarehouseError):
        shard.add_column("m_web1", "b", "BLOB")
    shard.close()
    with ShardedMScopeDB(root) as reopened:
        assert reopened.dynamic_tables() == ["m_web1"]
        assert reopened.table_schema("m_web1") == [("a", "INTEGER")]
        assert reopened.query("SELECT table_name FROM schema_catalog") == [
            ("m_web1",)
        ]
        assert list(reopened.iterdump_content())
    assert sorted(p.name for p in (root / "shards").iterdir()) == ["web1"]


def test_open_warehouse_dispatches_on_layout(tmp_path, pair):
    mono, shard = pair
    assert isinstance(open_warehouse(shard.root), ShardedMScopeDB)
    assert isinstance(open_warehouse(mono.path), MScopeDB)


# ----------------------------------------------------------------------
# monolith equivalence


def test_reads_match_monolith(pair):
    mono, shard = pair
    assert shard.tables() == mono.tables()
    assert shard.dynamic_tables() == mono.dynamic_tables()
    for table in mono.dynamic_tables():
        assert shard.table_schema(table) == mono.table_schema(table)
        assert shard.row_count(table) == mono.row_count(table)
    sql = (
        "SELECT interaction, COUNT(*), MAX(upstream_departure_us) "
        "FROM apache_events_web1 GROUP BY interaction ORDER BY 1"
    )
    assert shard.query(sql) == mono.query(sql)
    assert shard.fetch_series(
        "collectl_cpu_db1", "timestamp_us", "dsk_pctutil"
    ) == mono.fetch_series("collectl_cpu_db1", "timestamp_us", "dsk_pctutil")


def test_order_by_rowid_is_insert_order(pair):
    mono, shard = pair
    sql = "SELECT request_id FROM apache_events_web1 ORDER BY rowid"
    # Federated rowids are synthetic, but within a shard they preserve
    # insert order; the canonical content dump relies on a total order.
    assert sorted(shard.query(sql)) == sorted(mono.query(sql))


def test_content_dump_matches_monolith(pair):
    mono, shard = pair
    assert list(shard.iterdump_content()) == list(mono.iterdump_content())


def test_query_in_chunks_matches_monolith(pair):
    mono, shard = pair
    ids = [f"req-{m}-{i}" for m in range(5) for i in range(4)]
    sql = (
        "SELECT request_id, upstream_arrival_us FROM apache_events_web1 "
        "WHERE request_id IN ({placeholders}) ORDER BY upstream_arrival_us"
    )
    assert shard.query_in_chunks(sql, ids, chunk_size=3) == mono.query_in_chunks(
        sql, ids, chunk_size=3
    )


def test_null_timestamp_rows_served_from_misc_shard(pair):
    mono, shard = pair
    sql = "SELECT dsk_pctutil FROM collectl_cpu_db1 WHERE timestamp_us IS NULL"
    assert shard.query(sql) == mono.query(sql) == [(99.5,)]


# ----------------------------------------------------------------------
# explorer across a shard boundary (satellite: cross-shard reads)


def test_explorer_queries_span_shard_boundaries(pair):
    mono, shard = pair
    mono_x = WarehouseExplorer(mono)
    shard_x = WarehouseExplorer(shard)
    # The slowest requests are exactly the boundary-spanning ones
    # (70 s response time); both layouts must agree on them.
    assert shard_x.slowest_requests(6) == mono_x.slowest_requests(6)
    assert shard_x.interaction_stats() == mono_x.interaction_stats()
    # req-2-3 arrives in window 2 and departs in window 3.
    assert shard_x.request_flow("req-2-3") == mono_x.request_flow("req-2-3")
    assert shard_x.event_tables() == mono_x.event_tables()
    assert shard_x.resource_tables() == mono_x.resource_tables()
    # A metric window straddling the minute-2/minute-3 boundary.
    boundary = 3 * WINDOW
    assert shard_x.metric_timeline(
        "collectl_cpu_db1",
        "dsk_pctutil",
        start=boundary - 30 * SECOND,
        stop=boundary + 30 * SECOND,
    ) == mono_x.metric_timeline(
        "collectl_cpu_db1",
        "dsk_pctutil",
        start=boundary - 30 * SECOND,
        stop=boundary + 30 * SECOND,
    )


# ----------------------------------------------------------------------
# partition pruning


def test_pruned_reads_open_only_overlapping_shards(pair):
    _, shard = pair
    reopened = ShardedMScopeDB(shard.root)
    try:
        total = len(reopened.shard_manifest())
        # Bound to the last minute: only windows 4 (and the unbounded
        # misc shard) overlap.
        rows = reopened.fetch_series(
            "collectl_cpu_db1",
            "timestamp_us",
            "dsk_pctutil",
            start=4 * WINDOW,
            stop=5 * WINDOW,
        )
        assert len(rows) == 4
        assert 0 < reopened.shard_opens < total
        untouched = [
            info.relpath
            for info in reopened.shard_manifest()
            if info.host == "db1" and 0 <= info.window_index < 4
        ]
        assert untouched and not (
            set(untouched) & set(reopened.shard_open_log)
        )
    finally:
        reopened.close()


def test_unpruned_read_federates_every_shard(pair):
    mono, shard = pair
    reopened = ShardedMScopeDB(shard.root)
    try:
        assert reopened.query(
            "SELECT COUNT(*) FROM apache_events_web1"
        ) == mono.query("SELECT COUNT(*) FROM apache_events_web1")
        opened = {
            rel for rel in reopened.shard_open_log if "/web1/" in rel
        }
        assert len(opened) == 5
    finally:
        reopened.close()


def test_windowed_diagnosis_opens_only_overlapping_shards(tmp_path):
    """The acceptance criterion: a diagnosis windowed to the tail of a
    long run must not open the head's shards."""
    from repro.analysis.diagnosis import Diagnoser

    shard = _populate(
        ShardedMScopeDB(tmp_path / "diag.shards", window_us=WINDOW),
        minutes=10,
    )
    shard.close()
    reopened = ShardedMScopeDB(tmp_path / "diag.shards")
    try:
        window = (9 * WINDOW, 10 * WINDOW)
        diagnoser = Diagnoser(
            reopened,
            tier_tables={"web": "apache_events_web1"},
            window_us=window,
        )
        reports = diagnoser.diagnose(min_response_ms=1e9)
        assert reports == []  # threshold too high: windowed, but calm
        total = len(reopened.shard_manifest())
        assert 0 < reopened.shard_opens < total
        # Windows 0..7 of web1 predate even the 30 s in-flight slack
        # behind the diagnosis window; they must stay closed.
        stale = {
            info.relpath
            for info in reopened.shard_manifest()
            if info.host == "web1" and 0 <= info.window_index < 8
        }
        assert stale and not (stale & set(reopened.shard_open_log))
    finally:
        reopened.close()


def test_attach_budget_falls_back_to_materialization(pair):
    mono, shard = pair
    reopened = ShardedMScopeDB(shard.root)
    try:
        reopened.attach_budget = 2
        sql = (
            "SELECT interaction, COUNT(*) FROM apache_events_web1 "
            "GROUP BY interaction ORDER BY 1"
        )
        assert reopened.query(sql) == mono.query(sql)
    finally:
        reopened.close()


def test_one_handle_full_then_pruned_then_full_read(tmp_path):
    """Over the attach budget a full-history read materializes a TEMP
    *table*; the pruned read after it (fewer shards, within budget)
    must replace it with a view, and the next full read must replace
    that again — all on one handle."""
    mono = _populate(MScopeDB(), minutes=10)
    _populate(
        ShardedMScopeDB(tmp_path / "long.shards", window_us=WINDOW),
        minutes=10,
    ).close()
    shard = ShardedMScopeDB(tmp_path / "long.shards")
    try:
        spread = [
            info
            for info in shard.shard_manifest()
            if "apache_events_web1" in info.tables
        ]
        assert len(spread) > shard.attach_budget
        sql = (
            "SELECT request_id, upstream_arrival_us FROM apache_events_web1 "
            "WHERE upstream_arrival_us >= ? AND upstream_arrival_us < ? "
            "ORDER BY upstream_arrival_us"
        )
        everything, last_minute = (0, 10 * WINDOW), (9 * WINDOW, 10 * WINDOW)
        assert shard.query(sql, everything) == mono.query(sql, everything)
        with shard.pruned(*last_minute):
            assert shard.query(sql, last_minute) == mono.query(
                sql, last_minute
            )
        assert shard.query(sql, everything) == mono.query(sql, everything)
    finally:
        shard.close()
        mono.close()


def test_view_preparation_errors_surface_as_query_error(pair):
    from repro.common.errors import QueryError

    _, shard = pair
    shard.close()  # checkpoint the WAL: the shard files are the data
    reopened = ShardedMScopeDB(shard.root)
    try:
        victim = reopened.shard_manifest()[0]
        (reopened.root / victim.relpath).write_bytes(b"not a database" * 64)
        table = sorted(victim.tables)[0]
        # The same answer every time: a failed view build leaves
        # nothing behind for the retry to trip over.
        for _ in range(2):
            with pytest.raises(QueryError, match="not a database"):
                reopened.query(f"SELECT COUNT(*) FROM {table}")
    finally:
        reopened.close()


# ----------------------------------------------------------------------
# retention & compaction


def test_drop_shards_before_is_retention(pair):
    mono, shard = pair
    before = shard.row_count("apache_events_web1")
    dropped = shard.drop_shards_before(2 * WINDOW)
    assert dropped > 0
    # Windows 0 and 1 gone (4 arrivals each); later ones intact.
    assert shard.row_count("apache_events_web1") == before - 8
    kept = shard.query(
        "SELECT MIN(upstream_arrival_us) FROM apache_events_web1"
    )
    assert kept[0][0] >= 2 * WINDOW
    # The misc shard is unbounded; retention never drops it.
    assert shard.query(
        "SELECT COUNT(*) FROM collectl_cpu_db1 WHERE timestamp_us IS NULL"
    ) == [(1,)]
    for info in shard.shard_manifest():
        assert info.window_index == -1 or info.stop_us is None or (
            info.stop_us > 2 * WINDOW
        )


def test_compaction_preserves_content(pair):
    mono, shard = pair
    merged = shard.compact_shards_before(3 * WINDOW)
    assert merged > 0
    assert list(shard.iterdump_content()) == list(mono.iterdump_content())
    # Windows 0..2 now live in rollup shards, fewer files total.
    assert all(
        not (0 <= info.window_index < 3) or "roll" in info.relpath
        for info in shard.shard_manifest()
    )


# ----------------------------------------------------------------------
# satellites: derived chunk size, streaming dumps


def test_chunk_size_derived_from_connection_limit():
    db = MScopeDB()
    limit = db.max_variables()
    assert limit >= 999
    assert db.in_chunk_size() == limit - 32
    db.close()


def test_sharded_chunk_size_mirrors_manifest_connection(pair):
    _, shard = pair
    assert shard.in_chunk_size() == shard.max_variables() - 32


def test_iterdump_is_streaming(pair):
    import types

    mono, shard = pair
    assert isinstance(mono.iterdump(), types.GeneratorType)
    assert isinstance(shard.iterdump(), types.GeneratorType)
    # The sharded dump is the canonical content dump: identical to the
    # monolith's regardless of physical layout.
    assert list(shard.iterdump()) == list(mono.iterdump_content())
