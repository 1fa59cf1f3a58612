"""Tests for the host/time-partitioned warehouse (``ShardedMScopeDB``).

The sharded warehouse's contract is *transparency*: behind the
``MScopeDB`` API it must hold exactly the monolith's content (checked
here table-by-table and via the canonical content dump) and answer
every ``query_table`` read ``src/`` makes with the monolith's rows,
while its *reads* open only the shard files their time window overlaps
(checked via the ``shard_opens`` counter the acceptance criteria name).
"""

from pathlib import Path

import pytest

from repro.analysis.cache import SeriesCache
from repro.analysis.causal import reconstruct_path, reconstruct_paths_bulk
from repro.analysis.metrics import metric_series
from repro.analysis.queues import spans_from_warehouse
from repro.analysis.response_time import completions_from_warehouse
from repro.analysis.skew import estimate_pairwise_offset
from repro.common.errors import QueryError, WarehouseError
from repro.serve.daemon import MScopeServeDaemon, ServeConfig
import repro.warehouse.sharded as sharded
from repro.warehouse.db import MScopeDB, merge_sorted
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
    db.create_covering_index(
        "apache_events_web1",
        ("upstream_departure_us", "upstream_arrival_us"),
        name="departure",
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
        "SELECT interaction, upstream_departure_us "
        "FROM apache_events_web1 ORDER BY 1, 2"
    )
    by_both = merge_sorted(0, 1)
    assert shard.query_table(
        "apache_events_web1", sql, merge=by_both
    ) == mono.query_table("apache_events_web1", sql, merge=by_both)
    assert shard.fetch_series(
        "collectl_cpu_db1", "timestamp_us", "dsk_pctutil"
    ) == mono.fetch_series("collectl_cpu_db1", "timestamp_us", "dsk_pctutil")


def test_order_by_rowid_is_insert_order(pair):
    mono, shard = pair
    sql = "SELECT request_id FROM apache_events_web1 ORDER BY rowid"
    # Rowids are shard-local, but shards concatenate in window order
    # and each preserves insert order — so rows inserted in time order
    # read back in the monolith's order with no merge at all.
    assert shard.query_table("apache_events_web1", sql) == mono.query_table(
        "apache_events_web1", sql
    )


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
    reads = [
        db.query_in_chunks(
            "apache_events_web1", sql, ids, chunk_size=3, merge=merge_sorted(1)
        )
        for db in (shard, mono)
    ]
    assert reads[0] == reads[1] and len(reads[0]) == len(ids)


def test_null_timestamp_rows_served_from_misc_shard(pair):
    mono, shard = pair
    sql = "SELECT dsk_pctutil FROM collectl_cpu_db1 WHERE timestamp_us IS NULL"
    assert (
        shard.query_table("collectl_cpu_db1", sql)
        == mono.query_table("collectl_cpu_db1", sql)
        == [(99.5,)]
    )


def test_adhoc_sql_over_a_dynamic_table_is_a_monolith_feature(pair):
    mono, shard = pair
    sql = "SELECT COUNT(*) FROM apache_events_web1"
    assert mono.query(sql) == [(20,)]
    # ``query`` is the inherited one: manifest.db holds static tables.
    assert "query" not in vars(ShardedMScopeDB)
    assert shard.query("SELECT COUNT(*) FROM host_config") == [(2,)]
    with pytest.raises(QueryError, match="no such table"):
        shard.query(sql)


# ----------------------------------------------------------------------
# every read src/ makes, through its public function, on both layouts

FRONT = "apache_events_web1"
TIERS = {
    "apache": FRONT,
    "tomcat": "tomcat_events_app1",
    "mysql": "mysql_events_db1",
}
CALLER_COLUMNS = EVENT_COLUMNS + [
    ("downstream_sending_us", "INTEGER"),
    ("downstream_receiving_us", "INTEGER"),
]


def _populate_tiers(db):
    """``_populate`` plus two tiers behind web1, and the cases a merge
    can get wrong: equal sort keys in different shards, equal sort keys
    in one shard, and NULL keys (the misc shard)."""
    _populate(db)
    db.register_host("app1", "tomcat", 4, 100_000_000)
    db.create_table(TIERS["tomcat"], CALLER_COLUMNS)
    db.create_table(TIERS["mysql"], EVENT_COLUMNS)
    front = db.query_table(
        FRONT,
        f"SELECT request_id, upstream_arrival_us, upstream_departure_us "
        f"FROM {FRONT} ORDER BY rowid",
    )
    tomcat = [
        (rid, "op", a + 1000, d - 1000, a + 1100, d - 1100)
        for rid, a, d in front
    ]
    # The k-th request's mysql clock reads 10k us ahead of tomcat's,
    # and one request late in the run sorts first by id, far behind:
    # which ten pairs a capped skew estimate sees depends on the order.
    mysql = [
        (rid, "op", a + 1150 + 20 * k, d - 1150)
        for k, (rid, a, d) in enumerate(front)
    ]
    late = 4 * WINDOW + 50 * SECOND
    tomcat.append(("aaa-late", "op", late, late + 9000, late + 100, late + 8900))
    mysql.append(("aaa-late", "op", late - 1850, late + 8850))
    # Equal arrival, one shard: req-1-0 queries mysql twice at once;
    # only rowid orders the two hops.
    rid, a, d = front[4]
    assert rid == "req-1-0"
    mysql.insert(5, (rid, "op", a + 1150, d - 1200))
    db.insert_rows(
        TIERS["tomcat"], [c for c, _ in CALLER_COLUMNS], tomcat
    )
    db.insert_rows(TIERS["mysql"], [c for c, _ in EVENT_COLUMNS], mysql)
    # Equal departure, different shards: req-0-3 arrived in window 0
    # and departs at 100 s; req-tie arrives in window 1 and departs at
    # the same microsecond.  And a record with no timestamps at all.
    db.insert_rows(
        FRONT,
        [c for c, _ in EVENT_COLUMNS],
        [
            ("req-tie", "op0", 95 * SECOND, 100 * SECOND),
            ("req-lost", "op1", None, None),
        ],
    )
    for table in TIERS.values():
        db.create_index(table, "request_id")
    return db


@pytest.fixture
def tiers(tmp_path):
    """(monolith, reopened shards) holding ``_populate_tiers``."""
    mono = _populate_tiers(MScopeDB(tmp_path / "tiers.db"))
    _populate_tiers(
        ShardedMScopeDB(tmp_path / "tiers.shards", window_us=WINDOW)
    ).close()
    shard = ShardedMScopeDB(tmp_path / "tiers.shards")
    yield mono, shard
    mono.close()
    shard.close()


def _explorer(db):
    return WarehouseExplorer(db, FRONT)


def _data_extent(db):
    # The daemon opens its warehouse by path, with no log tree to read.
    daemon = MScopeServeDaemon(
        ServeConfig(logs=Path(db.path) / "no-logs", db=Path(db.path))
    )
    try:
        return daemon._data_span_us()
    finally:
        daemon.db.close()


ALL_IDS = [f"req-{m}-{i}" for m in range(5) for i in range(4)] + ["req-tie"]

#: name -> read(db), each through the function src/ calls.
SRC_READS = {
    "completions": lambda db: completions_from_warehouse(db, FRONT),
    # req-0-3 (arrived at 30 s) is within the 30 s in-flight slack.
    "completions_windowed": lambda db: completions_from_warehouse(
        db, FRONT, start=80 * SECOND, stop=130 * SECOND
    ),
    "metric_series": lambda db: [
        part.tolist()
        for series in (
            metric_series(
                db, "collectl_cpu_db1", ("dsk_pctutil",),
                start=start, stop=4 * WINDOW,
            )
            for start in (0, 3 * WINDOW)
        )
        for part in (series.times, series.values)
    ],
    "tier_spans": lambda db: [
        part.tolist()
        for bounds in (None, (2 * WINDOW, 3 * WINDOW))
        for part in SeriesCache(db, bounds=bounds).tier_spans(FRONT)
    ],
    "fetch_series": lambda db: (
        db.fetch_series("collectl_cpu_db1", "timestamp_us", "dsk_pctutil"),
        db.fetch_series(
            "collectl_cpu_db1", "timestamp_us", "dsk_pctutil",
            start=WINDOW, stop=2 * WINDOW,
        ),
    ),
    "reconstruct_path": lambda db: [
        reconstruct_path(db, rid, TIERS).hops
        for rid in ("req-1-0", "req-2-3", "req-tie")
    ],
    "paths_bulk_probe": lambda db: [
        path.hops
        for path in reconstruct_paths_bulk(
            db, ["req-1-0", "req-4-3"], TIERS, full_scan_fraction=1.0
        )
    ],
    "paths_bulk_full_scan": lambda db: [
        path.hops
        for path in reconstruct_paths_bulk(
            db, ALL_IDS, TIERS, full_scan_fraction=0.0
        )
    ],
    "queue_spans": lambda db: sorted(spans_from_warehouse(db, FRONT)),
    "skew_visits": lambda db: estimate_pairwise_offset(
        db, TIERS["tomcat"], TIERS["mysql"], max_pairs=10
    ),
    "slowest_requests": lambda db: _explorer(db).slowest_requests(8),
    "interaction_stats": lambda db: _explorer(db).interaction_stats(),
    "request_flow": lambda db: _explorer(db).request_flow("req-1-0"),
    "metric_timeline": lambda db: _explorer(db).metric_timeline(
        "collectl_cpu_db1", "dsk_pctutil", start=WINDOW, stop=4 * WINDOW
    ),
    "daemon_data_extent": _data_extent,
}


@pytest.mark.parametrize("name", sorted(SRC_READS))
def test_src_reads_match_monolith(tiers, monkeypatch, name):
    """The statement's ``ORDER BY`` and its ``merge`` cannot drift
    apart: each read returns the monolith's answer from shards holding
    the table in more files than the handle may keep open."""
    mono, shard = tiers
    monkeypatch.setattr(sharded, "_MAX_READERS", 2)
    assert len(shard._shards_for(FRONT)) > 2
    assert SRC_READS[name](shard) == SRC_READS[name](mono)
    assert len(shard._readers) <= 2


def test_reads_open_each_shard_at_most_once(tiers):
    """Under the reader cap, any sequence of reads on one handle opens
    a shard file at most once."""
    _, shard = tiers
    for name in sorted(SRC_READS):
        SRC_READS[name](shard)
    assert len(shard.shard_manifest()) < sharded._MAX_READERS
    assert shard.shard_opens == len(set(shard.shard_open_log))
    assert shard.shard_opens == len(shard.shard_manifest())


def test_sharded_reads_use_the_importers_indexes(tiers):
    """Each shard holds the table under its own name with the
    importer's indexes, so the per-shard statement plans as it does on
    the monolith — on every shard."""
    _, shard = tiers
    probe = (
        f"SELECT request_id, upstream_arrival_us FROM {FRONT} "
        f"WHERE request_id IN (?, ?) ORDER BY upstream_arrival_us, rowid"
    )
    completions = (
        f"SELECT upstream_arrival_us FROM {FRONT} "
        f"WHERE upstream_departure_us >= ? AND upstream_departure_us < ? "
        f"ORDER BY upstream_departure_us"
    )
    holding = len(shard._shards_for(FRONT))
    assert holding == 6  # five windows and the misc shard
    for sql, params, index in (
        (completions, (WINDOW, 3 * WINDOW), "departure"),
        (probe, ("req-1-0", "req-4-3"), "request_id"),
    ):
        plan = shard.query_table(FRONT, f"EXPLAIN QUERY PLAN {sql}", params)
        using = [row[-1] for row in plan if f"idx_{FRONT}_{index}" in row[-1]]
        assert len(using) == holding, plan


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
        assert reopened.row_count("apache_events_web1") == mono.row_count(
            "apache_events_web1"
        )
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


def test_read_over_more_shards_than_the_reader_cap(pair, monkeypatch):
    mono, shard = pair
    monkeypatch.setattr(sharded, "_MAX_READERS", 2)
    reopened = ShardedMScopeDB(shard.root)
    try:
        sql = (
            "SELECT interaction, upstream_arrival_us FROM apache_events_web1 "
            "ORDER BY 2 DESC LIMIT 7"
        )
        newest = merge_sorted(1, descending=True, limit=7)
        for _ in range(2):  # the second pass reopens what the first evicted
            assert reopened.query_table(
                "apache_events_web1", sql, merge=newest
            ) == mono.query(sql)
            assert len(reopened._readers) == 2
        assert reopened.shard_opens == 10
    finally:
        reopened.close()


def test_one_handle_full_then_pruned_then_full_read(tmp_path):
    """One handle answers a full-history read, a windowed read and the
    full read again: nothing the first leaves behind (open readers)
    may change what the next returns, and no shard is opened twice."""
    mono = _populate(MScopeDB(), minutes=10)
    _populate(
        ShardedMScopeDB(tmp_path / "long.shards", window_us=WINDOW),
        minutes=10,
    ).close()
    shard = ShardedMScopeDB(tmp_path / "long.shards")
    try:
        sql = (
            "SELECT request_id, upstream_arrival_us FROM apache_events_web1 "
            "WHERE upstream_arrival_us >= ? AND upstream_arrival_us < ? "
            "ORDER BY upstream_arrival_us"
        )
        everything, last_minute = (0, 10 * WINDOW), (9 * WINDOW, 10 * WINDOW)

        def read(db, bounds, window):
            return db.query_table(
                "apache_events_web1",
                sql,
                bounds,
                window=window,
                merge=merge_sorted(1),
            )

        for bounds, window in (
            (everything, (None, None)),
            (last_minute, last_minute),
            (everything, (None, None)),
        ):
            assert read(shard, bounds, window) == read(mono, bounds, window)
        assert len(shard.shard_open_log) == len(set(shard.shard_open_log)) == 10
    finally:
        shard.close()
        mono.close()


def test_view_preparation_errors_surface_as_query_error(pair):
    _, shard = pair
    shard.close()  # checkpoint the WAL: the shard files are the data
    reopened = ShardedMScopeDB(shard.root)
    try:
        damaged, missing = reopened.shard_manifest()[:2]
        (reopened.root / damaged.relpath).write_bytes(b"not a database" * 64)
        (reopened.root / missing.relpath).unlink()
        # The same answer every time, naming the shard: a failed read
        # leaves nothing behind for the retry to trip over.
        for victim, reason in (
            (damaged, "not a database"),
            (missing, "file is missing"),
        ):
            table = sorted(victim.tables)[0]
            for _ in range(2):
                with pytest.raises(QueryError, match=reason) as raised:
                    reopened.query_table(
                        table, f"SELECT COUNT(*) FROM {table}",
                        window=(victim.start_us, victim.stop_us),
                    )
                assert victim.relpath in str(raised.value)
        assert not (reopened.root / missing.relpath).exists()
        with pytest.raises(QueryError, match="not a database"):
            reopened.row_count(sorted(damaged.tables)[0])
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
    kept = shard.query_table(
        "apache_events_web1",
        "SELECT MIN(upstream_arrival_us) FROM apache_events_web1",
        merge=merge_sorted(0, limit=1),
    )
    assert kept[0][0] >= 2 * WINDOW
    # The misc shard is unbounded; retention never drops it.
    assert shard.query_table(
        "collectl_cpu_db1",
        "SELECT dsk_pctutil FROM collectl_cpu_db1 WHERE timestamp_us IS NULL",
    ) == [(99.5,)]
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


def test_late_write_into_a_compacted_window_lands_in_the_rollup(tmp_path):
    """A row for a window compaction already rolled up goes into the
    roll-up shard — read back on the same handle and after a reopen,
    with no shard file the manifest does not name."""
    root = tmp_path / "w.shards"
    table, columns = "collectl_cpu_db1", [c for c, _ in METRIC_COLUMNS]
    sql = f"SELECT timestamp_us FROM {table}"
    expected = [(100,), (200,), (1_500_000,), (2_500_000,), (3_500_000,)]
    shard = ShardedMScopeDB(root, window_us=SECOND)
    shard.create_table(table, METRIC_COLUMNS)
    shard.insert_rows(
        table,
        columns,
        [(100, 1.0), (1_500_000, 2.0), (2_500_000, 3.0), (3_500_000, 4.0)],
    )
    assert shard.compact_shards_before(3 * SECOND) == 3
    shard.insert_rows(table, columns, [(200, 5.0)])
    assert shard.query_table(table, sql, merge=merge_sorted(0)) == expected
    shard.close()
    with ShardedMScopeDB(root) as reopened:
        assert (
            reopened.query_table(table, sql, merge=merge_sorted(0))
            == expected
        )
        named = {root / info.relpath for info in reopened.shard_manifest()}
    assert set((root / "shards").glob("*/*.db")) == named


def test_rolled_back_load_leaves_no_shard_behind(tmp_path):
    """A load that fails inside ``bulk_load`` rolls back the shard
    files and the manifest together; the next load lands cleanly."""
    table, columns = "collectl_cpu_db1", [c for c, _ in METRIC_COLUMNS]
    with ShardedMScopeDB(tmp_path / "w.shards", window_us=SECOND) as shard:
        shard.create_table(table, METRIC_COLUMNS)
        with pytest.raises(RuntimeError):
            with shard.bulk_load():
                shard.insert_rows(table, columns, [(100, 1.0)])
                raise RuntimeError("import failed")
        assert shard.shard_manifest() == []
        shard.insert_rows(table, columns, [(200, 2.0)])
        assert shard.query_table(
            table, f"SELECT timestamp_us FROM {table}"
        ) == [(200,)]


def test_add_column_on_reopen_reaches_every_shard(tmp_path):
    """``add_column`` alters every manifest shard holding the table,
    not only the shards this handle has written."""
    root = tmp_path / "w.shards"
    table = "collectl_cpu_db1"
    with ShardedMScopeDB(root, window_us=SECOND) as shard:
        shard.create_table(table, METRIC_COLUMNS)
        shard.insert_rows(
            table,
            [c for c, _ in METRIC_COLUMNS],
            [(100, 1.0), (1_500_000, 2.0)],
        )
    with ShardedMScopeDB(root) as reopened:
        reopened.add_column(table, "cpu_user_pct", "REAL")
        reopened.insert_rows(
            table, ["timestamp_us", "cpu_user_pct"], [(2_500_000, 7.0)]
        )
        assert reopened.query_table(
            table,
            f"SELECT timestamp_us, cpu_user_pct FROM {table}",
            merge=merge_sorted(0),
        ) == [(100, None), (1_500_000, None), (2_500_000, 7.0)]


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
