"""Tests for mScopeDB: static tables, dynamic tables, queries.

The tests taking the ``warehouse`` fixture state the API contract and
run on both layouts: here on the monolith, and again on the sharded
warehouse (an ``MScopeDB`` subclass, which must be indistinguishable
through it) under :class:`TestShardedLayout` at the bottom.
"""

import pytest

from repro.common.errors import QueryError, WarehouseError
from repro.warehouse.db import MScopeDB, STATIC_TABLES, quote_identifier
from repro.warehouse.sharded import ShardedMScopeDB


@pytest.fixture
def warehouse():
    db = MScopeDB()
    yield db
    db.close()


#: Static by classification, but created only on first use — a
#: telemetry-off (or sampling-off) warehouse must stay byte-identical
#: to one built before those subsystems existed.
_LAZY_STATIC = (
    "pipeline_metrics",
    "pipeline_workers",
    "sampling_ledger",
)


def test_static_tables_exist_on_creation(warehouse):
    db = warehouse
    for table in STATIC_TABLES:
        if table in _LAZY_STATIC:
            assert table not in db.tables()
        else:
            assert table in db.tables()
    assert db.dynamic_tables() == []


def test_telemetry_tables_are_static_once_created(warehouse):
    from repro.telemetry.spans import SpanData, TelemetryCollector, zero_clock

    db = warehouse
    collector = TelemetryCollector(clock=zero_clock)
    collector.ingest([SpanData(stage="parse", records=1)])
    collector.persist(db)
    for table in ("pipeline_metrics", "pipeline_workers"):
        assert table in db.tables()
        assert table not in db.dynamic_tables()


def test_sampling_tables_are_static_once_created(warehouse):
    db = warehouse
    db.record_sampling("t", "s.log", "head:0.5", 10, 5, 100, 50)
    assert "sampling_ledger" in db.tables()
    assert "sampling_ledger" not in db.dynamic_tables()


def test_experiment_meta_round_trip(warehouse):
    db = warehouse
    db.set_experiment_meta("seed", "42")
    assert db.get_experiment_meta("seed") == "42"
    assert db.get_experiment_meta("missing") is None
    db.set_experiment_meta("seed", "43")  # upsert
    assert db.get_experiment_meta("seed") == "43"


def test_host_registration(warehouse):
    db = warehouse
    db.register_host("web1", "apache", 4, 100_000_000)
    rows = db.query("SELECT * FROM host_config")
    assert rows == [("web1", "apache", 4, 100_000_000)]


def test_monitor_registry_and_load_catalog(warehouse):
    db = warehouse
    db.register_monitor("collectl", "web1", "/logs/web1/c.log", "collectl_csv", "t1")
    db.record_load("t1", "/logs/web1/c.log", 100, 8)
    assert db.query("SELECT table_name FROM monitor_registry") == [("t1",)]
    assert db.query("SELECT rows_loaded FROM load_catalog") == [(100,)]


def test_create_table_and_insert(warehouse):
    db = warehouse
    db.create_table("m1", [("timestamp_us", "INTEGER"), ("value", "REAL")])
    inserted = db.insert_rows("m1", ["timestamp_us", "value"], [(1, 0.5), (2, 1.5)])
    assert inserted == 2
    assert db.row_count("m1") == 2
    assert db.table_schema("m1") == [("timestamp_us", "INTEGER"), ("value", "REAL")]


def test_create_table_validation(warehouse):
    db = warehouse
    with pytest.raises(WarehouseError):
        db.create_table("empty", [])
    with pytest.raises(WarehouseError):
        db.create_table("bad", [("col", "BLOB")])
    with pytest.raises(WarehouseError):
        db.create_table("experiment_meta", [("x", "TEXT")])
    with pytest.raises(WarehouseError):
        db.create_table("x; DROP", [("a", "INTEGER")])
    with pytest.raises(WarehouseError):
        db.create_table("bad", [('a"b', "INTEGER")])
    assert db.dynamic_tables() == []


def test_identifier_validation_blocks_injection():
    with pytest.raises(WarehouseError):
        quote_identifier("x; DROP TABLE users")
    with pytest.raises(WarehouseError):
        quote_identifier('a"b')
    assert quote_identifier("cpu_user_pct") == '"cpu_user_pct"'


def test_add_column_backfills_null(warehouse):
    db = warehouse
    db.create_table("m1", [("a", "INTEGER")])
    db.insert_rows("m1", ["a"], [(1,)])
    db.add_column("m1", "b", "TEXT")
    assert db.query_table("m1", "SELECT a, b FROM m1") == [(1, None)]
    with pytest.raises(WarehouseError):
        db.add_column("m1", "c; DROP", "TEXT")
    with pytest.raises(WarehouseError):
        db.add_column("m1", "c", "BLOB")
    assert db.table_schema("m1") == [("a", "INTEGER"), ("b", "TEXT")]


def test_row_count_missing_table(warehouse):
    db = warehouse
    with pytest.raises(QueryError):
        db.row_count("ghost")
    with pytest.raises(QueryError):
        db.table_schema("ghost")


def test_query_error_wrapped(warehouse):
    db = warehouse
    with pytest.raises(QueryError):
        db.query("SELECT nope FROM nothing")


def test_fetch_series_windowed(warehouse):
    db = warehouse
    db.create_table("m1", [("t", "INTEGER"), ("v", "REAL")])
    db.insert_rows("m1", ["t", "v"], [(30, 3.0), (10, 1.0), (20, 2.0)])
    assert db.fetch_series("m1", "t", "v") == [(10, 1.0), (20, 2.0), (30, 3.0)]
    assert db.fetch_series("m1", "t", "v", start=15, stop=30) == [(20, 2.0)]


def test_close_and_context_manager(tmp_path):
    with MScopeDB(tmp_path / "w.db") as db:
        db.create_table("m1", [("a", "INTEGER")])
    with pytest.raises(WarehouseError):
        db.tables()


def test_use_after_close_raises(warehouse):
    with warehouse as db:
        db.create_table("m1", [("a", "INTEGER")])
        db.insert_rows("m1", ["a"], [(1,)])
    for use in (
        db.tables,
        lambda: db.query("SELECT key FROM experiment_meta"),
        lambda: db.query_table("m1", "SELECT a FROM m1"),
        lambda: db.row_count("m1"),
        lambda: db.indexes("m1"),
        lambda: db.table_schema("m1"),
        lambda: db.set_experiment_meta("seed", "1"),
        lambda: db.insert_rows("m1", ["a"], [(2,)]),
    ):
        with pytest.raises(WarehouseError):
            use()


def test_persistence_on_disk(tmp_path):
    path = tmp_path / "w.db"
    db = MScopeDB(path)
    db.create_table("m1", [("a", "INTEGER")])
    db.insert_rows("m1", ["a"], [(7,)])
    db.close()
    reopened = MScopeDB(path)
    assert reopened.query("SELECT a FROM m1") == [(7,)]


class TestShardedLayout:
    """The contract tests above, on ``ShardedMScopeDB``.

    Re-collected under a class whose ``warehouse`` fixture shadows the
    module's, so the monolith runs keep their test ids.
    """

    @pytest.fixture
    def warehouse(self, tmp_path):
        db = ShardedMScopeDB(tmp_path / "w")
        yield db
        db.close()

    test_static_tables_exist_on_creation = staticmethod(
        test_static_tables_exist_on_creation
    )
    test_telemetry_tables_are_static_once_created = staticmethod(
        test_telemetry_tables_are_static_once_created
    )
    test_sampling_tables_are_static_once_created = staticmethod(
        test_sampling_tables_are_static_once_created
    )
    test_experiment_meta_round_trip = staticmethod(
        test_experiment_meta_round_trip
    )
    test_host_registration = staticmethod(test_host_registration)
    test_monitor_registry_and_load_catalog = staticmethod(
        test_monitor_registry_and_load_catalog
    )
    test_create_table_and_insert = staticmethod(test_create_table_and_insert)
    test_create_table_validation = staticmethod(test_create_table_validation)
    test_add_column_backfills_null = staticmethod(
        test_add_column_backfills_null
    )
    test_row_count_missing_table = staticmethod(test_row_count_missing_table)
    test_query_error_wrapped = staticmethod(test_query_error_wrapped)
    test_fetch_series_windowed = staticmethod(test_fetch_series_windowed)
    test_use_after_close_raises = staticmethod(test_use_after_close_raises)
