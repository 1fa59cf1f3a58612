"""Tests for the mScope Data Importer."""

import pytest

from repro.common.errors import DataImportError
from repro.sampling.policy import parse_policy
from repro.transformer.importer import MScopeDataImporter
from repro.transformer.xml_to_csv import CsvTable
from repro.warehouse.db import MScopeDB
from repro.warehouse.sharded import ShardedMScopeDB


def make_table(name="collectl_web1", columns=None, rows=None):
    if columns is None:
        columns = [("timestamp_us", "INTEGER"), ("cpu_user_pct", "REAL")]
    if rows is None:
        rows = [(1000, 1.5), (2000, 2.5)]
    return CsvTable(
        name=name,
        columns=columns,
        rows=rows,
        monitor="collectl",
        source="/logs/web1/collectl_csv.log",
    )


def test_import_creates_table_and_loads_rows():
    db = MScopeDB()
    importer = MScopeDataImporter(db)
    inserted = importer.import_table(make_table(), "web1", "collectl_csv")
    assert inserted == 2
    assert db.row_count("collectl_web1") == 2


def test_import_records_provenance():
    db = MScopeDB()
    MScopeDataImporter(db).import_table(make_table(), "web1", "collectl_csv")
    registry = db.query("SELECT monitor, hostname, parser FROM monitor_registry")
    assert registry == [("collectl", "web1", "collectl_csv")]
    catalog = db.query("SELECT rows_loaded, columns FROM load_catalog")
    assert catalog == [(2, 2)]


def test_reimport_appends():
    db = MScopeDB()
    importer = MScopeDataImporter(db)
    importer.import_table(make_table(), "web1", "collectl_csv")
    importer.import_table(
        make_table(rows=[(3000, 3.5)]), "web1", "collectl_csv"
    )
    assert db.row_count("collectl_web1") == 3


def test_reimport_with_new_column_extends_schema():
    db = MScopeDB()
    importer = MScopeDataImporter(db)
    importer.import_table(make_table(), "web1", "collectl_csv")
    wider = make_table(
        columns=[
            ("timestamp_us", "INTEGER"),
            ("cpu_user_pct", "REAL"),
            ("mem_dirty", "INTEGER"),
        ],
        rows=[(3000, 3.5, 4096)],
    )
    importer.import_table(wider, "web1", "collectl_csv")
    schema = dict(db.table_schema("collectl_web1"))
    assert "mem_dirty" in schema
    # Old rows have NULL in the new column.
    rows = db.query(
        "SELECT mem_dirty FROM collectl_web1 ORDER BY timestamp_us"
    )
    assert rows == [(None,), (None,), (4096,)]


def test_empty_columns_rejected():
    db = MScopeDB()
    empty = make_table(columns=[], rows=[])
    with pytest.raises(DataImportError):
        MScopeDataImporter(db).import_table(empty, "web1", "collectl_csv")


def test_indexes_created_after_first_load():
    db = MScopeDB()
    table = make_table(
        columns=[("timestamp_us", "INTEGER"), ("request_id", "TEXT")],
        rows=[(1000, "R1"), (2000, "R2")],
    )
    MScopeDataImporter(db).import_table(table, "web1", "collectl_csv")
    names = db.indexes("collectl_web1")
    assert "idx_collectl_web1_request_id" in names
    assert "idx_collectl_web1_timestamp_us" in names


def test_reimport_does_not_duplicate_indexes():
    db = MScopeDB()
    importer = MScopeDataImporter(db)
    table = make_table(
        columns=[("timestamp_us", "INTEGER")], rows=[(1000,)]
    )
    importer.import_table(table, "web1", "collectl_csv")
    before = db.indexes("collectl_web1")
    importer.import_table(
        make_table(columns=[("timestamp_us", "INTEGER")], rows=[(2000,)]),
        "web1",
        "collectl_csv",
    )
    assert db.indexes("collectl_web1") == before


def test_type_widening_recorded_in_schema():
    """A REAL value landing in an INTEGER column must show up in
    table_schema(), not vanish into sqlite's affinity tolerance."""
    db = MScopeDB()
    importer = MScopeDataImporter(db)
    importer.import_table(
        make_table(columns=[("timestamp_us", "INTEGER"), ("val", "INTEGER")],
                   rows=[(1000, 1)]),
        "web1",
        "collectl_csv",
    )
    assert dict(db.table_schema("collectl_web1"))["val"] == "INTEGER"
    importer.import_table(
        make_table(columns=[("timestamp_us", "INTEGER"), ("val", "REAL")],
                   rows=[(2000, 2.5)]),
        "web1",
        "collectl_csv",
    )
    assert dict(db.table_schema("collectl_web1"))["val"] == "REAL"
    # Narrower re-imports never narrow the recorded type back.
    importer.import_table(
        make_table(columns=[("timestamp_us", "INTEGER"), ("val", "INTEGER")],
                   rows=[(3000, 3)]),
        "web1",
        "collectl_csv",
    )
    assert dict(db.table_schema("collectl_web1"))["val"] == "REAL"


def test_table_existence_cached_per_importer():
    db = MScopeDB()
    importer = MScopeDataImporter(db)
    importer.import_table(make_table(), "web1", "collectl_csv")
    calls = []
    original = db.dynamic_tables

    def counting():
        calls.append(1)
        return original()

    db.dynamic_tables = counting
    importer.import_table(
        make_table(rows=[(3000, 3.5)]), "web1", "collectl_csv"
    )
    assert calls == []  # second import served from the cache


# -- the write stage: cumulative catalog, sampling ledger, flush ----------

EVENT_COLUMNS = [
    ("request_id", "TEXT"),
    ("interaction", "TEXT"),
    ("upstream_arrival_us", "INTEGER"),
    ("upstream_departure_us", "INTEGER"),
]
EVENT_SOURCE = "/logs/app1/catalina_log.log"
MS = 1_000


def event_table(rows, source=EVENT_SOURCE, columns=EVENT_COLUMNS):
    return CsvTable(
        name="tomcat_events_app1",
        columns=columns,
        rows=rows,
        monitor="tomcat_events",
        source=source,
    )


def event_row(i, span_us=2 * MS, offset_us=0):
    arrival = 10 * MS * (i + 1) + offset_us
    return (f"R0A{i:09d}", "Browse", arrival, arrival + span_us)


def event_rows():
    """30 fast requests, then a slow (80 ms) record for three of them —
    under tail sampling those three requests' fast records are deferred
    first and released only by the flush."""
    return [event_row(i) for i in range(30)] + [
        event_row(i, span_us=80 * MS, offset_us=3 * MS) for i in (0, 7, 14)
    ]


def load(target, tables, sampling=None):
    importer = MScopeDataImporter(target, parse_policy(sampling))
    for table in tables:
        importer.import_table(table, "app1", "tomcat")
    importer.flush()
    return importer


def catalogs(db):
    return (
        db.query("SELECT * FROM load_catalog ORDER BY table_name, source_path"),
        db.sampling_ledger(),
    )


def test_deltas_record_the_running_total_and_current_width():
    wider = EVENT_COLUMNS + [("servlet", "TEXT")]
    rows = [event_row(i) for i in range(9)]
    deltas, once = MScopeDB(), MScopeDB()
    load(
        deltas,
        [
            event_table(rows[:4]),
            event_table(rows[4:6]),
            event_table([row + ("Story",) for row in rows[6:]], columns=wider),
        ],
    )
    padded = [row + (None,) for row in rows[:6]]
    padded += [row + ("Story",) for row in rows[6:]]
    load(once, [event_table(padded, columns=wider)])
    assert deltas.query("SELECT * FROM load_catalog") == [
        ("tomcat_events_app1", EVENT_SOURCE, 9, 5)
    ]
    assert catalogs(deltas) == catalogs(once)


@pytest.mark.parametrize("spec", ["head:0.5", "tail:0:50"])
def test_sampled_deltas_converge_on_the_one_shot_import(spec):
    rows = event_rows()
    deltas, once = MScopeDB(), MScopeDB()
    load(deltas, [event_table(rows[i : i + 11]) for i in (0, 11, 22)], spec)
    load(once, [event_table(rows)], spec)
    assert catalogs(deltas) == catalogs(once)
    ((_, _, rows_loaded, _),), ((*_, seen, kept, _, _),) = catalogs(deltas)
    assert seen == len(rows)
    assert 0 < kept < seen
    assert rows_loaded == kept == deltas.row_count("tomcat_events_app1")
    select = "SELECT * FROM tomcat_events_app1 ORDER BY 1, 3"
    assert deltas.query(select) == once.query(select)


def test_flush_without_a_policy_writes_nothing():
    db = MScopeDB()
    importer = load(db, [event_table(event_rows())])
    before = list(db.iterdump())
    assert importer.flush() == 0
    assert importer.flush() == 0
    assert list(db.iterdump()) == before
    assert db.sampling_ledger() == []


def test_flush_is_idempotent_under_a_stateful_policy():
    db = MScopeDB()
    importer = MScopeDataImporter(db, parse_policy("tail:0:50"))
    importer.import_table(event_table(event_rows()), "app1", "tomcat")
    assert importer.flush() == 3  # the VLRT requests' deferred fast records
    before = list(db.iterdump())
    assert importer.flush() == 0
    assert list(db.iterdump()) == before


def test_two_sources_in_one_table_keep_separate_totals():
    db = MScopeDB()
    other = "/logs/app1/catalina_log.1.log"
    load(
        db,
        [
            event_table([event_row(0), event_row(1)]),
            event_table([event_row(i) for i in (2, 3, 4)], source=other),
            event_table([event_row(5)]),
        ],
    )
    assert db.query(
        "SELECT source_path, rows_loaded FROM load_catalog "
        "ORDER BY source_path"
    ) == [(other, 3), (EVENT_SOURCE, 3)]
    assert db.row_count("tomcat_events_app1") == 6


@pytest.mark.parametrize("layout", ["monolith", "sharded"])
def test_failed_first_load_then_retry_equals_clean_import(
    tmp_path, monkeypatch, layout
):
    """A load that fails leaves nothing behind, not even the table its
    DDL created, so a retry lands exactly what a clean import does."""

    def open_db(name):
        if layout == "monolith":
            return MScopeDB(tmp_path / f"{name}.db")
        return ShardedMScopeDB(tmp_path / f"{name}.shards", window_us=50 * MS)

    rows = [event_row(i) for i in range(9)]
    clean = open_db("clean")
    load(clean, [event_table(rows)])

    retried = open_db("retried")
    importer = MScopeDataImporter(retried)
    real_insert = type(retried).insert_rows
    calls = []

    def insert_fails_once(self, *args, **kwargs):
        calls.append(args[0])
        if len(calls) == 1:
            raise DataImportError("disk full")
        return real_insert(self, *args, **kwargs)

    monkeypatch.setattr(type(retried), "insert_rows", insert_fails_once)
    with pytest.raises(DataImportError, match="disk full"):
        importer.import_table(event_table(rows), "app1", "tomcat")
    assert retried.dynamic_tables() == []
    importer.import_table(event_table(rows), "app1", "tomcat")
    importer.flush()
    assert list(retried.iterdump_content()) == list(clean.iterdump_content())
    clean.close()
    retried.close()
