"""Query-plan regression tests: every windowed read is a SEARCH.

The importer gives each event table two indexes, picked by the reads
that run: ``request_id`` for the cross-tier path joins, and
``departure`` on ``(upstream_departure_us, upstream_arrival_us)`` for
every windowed read (the completions read and the queue-span reads).
Resource tables keep their ``timestamp_us`` index.  These tests trace
every statement a windowed diagnosis issues on a transformed
warehouse and pin its plan with EXPLAIN QUERY PLAN — an index drop or
SQL drift that reintroduces a scan fails here, not in a slow
investigation six months later.  The explorer's whole-table rollups
(``slowest_requests``, ``interaction_stats``) run once per ``mscope
report`` and keep no index of their own.
"""

import sqlite3
from pathlib import Path

import pytest

from repro.analysis.diagnosis import Diagnoser
from repro.common.timebase import seconds
from repro.experiments.scenarios import record_run_metadata, scenario_a
from repro.transformer.pipeline import MScopeDataTransformer
from repro.warehouse.db import MScopeDB
from repro.warehouse.explorer import WarehouseExplorer
from repro.warehouse.sharded import ShardedMScopeDB

FRONT = "apache_events_web1"
EVENT_TABLES = (
    "apache_events_web1",
    "tomcat_events_app1",
    "cjdbc_events_mid1",
    "mysql_events_db1",
)
#: A 1 s diagnosis window holding scenario A's log-flush anomaly, so
#: the queue-span reads run too, not only the completions read.
WINDOW = (seconds(2), seconds(3))


@pytest.fixture
def db():
    db = MScopeDB()
    db.create_table(
        FRONT,
        [
            ("request_id", "TEXT"),
            ("interaction", "TEXT"),
            ("upstream_arrival_us", "INTEGER"),
            ("upstream_departure_us", "INTEGER"),
        ],
    )
    db.insert_rows(
        FRONT,
        ["request_id", "interaction", "upstream_arrival_us", "upstream_departure_us"],
        [
            (f"R{i:05d}", ("home", "login", "search")[i % 3], 100 * i, 100 * i + 7 * (i % 11))
            for i in range(300)
        ],
    )
    # The same two indexes the importer creates after a bulk load.
    db.create_index(FRONT, "request_id")
    db.create_covering_index(
        FRONT, ("upstream_departure_us", "upstream_arrival_us"), "departure"
    )
    return db


def test_explorer_results_consistent_with_indexes(db):
    """Indexes change plans, never answers: explorer output matches a
    hand-computed aggregate over the same rows."""
    explorer = WarehouseExplorer(db, front_table=FRONT)
    slowest = explorer.slowest_requests(5)
    assert len(slowest) == 5
    times = [r.response_ms for r in slowest]
    assert times == sorted(times, reverse=True)
    assert times[0] == pytest.approx(0.07)  # 7 us * max residue 10

    stats = {s.interaction: s for s in explorer.interaction_stats()}
    assert set(stats) == {"home", "login", "search"}
    assert sum(s.count for s in stats.values()) == 300


# ----------------------------------------------------------------------
# a transformed 4 s scenario A tree, on both layouts


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    log_dir = tmp_path_factory.mktemp("plan_logs")
    return scenario_a(seed=7, duration=seconds(4), log_dir=log_dir)


def _transform(run, db):
    MScopeDataTransformer(db, jobs=1).transform_directory(run.log_dir)
    record_run_metadata(run.metadata, db)
    db.close()


@pytest.fixture(scope="module")
def mono(run, tmp_path_factory):
    path = tmp_path_factory.mktemp("plan_mono") / "mscope.db"
    _transform(run, MScopeDB(path))
    return path


@pytest.fixture(scope="module")
def shard_root(run, tmp_path_factory):
    root = tmp_path_factory.mktemp("plan_shards") / "wh"
    _transform(run, ShardedMScopeDB(root, window_us=seconds(1)))
    return root


def _windowed_diagnose(path):
    """Every statement a windowed diagnosis issues on a fresh handle.

    The trace callback also reports, prefixed ``--``, the statements
    sqlite runs *inside* one (a ``pragma_table_info`` join's per-table
    pragmas); those are not statements of ours and are left out.
    """
    statements: list[str] = []
    with MScopeDB(path) as db:
        db._conn.set_trace_callback(statements.append)
        reports = Diagnoser(
            db, epoch_us=db.recorded_epoch_us(), window_us=WINDOW
        ).diagnose()
        db._conn.set_trace_callback(None)
    assert reports, "the window must hold the anomaly"
    return [sql for sql in statements if not sql.startswith("--")]


def _event_table_plans(conn, statements):
    """``(statement, plan lines)`` of each statement naming an event
    table."""
    return [
        (sql, [row[-1] for row in conn.execute(f"EXPLAIN QUERY PLAN {sql}")])
        for sql in statements
        if any(f'"{table}"' in sql for table in EVENT_TABLES)
    ]


def test_windowed_diagnose_searches_every_event_table(mono):
    statements = _windowed_diagnose(mono)
    with sqlite3.connect(mono) as conn:
        plans = _event_table_plans(conn, statements)
    # The completions read and one queue-span read per tier.
    assert len(plans) == 1 + len(EVENT_TABLES), statements
    for table in EVENT_TABLES:
        assert any(f'"{table}"' in sql for sql, _ in plans), table
    for sql, plan in plans:
        assert all(line.startswith("SEARCH") for line in plan), (sql, plan)
        assert any("_departure" in line for line in plan), (sql, plan)
        assert not any("TEMP B-TREE" in line for line in plan), (sql, plan)


def test_plans_degrade_without_indexes(mono):
    """The guard is real: the same statements on a copy without the
    ``departure`` indexes scan, and the completions read sorts."""
    statements = _windowed_diagnose(mono)
    conn = sqlite3.connect(":memory:")
    with sqlite3.connect(mono) as source:
        source.backup(conn)
    for table in EVENT_TABLES:
        conn.execute(f'DROP INDEX "idx_{table}_departure"')
    plans = _event_table_plans(conn, statements)
    conn.close()
    for sql, plan in plans:
        assert any(line.startswith("SCAN") for line in plan), (sql, plan)
    assert any(
        "TEMP B-TREE" in line for _, plan in plans for line in plan
    ), plans


def test_fresh_handle_reads_the_schema_in_one_statement(mono):
    """A windowed diagnosis on a fresh handle asks for the catalog once
    — one ``sqlite_master`` ⨝ ``pragma_table_info`` ⨝
    ``schema_catalog`` join — not once or twice per table."""
    schema = [
        sql
        for sql in _windowed_diagnose(mono)
        if "sqlite_master" in sql
        or "table_info" in sql
        or "schema_catalog" in sql
    ]
    assert len(schema) == 1, schema


def _index_sets(indexes_of, tables):
    return {table: set(indexes_of(table)) for table in tables}


def _expected(tables):
    return {
        table: (
            {f"idx_{table}_request_id", f"idx_{table}_departure"}
            if table in EVENT_TABLES
            else {f"idx_{table}_timestamp_us"}
        )
        for table in tables
    }


def test_importer_builds_both_indexes(mono, shard_root):
    """Exactly ``{request_id, departure}`` on each event table and
    ``{timestamp_us}`` on each resource table — on the monolith and in
    every shard file of a shard root."""
    with MScopeDB(mono) as db:
        tables = db.dynamic_tables()
        assert set(EVENT_TABLES) <= set(tables)
        assert len(tables) > len(EVENT_TABLES)
        assert _index_sets(db.indexes, tables) == _expected(tables)
    with ShardedMScopeDB(shard_root) as db:
        assert db.dynamic_tables() == tables
        assert _index_sets(db.indexes, tables) == _expected(tables)
    shard_files = sorted(Path(shard_root, "shards").rglob("*.db"))
    assert len(shard_files) > len({t.rsplit("_", 1)[1] for t in tables})
    for path in shard_files:
        with sqlite3.connect(path) as conn:
            rows = conn.execute(
                "SELECT tbl_name, name FROM sqlite_master WHERE type = 'index'"
            ).fetchall()
            held = [
                name
                for name, in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            ]
        found: dict[str, set[str]] = {table: set() for table in held}
        for table, name in rows:
            found[table].add(name)
        assert found == _expected(held), path
