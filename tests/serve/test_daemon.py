"""Tests for the serve daemon's ingest and diagnosis cycles.

Everything here drives the synchronous cycle methods directly — no
asyncio, no sockets — against synthetic mysql boundary logs (the same
idiom as the live-transformer tests) and synthetic front-tier tables
(the same idiom as the diagnosis unit tests).
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.common.records import BoundaryRecord
from repro.common.timebase import WallClock, ms, seconds
from repro.logfmt.mysql import format_mscope_query
import repro.serve.events as ev
from repro.serve.daemon import MScopeServeDaemon, ServeConfig
from repro.transformer.pipeline import MScopeDataTransformer
from repro.warehouse.db import MScopeDB

WALL = WallClock()


def mysql_line(i, host="db1"):
    boundary = BoundaryRecord(
        request_id=f"R0A00000000{i}",
        tier="mysql",
        node=host,
        upstream_arrival=ms(10 * (i + 1)),
        upstream_departure=ms(10 * (i + 1) + 2),
    )
    return format_mscope_query(WALL, boundary, f"SELECT {i}")


def append(path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        for line in lines:
            handle.write(line + "\n")


def make_daemon(logs, **overrides):
    config = ServeConfig(logs=logs, **overrides)
    return MScopeServeDaemon(config)


@pytest.fixture()
def logs(tmp_path):
    root = tmp_path / "logs"
    append(root / "db1" / "mysql_log.log", [mysql_line(i) for i in range(3)])
    return root


# -- ingest ------------------------------------------------------------


def test_first_cycle_imports_everything(logs):
    daemon = make_daemon(logs)
    outcome = daemon.ingest_cycle()
    assert outcome.new_rows == 3
    assert daemon.state.rows == 3
    assert daemon.db.row_count("mysql_events_db1") == 3


def test_heartbeat_published_each_cycle(logs):
    daemon = make_daemon(logs)
    daemon.ingest_cycle()
    daemon.ingest_cycle()
    beats = daemon.broker.history(ev.HEARTBEAT)
    assert [beat.data["cycle"] for beat in beats] == [1, 2]
    assert beats[0].data["new_rows"] == 3
    assert beats[1].data["new_rows"] == 0


def test_unchanged_file_is_not_reoffered(logs):
    daemon = make_daemon(logs)
    daemon.ingest_cycle()
    outcome = daemon.ingest_cycle()
    assert outcome.advanced_files == 0
    assert outcome.new_rows == 0


def test_appended_growth_imports_only_the_delta(logs):
    daemon = make_daemon(logs)
    daemon.ingest_cycle()
    append(logs / "db1" / "mysql_log.log", [mysql_line(i) for i in (3, 4)])
    outcome = daemon.ingest_cycle()
    assert outcome.new_rows == 2
    assert daemon.db.row_count("mysql_events_db1") == 5


def test_multi_host_trees_route_to_per_host_tables(tmp_path):
    root = tmp_path / "logs"
    for host in ("db1", "db2"):
        append(
            root / host / "mysql_log.log",
            [mysql_line(i, host) for i in range(2)],
        )
    daemon = make_daemon(root)
    daemon.ingest_cycle()
    assert daemon.db.row_count("mysql_events_db1") == 2
    assert daemon.db.row_count("mysql_events_db2") == 2


def test_missing_log_tree_serves_empty(tmp_path):
    daemon = make_daemon(tmp_path / "nowhere")
    outcome = daemon.ingest_cycle()
    assert outcome.new_rows == 0
    assert daemon.state.cycles == 1


COMPLETE_SAR_XML = (
    '<?xml version="1.0"?>\n<sysstat>\n<host nodename="db1" cpus="4">\n'
    "<statistics>"
    '<timestamp date="2017-03-01" time="10:00:00.050">'
    '<cpu-load><cpu number="all" user="1.00" system="0.50" '
    'iowait="0.00" steal="0.00" idle="98.50"/></cpu-load></timestamp>'
    "</statistics>\n</host>\n</sysstat>"
)


def test_unparsable_file_is_skipped_reported_and_retried(logs):
    # A torn mid-write XML document cannot parse; the daemon skips it,
    # announces the error, and picks it up once the writer finishes.
    torn = logs / "db1" / "sar_xml.log"
    torn.write_text("<sysstat><unclosed")
    daemon = make_daemon(logs)
    outcome = daemon.ingest_cycle()
    assert outcome.new_rows == 3  # the healthy mysql log still lands
    assert outcome.skipped_files == 1
    assert daemon.state.skipped_files == 1
    errors = daemon.broker.history(ev.INGEST_ERROR)
    assert errors and "sar_xml.log" in errors[0].data["file"]
    torn.write_text(COMPLETE_SAR_XML)
    outcome = daemon.ingest_cycle()
    assert outcome.new_rows == 1
    assert outcome.skipped_files == 0


def test_truncated_file_is_announced_and_reoffered(logs):
    # A log rewritten shorter than what was already imported is not a
    # quiet no-op: the daemon skips it, says why, and keeps offering it.
    path = logs / "db1" / "mysql_log.log"
    daemon = make_daemon(logs)
    daemon.ingest_cycle()
    path.write_text("")
    append(path, [mysql_line(3)])
    outcome = daemon.ingest_cycle()
    assert (outcome.skipped_files, outcome.new_rows) == (1, 0)
    assert daemon.state.skipped_files == 1
    (error,) = daemon.broker.history(ev.INGEST_ERROR)
    assert error.data["file"] == str(path)
    assert "1 records < 3 already imported" in error.data["reason"]
    assert daemon.db.row_count("mysql_events_db1") == 3
    # Its cursor stays put, so the next cycle tries it again.
    assert daemon.ingest_cycle().skipped_files == 1


def test_lenient_policy_records_errors_without_skipping(logs):
    append(
        logs / "db1" / "mysql_log.log", ["170301 10:00:00\tQuery\tbroken"]
    )
    daemon = make_daemon(logs, on_error="skip")
    outcome = daemon.ingest_cycle()
    assert outcome.new_rows == 3
    assert outcome.skipped_files == 0
    assert daemon.state.ingest_errors == 1
    assert daemon.broker.history(ev.INGEST_ERROR)


def test_run_meta_copied_into_warehouse(tmp_path):
    root = tmp_path / "logs"
    append(root / "db1" / "mysql_log.log", [mysql_line(0)])
    (tmp_path / "run_meta.json").write_text(
        '{"seed": 3, "duration_us": 1000000, "epoch_us": 42, '
        '"workload_users": 5}'
    )
    daemon = make_daemon(root)
    assert daemon.epoch_us == 42
    assert daemon.db.get_experiment_meta("seed") == "3"
    assert daemon.db.get_experiment_meta("workload_users") == "5"


# -- many growing files -------------------------------------------------


@pytest.fixture()
def storm_logs(tmp_path):
    root = tmp_path / "logs"
    for n in range(6):
        append(
            root / f"db{n}" / "mysql_log.log",
            [mysql_line(i, f"db{n}") for i in range(3)],
        )
    return root


def test_every_growing_file_lands_every_cycle(tmp_path):
    """100 files, each growing a line per cycle: no file waits behind
    another, so every appended row lands in the cycle after its append."""
    root = tmp_path / "logs"
    hosts = [f"db{n}" for n in range(100)]
    daemon = make_daemon(root)
    for cycle in range(3):
        for host in hosts:
            append(root / host / "mysql_log.log", [mysql_line(cycle, host)])
        outcome = daemon.ingest_cycle()
        assert (outcome.new_rows, outcome.skipped_files) == (100, 0)
    for host in hosts:
        assert daemon.db.row_count(f"mysql_events_{host}") == 3
    assert daemon.state.rows == 300


@pytest.mark.parametrize("sampling", [None, "head:0.5"])
def test_a_cycle_commits_once_and_an_idle_cycle_never(storm_logs, sampling):
    """However many files grew, a cycle that lands rows is one
    transaction: one COMMIT, where each grown file used to commit on
    its own — sampled or not.  A cycle with nothing to land writes
    nothing at all."""
    daemon = make_daemon(storm_logs, sampling=sampling)
    statements = []
    daemon.db._conn.set_trace_callback(statements.append)
    assert daemon.ingest_cycle().advanced_files == 6
    assert statements.count("COMMIT") == 1
    statements.clear()
    assert daemon.ingest_cycle().advanced_files == 0
    assert statements == []
    for n in (0, 4):
        append(storm_logs / f"db{n}" / "mysql_log.log", [mysql_line(5, f"db{n}")])
    assert daemon.ingest_cycle().advanced_files == 2
    assert statements.count("COMMIT") == 1
    if sampling is None:
        assert daemon.state.rows == 20
    else:
        assert [row[3] for row in daemon.db.sampling_ledger()] == [
            4, 3, 3, 3, 4, 3
        ]


def test_drain_catches_up_even_mid_storm(storm_logs):
    daemon = make_daemon(storm_logs)
    daemon.ingest_cycle()
    daemon.drain()
    assert daemon.state.draining
    for n in range(6):
        assert daemon.db.row_count(f"mysql_events_db{n}") == 3
    shutdown = daemon.broker.history(ev.SHUTDOWN)
    assert shutdown and shutdown[0].data["rows"] == 18


def test_drained_warehouse_matches_batch_transform(storm_logs):
    daemon = make_daemon(storm_logs)
    daemon.ingest_cycle()
    append(
        storm_logs / "db0" / "mysql_log.log", [mysql_line(9, "db0")]
    )
    daemon.drain()
    batch = MScopeDB()
    MScopeDataTransformer(batch).transform_directory(storm_logs)
    assert list(daemon.db.iterdump_content()) == list(
        batch.iterdump_content()
    )


def test_live_session_registers_each_stream_once(storm_logs):
    """Over a multi-cycle session every stream's ``monitor_registry``
    row is written on its first load only (a host appearing mid-session
    included), and the drained warehouse still equals a batch one."""
    daemon = make_daemon(storm_logs)
    registry_writes = []
    daemon.db._conn.set_trace_callback(
        lambda sql: registry_writes.append(sql)
        if "INTO monitor_registry" in sql
        else None
    )
    for cycle in range(4):
        for n in range(6):
            append(
                storm_logs / f"db{n}" / "mysql_log.log",
                [mysql_line(10 + cycle, f"db{n}")],
            )
        if cycle == 2:
            append(storm_logs / "db6" / "mysql_log.log", [mysql_line(0, "db6")])
        assert daemon.ingest_cycle().new_rows
    daemon.drain()
    assert len(registry_writes) == 7
    batch = MScopeDB()
    MScopeDataTransformer(batch).transform_directory(storm_logs)
    assert list(daemon.db.iterdump_content()) == list(
        batch.iterdump_content()
    )


# -- diagnosis ---------------------------------------------------------

EPOCH = 1_000_000_000
MS = 1_000


def make_front_table(db, spans, table="apache_events_web1"):
    db.create_table(
        table,
        [
            ("request_id", "TEXT"),
            ("interaction", "TEXT"),
            ("upstream_arrival_us", "INTEGER"),
            ("upstream_departure_us", "INTEGER"),
        ],
    )
    db.insert_rows(
        table,
        [
            "request_id",
            "interaction",
            "upstream_arrival_us",
            "upstream_departure_us",
        ],
        [
            (f"R0A{i:09d}", "ViewStory", EPOCH + a, EPOCH + d)
            for i, (a, d) in enumerate(spans)
        ],
    )


def healthy_spans(n=120, rt_us=5 * MS, spacing_us=10 * MS):
    return [(i * spacing_us, i * spacing_us + rt_us) for i in range(n)]


def test_diagnose_without_front_table_waits(tmp_path):
    daemon = make_daemon(tmp_path / "logs")
    assert daemon.diagnose_cycle() == []
    assert daemon.state.diagnose_cycles == 1
    assert daemon.state.cached_windows == 0


def test_diagnose_caches_one_verdict_per_window(tmp_path):
    daemon = make_daemon(
        tmp_path / "logs", epoch_us=EPOCH, diagnosis_window_s=0.5
    )
    make_front_table(daemon.db, healthy_spans())  # data spans ~1.2 s
    updated = daemon.diagnose_cycle()
    keys = [verdict.key for verdict in updated]
    assert keys == ["0:0.5", "0.5:1", "1:1.5"]
    # Every window before the data's extent is final; the trailing
    # window stays provisional.
    assert [verdict.final for verdict in updated] == [True, True, False]
    assert daemon.state.cached_windows == 3


def test_diagnosis_starts_at_the_first_window_holding_data(
    tmp_path, monkeypatch
):
    """No run_meta.json and no epoch override: the epoch resolves to 0,
    timestamps are absolute, and the first window with data is ~10^8
    windows from zero — the daemon must not diagnose its way there."""
    import repro.serve.daemon as daemon_module

    built = []
    real = daemon_module.Diagnoser
    monkeypatch.setattr(
        daemon_module,
        "Diagnoser",
        lambda *args, **kwargs: built.append(kwargs) or real(*args, **kwargs),
    )
    daemon = make_daemon(tmp_path / "logs", diagnosis_window_s=0.5)
    assert daemon.epoch_us == 0
    make_front_table(daemon.db, healthy_spans())  # ~1.2 s from EPOCH
    updated = daemon.diagnose_cycle()
    first = EPOCH // seconds(0.5)
    assert [v.start_us // seconds(0.5) for v in updated] == [
        first, first + 1, first + 2,
    ]
    assert len(built) == 3
    assert [v.final for v in updated] == [True, True, False]
    # The trailing window is still the only one re-diagnosed.
    assert [v.key for v in daemon.diagnose_cycle()] == [updated[-1].key]


def test_trailing_window_is_rediagnosed_until_passed(tmp_path):
    daemon = make_daemon(
        tmp_path / "logs", epoch_us=EPOCH, diagnosis_window_s=0.5
    )
    make_front_table(daemon.db, healthy_spans())
    daemon.diagnose_cycle()
    updated = daemon.diagnose_cycle()
    assert [verdict.key for verdict in updated] == ["1:1.5"]
    assert updated[0].passes == 2
    # New data lands past the window: it finalizes, a new trailing
    # window appears.
    daemon.db.insert_rows(
        "apache_events_web1",
        [
            "request_id",
            "interaction",
            "upstream_arrival_us",
            "upstream_departure_us",
        ],
        [("R0Anew", "ViewStory", EPOCH + 1_600 * MS, EPOCH + 1_610 * MS)],
    )
    updated = daemon.diagnose_cycle()
    assert [verdict.key for verdict in updated] == ["1:1.5", "1.5:2"]
    assert updated[0].final and not updated[1].final


def test_verdicts_filter_by_window(tmp_path):
    daemon = make_daemon(
        tmp_path / "logs", epoch_us=EPOCH, diagnosis_window_s=0.5
    )
    make_front_table(daemon.db, healthy_spans())
    daemon.diagnose_cycle()
    filtered = daemon.verdicts(window=(seconds(0.5), seconds(1.0)))
    assert [verdict.key for verdict in filtered] == ["0.5:1"]
    assert daemon.verdict("0:0.5") is not None
    assert daemon.verdict("7:8") is None


def test_floor_breach_published_once_per_window(tmp_path):
    daemon = make_daemon(
        tmp_path / "logs", epoch_us=EPOCH, diagnosis_window_s=2.0
    )
    # A burst of ten 300 ms requests makes window 0:2 anomalous.
    spans = healthy_spans() + [
        (500 * MS + i * MS, 800 * MS + i * MS) for i in range(10)
    ]
    make_front_table(daemon.db, spans)
    daemon.diagnose_cycle()
    breaches = daemon.broker.history(ev.FLOOR_BREACH)
    assert len(breaches) == 1
    assert breaches[0].data["window"] == "0:2"
    assert breaches[0].data["vlrt_count"] >= 1
    assert daemon.state.floor_breaches == 1
    # Re-diagnosing the same window does not re-announce it.
    daemon.diagnose_cycle()
    assert len(daemon.broker.history(ev.FLOOR_BREACH)) == 1


# -- both layouts, every cycle on another thread ------------------------


def on_a_new_thread(call):
    """Run ``call`` the way ``run()`` does — ``asyncio.to_thread`` hands
    each cycle to whichever executor thread is free."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(call).result(timeout=60)


def test_sharded_daemon_cycles_run_on_different_threads(storm_logs, tmp_path):
    # 0.25 s shards under 0.5 s diagnosis windows: every table is in
    # several shard files, each written and read on several threads.
    layout = dict(epoch_us=EPOCH, diagnosis_window_s=0.5)
    mono = make_daemon(storm_logs, **layout)
    shard = make_daemon(
        storm_logs, db=tmp_path / "serve.shards", shard_window_s=0.25,
        **layout,
    )
    for daemon in (mono, shard):
        assert on_a_new_thread(daemon.ingest_cycle).new_rows == 18
    append(storm_logs / "db0" / "mysql_log.log", [mysql_line(9, "db0")])
    verdicts = {}
    for daemon in (mono, shard):
        assert on_a_new_thread(daemon.ingest_cycle).new_rows == 1
        on_a_new_thread(lambda: make_front_table(daemon.db, healthy_spans()))
        verdicts[daemon] = [
            verdict.to_dict()
            for verdict in on_a_new_thread(daemon.diagnose_cycle)
        ]
        on_a_new_thread(daemon.drain)
    assert verdicts[shard] == verdicts[mono]
    assert [verdict["window"] for verdict in verdicts[mono]] == [
        "0:0.5", "0.5:1", "1:1.5",
    ]
    assert len(shard.db.shard_manifest()) > 6
    assert list(shard.db.iterdump_content()) == list(
        mono.db.iterdump_content()
    )
    shard.db.close()
