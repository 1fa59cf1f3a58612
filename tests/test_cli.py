"""Tests for the ``mscope`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.warehouse.db import MScopeDB


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_writes_logs_and_meta(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["run", "--scenario", "a", "--out", str(out), "--duration", "2"]
    )
    assert code == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["scenario"] == "a"
    assert meta["duration_us"] == 2_000_000
    assert (out / "logs" / "web1" / "access_log.log").exists()
    assert "req/s" in capsys.readouterr().out


def test_transform_and_diagnose_round_trip(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", "a", "--out", str(out)])
    db_path = out / "m.db"
    code = main(
        ["transform", "--logs", str(out / "logs"), "--db", str(db_path)]
    )
    assert code == 0
    with MScopeDB(db_path) as db:
        assert "apache_events_web1" in db.dynamic_tables()
        # The run's epoch was carried over from run_meta.json.
        assert db.get_experiment_meta("epoch_us") is not None
    capsys.readouterr()

    code = main(["diagnose", "--db", str(db_path)])
    assert code == 0
    output = capsys.readouterr().out
    assert "Anomaly window" in output
    assert "disk on db1 saturated" in output


def test_diagnose_healthy_run_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "out"
    main(
        [
            "run",
            "--scenario",
            "baseline",
            "--workload",
            "300",
            "--duration",
            "2",
            "--out",
            str(out),
        ]
    )
    db_path = out / "m.db"
    main(["transform", "--logs", str(out / "logs"), "--db", str(db_path)])
    capsys.readouterr()
    code = main(["diagnose", "--db", str(db_path)])
    assert code == 1
    assert "no anomaly" in capsys.readouterr().out


def test_figures_unknown_number_rejected(capsys):
    code = main(["figures", "--which", "99"])
    assert code == 2


def test_figures_prints_selected(capsys):
    code = main(["figures", "--which", "2"])
    assert code == 0
    assert "Figure 2" in capsys.readouterr().out


def test_transform_quarantine_and_errors_report(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", "a", "--duration", "2", "--out", str(out)])
    # Garble one known line so the lenient transform has work to do.
    from repro.transformer.faultgen import LogCorruptor

    LogCorruptor(seed=7).garble_lines(
        out / "logs" / "web1" / "access_log.log", [2]
    )
    db_path = out / "m.db"
    capsys.readouterr()
    code = main(
        [
            "transform",
            "--logs",
            str(out / "logs"),
            "--db",
            str(db_path),
            "--on-error=quarantine",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "1 ingest errors" in output
    # The quarantine dir defaults to <db>.quarantine.
    quarantine = out / "m.db.quarantine"
    assert (quarantine / "web1" / "access_log.log.quarantine").exists()
    with MScopeDB(db_path) as db:
        assert db.ingest_error_count() == 1

    code = main(["errors", "--db", str(db_path)])
    assert code == 1  # errors exist -> nonzero for scripting
    report = capsys.readouterr().out
    assert "access_log.log" in report
    assert "line 2" in report


def test_errors_report_empty_ledger_exits_zero(tmp_path, capsys):
    db_path = tmp_path / "m.db"
    MScopeDB(db_path).close()
    code = main(["errors", "--db", str(db_path)])
    assert code == 0
    assert "no ingest errors" in capsys.readouterr().out


def test_failed_sharded_transform_leaves_the_monoliths_partial_load(tmp_path):
    """A fail-fast ``--jobs 2`` transform that dies in db1's last
    declared file leaves in shards exactly what it leaves in one file,
    and every shard file on disk is one the manifest names."""
    from repro.common.errors import ParseError
    from repro.transformer.faultgen import LogCorruptor
    from repro.warehouse.sharded import ShardedMScopeDB

    out = tmp_path / "out"
    main(["run", "--scenario", "a", "--duration", "2", "--out", str(out)])
    sar = out / "logs" / "db1" / "sar.log"
    LogCorruptor(seed=7).garble_lines(
        sar, [len(sar.read_text().splitlines()) // 2]
    )
    for db, layout in (("m.db", []), ("m.shards", ["--shard-window-s", "0.6"])):
        with pytest.raises(ParseError, match="sar.log"):
            main(
                [
                    "transform",
                    "--logs",
                    str(out / "logs"),
                    "--db",
                    str(tmp_path / db),
                    "--jobs",
                    "2",
                    *layout,
                ]
            )
    root = tmp_path / "m.shards"
    with MScopeDB(tmp_path / "m.db") as mono, ShardedMScopeDB(root) as shard:
        assert list(shard.iterdump_content()) == list(
            mono.iterdump_content()
        )
        named = {root / info.relpath for info in shard.shard_manifest()}
    assert set((root / "shards").glob("*/*.db")) == named


def test_transform_fail_fast_is_the_default(tmp_path):
    from repro.common.errors import ParseError

    out = tmp_path / "out"
    main(["run", "--scenario", "a", "--duration", "2", "--out", str(out)])
    from repro.transformer.faultgen import LogCorruptor

    LogCorruptor(seed=7).garble_lines(
        out / "logs" / "web1" / "access_log.log", [2]
    )
    with pytest.raises(ParseError):
        main(
            [
                "transform",
                "--logs",
                str(out / "logs"),
                "--db",
                str(tmp_path / "m.db"),
            ]
        )


def test_transform_records_telemetry_and_stats_renders(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", "a", "--duration", "2", "--out", str(out)])
    db_path = out / "m.db"
    stats_json = out / "stats.json"
    code = main(
        [
            "transform",
            "--logs", str(out / "logs"),
            "--db", str(db_path),
            "--stats-json", str(stats_json),
        ]
    )
    assert code == 0
    summary = capsys.readouterr().out
    assert "telemetry:" in summary and "mscope stats" in summary

    exported = json.loads(stats_json.read_text())
    assert exported["files"] == 16
    assert {s["stage"] for s in exported["stages"]} >= {
        "resolve", "parse", "convert", "import", "run",
    }

    with MScopeDB(db_path) as db:
        assert db.has_pipeline_metrics()

    # Text rendering: per-stage latency percentiles + worker table.
    code = main(["stats", "--db", str(db_path)])
    assert code == 0
    text = capsys.readouterr().out
    assert "p50" in text and "p99" in text
    assert "parse" in text and "main" in text

    # JSON and Prometheus renderings of the same warehouse.
    assert main(["stats", "--db", str(db_path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["files"] == 16
    assert main(["stats", "--db", str(db_path), "--format", "prom"]) == 0
    assert "mscope_pipeline_stage_duration_seconds" in capsys.readouterr().out


def test_transform_no_stats_leaves_no_telemetry(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", "a", "--duration", "2", "--out", str(out)])
    db_path = out / "m.db"
    code = main(
        [
            "transform",
            "--logs", str(out / "logs"),
            "--db", str(db_path),
            "--no-stats",
        ]
    )
    assert code == 0
    assert "telemetry:" not in capsys.readouterr().out
    with MScopeDB(db_path) as db:
        assert not db.has_pipeline_metrics()

    # stats on a telemetry-free warehouse explains itself and fails.
    assert main(["stats", "--db", str(db_path)]) == 1
    assert "no pipeline telemetry" in capsys.readouterr().out


@pytest.mark.parametrize(
    "window, message",
    [
        ("180:120", "start must be before stop"),
        ("120:120", "start must be before stop"),
        ("-5:10", "must be >= 0"),
        (":", "at least one side"),
        ("abc", "expected START:STOP"),
    ],
)
def test_diagnose_rejects_bad_windows(tmp_path, capsys, window, message):
    db_path = tmp_path / "m.db"
    MScopeDB(db_path).close()
    code = main(
        ["diagnose", "--db", str(db_path), f"--window={window}"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "bad --window" in err and message in err


def test_serve_parser_defaults(tmp_path):
    args = build_parser().parse_args(["serve", "--logs", str(tmp_path)])
    assert args.command == "serve"
    assert args.port == 0
    assert args.queue_capacity == 64
    assert args.on_error == "fail-fast"
    assert args.db is None
