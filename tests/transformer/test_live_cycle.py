"""A live refresh cycle is one warehouse transaction.

Every grown file of a cycle lands inside one transaction; the cursors
move only after it commits, and an import that fails rolls the whole
cycle back — warehouse, cursors, catalog and sampling ledger — so the
next cycle starts from the same point and still converges on a batch
transform; the damage it recorded is reported only once it commits.  A file whose stat has not changed since its settled cursor
is not even opened.  (That a cycle commits once, and an idle one not at
all, is held in ``tests/serve/test_daemon.py``.)
"""

import builtins
import io
import os
import time
from pathlib import Path

import pytest

from repro.cli import main as mscope
from repro.common.errors import DataImportError
from repro.common.timebase import seconds
from repro.experiments.scenarios import scenario_a
from repro.serve.daemon import MScopeServeDaemon, ServeConfig
from repro.transformer.errorpolicy import SKIP, ErrorPolicy
from repro.transformer.live import LiveTransformer
from repro.warehouse.db import MScopeDB
from repro.warehouse.sharded import open_warehouse


@pytest.fixture(scope="module")
def halves(tmp_path_factory):
    """Each of a 1 s scenario-A tree's 16 logs as two chunks of whole
    lines, keyed by ``(host, file name)``."""
    source = tmp_path_factory.mktemp("cycle_source")
    scenario_a(duration=seconds(1), log_dir=source)
    parts = {}
    for path in sorted(source.glob("*/*.log")):
        lines = path.read_bytes().splitlines(keepends=True)
        cut = len(lines) // 2
        parts[(path.parent.name, path.name)] = (
            b"".join(lines[:cut]),
            b"".join(lines[cut:]),
        )
    assert len(parts) == 16
    return parts


def grow(root: Path, halves, index: int) -> None:
    for (host, name), chunks in halves.items():
        path = root / host / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("ab") as handle:
            handle.write(chunks[index])


def fail_nth_insert(monkeypatch, db, nth: int) -> list:
    """Make the ``nth`` ``insert_rows`` call from now on raise."""
    real = type(db).insert_rows
    calls = []

    def insert_rows(self, *args, **kwargs):
        calls.append(args[0])
        if len(calls) == nth:
            raise DataImportError("disk full")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(type(db), "insert_rows", insert_rows)
    return calls


def state(daemon, files):
    db = daemon.db
    return (
        list(db.iterdump_content()),
        [daemon._live.high_water(path) for path in files],
        db.query("SELECT * FROM load_catalog ORDER BY 1, 2"),
        db.sampling_ledger(),
        daemon._live.sampling_totals(),
    )


@pytest.mark.parametrize("sampling", [None, "head:0.5"])
@pytest.mark.parametrize("layout", ["monolith", "sharded"])
def test_a_failed_cycle_leaves_everything_as_it_was(
    tmp_path, monkeypatch, halves, layout, sampling
):
    """An import failure on the 9th of 16 grown files undoes the 8
    before it: the warehouse, every cursor, the catalog and the
    sampling ledger are as they were, and the next cycle converges on
    a batch transform."""
    logs = tmp_path / "logs"
    window = {"shard_window_s": 0.5} if layout == "sharded" else {}
    daemon = MScopeServeDaemon(
        ServeConfig(
            logs=logs, db=tmp_path / "serve.db", sampling=sampling, **window
        )
    )
    grow(logs, halves, 0)
    daemon.ingest_cycle()
    files = [path for _, path in daemon._live.declared_files(logs)]
    assert len(files) == 16
    before = state(daemon, files)

    grow(logs, halves, 1)
    calls = fail_nth_insert(monkeypatch, daemon.db, 9)
    with pytest.raises(DataImportError, match="disk full"):
        daemon.ingest_cycle()
    assert len(calls) == 9
    assert state(daemon, files) == before

    monkeypatch.undo()
    outcome = daemon.ingest_cycle()
    assert outcome.advanced_files == 16
    sampled = ["--sampling", sampling] if sampling else []
    assert mscope(
        [
            "transform",
            "--logs", str(logs),
            "--db", str(tmp_path / "batch.db"),
            "--no-stats",
            *sampled,
        ]
    ) == 0
    with open_warehouse(tmp_path / "batch.db") as batch:
        assert list(daemon.db.iterdump_content()) == list(
            batch.iterdump_content()
        )
    daemon.db.close()


@pytest.mark.parametrize("spec", ["head:0.5", "tail:0.5:5"])
def test_a_rolled_back_load_is_not_counted_twice(
    tmp_path, monkeypatch, halves, spec
):
    """The sampling policy counts (and may withhold) the rows it sees
    before they load; a load that rolls back takes all of that back
    with it, so the retry leaves what a clean run leaves."""
    logs = tmp_path / "logs"
    grow(logs, halves, 0)
    grow(logs, halves, 1)
    access = logs / "web1" / "access_log.log"
    app = logs / "app1" / "catalina_log.log"

    clean = LiveTransformer(MScopeDB(), sampling=spec)
    clean.refresh_file(app, "app1")
    clean.refresh_file(access, "web1")
    clean.flush_sampling()

    retried = LiveTransformer(MScopeDB(), sampling=spec)
    retried.refresh_file(app, "app1")
    seen_before = retried.sampling_totals()
    fail_nth_insert(monkeypatch, retried.db, 1)
    with pytest.raises(DataImportError):
        retried.refresh_file(access, "web1")
    assert retried.sampling_totals() == seen_before
    assert retried.high_water(access) == 0
    monkeypatch.undo()
    retried.refresh_file(access, "web1")
    retried.flush_sampling()

    assert retried.sampling_totals() == clean.sampling_totals()
    assert list(retried.db.iterdump_content()) == list(
        clean.db.iterdump_content()
    )
    ledger = dict(
        (table, (seen, kept))
        for table, _, _, seen, kept, _, _ in retried.db.sampling_ledger()
    )
    seen, kept = ledger["apache_events_web1"]
    assert kept == retried.db.row_count("apache_events_web1") < seen


def test_a_rolled_back_cycle_reports_no_damage(tmp_path, monkeypatch, halves):
    """Damaged lines reach ``on_ingest_error`` (the serve daemon's
    error counter and SSE stream) only once their cycle committed: a
    cycle that rolled back reports nothing, and the cycle that lands
    the same lines again reports each of them once."""
    logs = tmp_path / "logs"
    grow(logs, halves, 0)
    damaged = logs / "db1" / "mysql_log.log"
    with damaged.open("ab") as handle:
        handle.write(b"170301 10:00:00\tQuery\tbroken\n")
    reported = []
    live = LiveTransformer(
        MScopeDB(),
        policy=ErrorPolicy(mode=SKIP, budget=None),
        on_ingest_error=lambda path, reason: reported.append((path, reason)),
    )
    fail_nth_insert(monkeypatch, live.db, 9)  # after db1's mysql log
    with pytest.raises(DataImportError):
        live.refresh_directory(logs)
    assert reported == []
    assert live.db.ingest_error_count() == 0
    monkeypatch.undo()
    live.refresh_directory(logs)
    ((path, reason),) = reported
    assert path == str(damaged)
    assert "malformed" in reason


def test_an_idle_cycle_opens_no_log(tmp_path, monkeypatch, halves):
    """Once a file's mtime and ctime are a second older than its cursor,
    a stat that still matches vouches for it: the cycle neither opens
    it, nor spans it, nor imports anything.  A file written since is
    opened again, even when its mtime was set back (``cp -p``,
    ``rsync -t``): the write moved its ctime, which ``utime`` cannot
    set back."""
    from repro.telemetry.spans import TelemetryCollector, zero_clock

    logs = tmp_path / "logs"
    grow(logs, halves, 0)
    grow(logs, halves, 1)
    time.sleep(1.1)  # let every mtime and ctime settle
    live = LiveTransformer(
        MScopeDB(), telemetry=TelemetryCollector(clock=zero_clock)
    )
    assert live.refresh_directory(logs).advanced_files == 16
    spans = len(live.telemetry.spans)

    opened = []

    def counting(real):
        def counting_open(file, *args, **kwargs):
            if str(file).startswith(str(logs)):
                opened.append(Path(file).name)
            return real(file, *args, **kwargs)

        return counting_open

    for module in (builtins, io, os):
        monkeypatch.setattr(module, "open", counting(module.open))
    outcome = live.refresh_directory(logs)
    assert (outcome.new_rows, outcome.advanced_files) == (0, 0)
    assert opened == []
    idle = [span.stage for span in live.telemetry.spans[spans:]]
    assert idle == ["refresh"]

    touched = logs / "db1" / "mysql_log.log"
    before = touched.stat()
    touched.write_bytes(touched.read_bytes())  # same size, same inode
    os.utime(touched, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert touched.stat().st_mtime_ns == before.st_mtime_ns
    opened.clear()
    assert live.refresh_directory(logs).new_rows == 0
    assert opened == ["mysql_log.log"]
