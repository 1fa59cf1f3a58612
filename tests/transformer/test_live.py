"""Tests for the incremental (live) transformer."""

from pathlib import Path

import pytest

from repro.common.errors import DeclarationError, ParseError
from repro.common.records import BoundaryRecord
from repro.common.timebase import WallClock, ms
from repro.logfmt.mysql import format_mscope_query
from repro.transformer.live import LiveTransformer
from repro.warehouse.db import MScopeDB

WALL = WallClock()


def mysql_line(i):
    boundary = BoundaryRecord(
        request_id=f"R0A00000000{i}",
        tier="mysql",
        node="db1",
        upstream_arrival=ms(10 * (i + 1)),
        upstream_departure=ms(10 * (i + 1) + 2),
    )
    return format_mscope_query(WALL, boundary, f"SELECT {i}")


@pytest.fixture()
def log_dir(tmp_path):
    host = tmp_path / "logs" / "db1"
    host.mkdir(parents=True)
    return tmp_path / "logs"


def append(path, lines):
    with path.open("a") as handle:
        for line in lines:
            handle.write(line + "\n")


def test_first_refresh_imports_everything(log_dir):
    path = log_dir / "db1" / "mysql_log.log"
    append(path, [mysql_line(i) for i in range(3)])
    live = LiveTransformer(MScopeDB())
    assert live.refresh_file(path, "db1") == 3
    assert live.db.row_count("mysql_events_db1") == 3


def test_second_refresh_imports_only_delta(log_dir):
    path = log_dir / "db1" / "mysql_log.log"
    append(path, [mysql_line(i) for i in range(3)])
    live = LiveTransformer(MScopeDB())
    live.refresh_file(path, "db1")
    append(path, [mysql_line(i) for i in range(3, 5)])
    assert live.refresh_file(path, "db1") == 2
    assert live.db.row_count("mysql_events_db1") == 5
    assert live.high_water(path) == 5


def test_no_growth_no_rows(log_dir):
    path = log_dir / "db1" / "mysql_log.log"
    append(path, [mysql_line(0)])
    live = LiveTransformer(MScopeDB())
    live.refresh_file(path, "db1")
    assert live.refresh_file(path, "db1") == 0


def test_rows_never_duplicated(log_dir):
    path = log_dir / "db1" / "mysql_log.log"
    live = LiveTransformer(MScopeDB())
    for round_number in range(4):
        append(path, [mysql_line(round_number)])
        live.refresh_directory(log_dir)
    ids = live.db.query("SELECT request_id FROM mysql_events_db1")
    assert len(ids) == len(set(ids)) == 4


def test_refresh_directory_outcome(log_dir):
    path = log_dir / "db1" / "mysql_log.log"
    append(path, [mysql_line(i) for i in range(2)])
    live = LiveTransformer(MScopeDB())
    outcome = live.refresh_directory(log_dir)
    assert outcome.new_rows == 2
    assert outcome.refreshed_files == 1
    assert outcome.skipped_files == 0


def test_mid_write_file_skipped_then_recovered(log_dir):
    # A SAR XML file is malformed until its closing tags are written.
    xml_path = log_dir / "db1" / "sar_xml.log"
    xml_path.write_text('<?xml version="1.0"?>\n<sysstat>\n<host nodename="db1">')
    live = LiveTransformer(MScopeDB())
    outcome = live.refresh_directory(log_dir)
    assert outcome.skipped_files == 1
    # Once the writer finishes the document, the next refresh loads it.
    xml_path.write_text(
        '<?xml version="1.0"?>\n<sysstat>\n<host nodename="db1" cpus="4">\n'
        "<statistics>"
        '<timestamp date="2017-03-01" time="10:00:00.050">'
        '<cpu-load><cpu number="all" user="1.00" system="0.50" '
        'iowait="0.00" steal="0.00" idle="98.50"/></cpu-load></timestamp>'
        "</statistics>\n</host>\n</sysstat>"
    )
    outcome = live.refresh_directory(log_dir)
    assert outcome.skipped_files == 0
    assert outcome.new_rows == 1


COMPLETE_SAR_XML = (
    '<?xml version="1.0"?>\n<sysstat>\n<host nodename="db1" cpus="4">\n'
    "<statistics>"
    '<timestamp date="2017-03-01" time="10:00:00.050">'
    '<cpu-load><cpu number="all" user="1.00" system="0.50" '
    'iowait="0.00" steal="0.00" idle="98.50"/></cpu-load></timestamp>'
    "</statistics>\n</host>\n</sysstat>"
)


def test_mid_write_file_recovered_within_refresh(log_dir):
    # The writer finishes the document while the refresh is backing
    # off, so the retry imports it without waiting for the next round.
    xml_path = log_dir / "db1" / "sar_xml.log"
    xml_path.write_text('<?xml version="1.0"?>\n<sysstat>\n<host nodename="db1">')

    def finish_the_write(_delay):
        xml_path.write_text(COMPLETE_SAR_XML)

    live = LiveTransformer(MScopeDB(), sleep=finish_the_write)
    outcome = live.refresh_directory(log_dir)
    assert outcome.skipped_files == 0
    assert outcome.new_rows == 1
    assert outcome.retries == 1


def test_mid_write_retries_are_bounded(log_dir):
    xml_path = log_dir / "db1" / "sar_xml.log"
    xml_path.write_text('<?xml version="1.0"?>\n<sysstat>\n<host nodename="db1">')
    delays = []
    live = LiveTransformer(
        MScopeDB(), max_retries=3, backoff_s=0.01, sleep=delays.append
    )
    outcome = live.refresh_directory(log_dir)
    assert outcome.skipped_files == 1
    assert outcome.retries == 3
    assert delays == [0.01, 0.02, 0.04]  # exponential backoff


def test_zero_retries_skips_immediately(log_dir):
    xml_path = log_dir / "db1" / "sar_xml.log"
    xml_path.write_text("<sysstat><unclosed")
    never = []
    live = LiveTransformer(MScopeDB(), max_retries=0, sleep=never.append)
    outcome = live.refresh_directory(log_dir)
    assert outcome.skipped_files == 1
    assert outcome.retries == 0
    assert never == []


def test_lenient_live_records_errors_idempotently(log_dir):
    from repro.transformer.errorpolicy import SKIP, ErrorPolicy

    path = log_dir / "db1" / "mysql_log.log"
    append(path, [mysql_line(0), "170301 10:00:00\tQuery\tbroken"])
    live = LiveTransformer(MScopeDB(), policy=ErrorPolicy(mode=SKIP))
    assert live.refresh_file(path, "db1") == 1
    assert live.db.ingest_error_count() == 1
    # The next refresh re-reads the whole file; the damaged line must
    # re-record onto the same ledger row, not accumulate duplicates.
    append(path, [mysql_line(1)])
    assert live.refresh_file(path, "db1") == 1
    errors = live.db.ingest_errors()
    assert len(errors) == 1
    assert errors[0][1] == 2  # line number of the damaged record


def test_lenient_budget_exhaustion_skips_file_after_retries(log_dir):
    """A live file that blows its error budget rides the same
    retry-then-skip path as a torn mid-write file: bounded retries,
    no partial import, and the damage stays on the ledger."""
    from repro.transformer.errorpolicy import SKIP, ErrorPolicy

    path = log_dir / "db1" / "mysql_log.log"
    append(
        path,
        [
            mysql_line(0),
            "170301 10:00:00\tQuery\tbroken one",
            "170301 10:00:01\tQuery\tbroken two",
        ],
    )
    delays = []
    live = LiveTransformer(
        MScopeDB(),
        policy=ErrorPolicy(mode=SKIP, budget=1),
        max_retries=2,
        backoff_s=0.01,
        sleep=delays.append,
    )
    outcome = live.refresh_directory(log_dir)
    assert outcome.skipped_files == 1
    assert outcome.retries == 2
    assert delays == [0.01, 0.02]
    # The aborted parse imports nothing — not even the healthy line.
    assert "mysql_events_db1" not in live.db.dynamic_tables()
    # Each retry re-parses and re-records onto the same keyed ledger
    # rows: budget + 1 errors, not (budget + 1) x attempts.
    assert live.db.ingest_error_count() == 2
    ((skipped, reason),) = outcome.skipped
    assert skipped == path and "budget" in reason


def test_budget_exhausted_file_imports_once_repaired(log_dir):
    """The skip is per-refresh: repair the file and the next refresh
    imports everything, converging with a clean batch load."""
    from repro.transformer.errorpolicy import SKIP, ErrorPolicy

    path = log_dir / "db1" / "mysql_log.log"
    append(path, [mysql_line(0), "170301 10:00:00\tQuery\tbroken"])
    live = LiveTransformer(
        MScopeDB(),
        policy=ErrorPolicy(mode=SKIP, budget=None),
        max_retries=0,
        sleep=lambda _d: None,
    )
    # Unlimited budget: the damaged line records, the healthy one lands.
    assert live.refresh_directory(log_dir).new_rows == 1
    path.write_text("")
    append(path, [mysql_line(0), mysql_line(1)])
    # The rewritten file grew past the high-water mark; the fresh tail
    # imports and the warehouse holds both healthy rows.
    live.refresh_directory(log_dir)
    assert live.db.row_count("mysql_events_db1") == 2


def test_truncated_file_is_reported_not_silently_ignored(log_dir):
    """A file holding fewer records than were already imported was
    truncated or rotated; slicing past its end used to import nothing —
    for this refresh and for every later one, until the file outgrew
    the old high-water mark."""
    path = log_dir / "db1" / "mysql_log.log"
    append(path, [mysql_line(i) for i in range(5)])
    live = LiveTransformer(MScopeDB(), max_retries=0)
    assert live.refresh_directory(log_dir).new_rows == 5
    path.write_text("")
    append(path, [mysql_line(i) for i in range(5, 8)])

    with pytest.raises(ParseError, match="3 records < 5 already imported"):
        live.refresh_file(path, "db1")
    outcome = live.refresh_directory(log_dir)
    assert outcome.new_rows == 0
    ((skipped, reason),) = outcome.skipped
    assert skipped == path
    assert "truncated or rotated" in reason
    assert str(path) in reason
    # No row added or lost, and the mark still says what was imported.
    assert live.db.row_count("mysql_events_db1") == 5
    assert live.high_water(path) == 5


def batch_dump(log_dir):
    from repro.transformer.pipeline import MScopeDataTransformer

    batch_db = MScopeDB()
    MScopeDataTransformer(batch_db).transform_directory(log_dir)
    return list(batch_db.iterdump())


def test_torn_final_line_waits_for_its_newline(log_dir):
    """A half-written last line is not parsed until its newline lands,
    so the completed line imports whole — never as a row whose
    ``request_id`` was cut off."""
    path = log_dir / "db1" / "mysql_log.log"
    second = mysql_line(1)
    cut = second.index("/*ID=") + len("/*ID=R0A")
    path.write_text(mysql_line(0) + "\n" + second[:cut])
    live = LiveTransformer(MScopeDB())
    assert live.refresh_file(path, "db1") == 1
    with path.open("a") as handle:
        handle.write(second[cut:] + "\n")
    assert live.refresh_file(path, "db1") == 1
    ids = live.db.query(
        "SELECT request_id FROM mysql_events_db1 ORDER BY upstream_arrival_us"
    )
    assert [row[0] for row in ids] == ["R0A000000000", "R0A000000001"]
    assert list(live.db.iterdump()) == batch_dump(log_dir)


def test_torn_access_log_line_does_not_skip_the_file(tmp_path):
    """Under fail-fast a torn Apache line waits for its newline: the
    complete lines before it import and the file is not skipped."""
    from repro.logfmt.apache import format_mscope_access

    web = tmp_path / "logs" / "web1"
    web.mkdir(parents=True)
    path = web / "access_log.log"

    def access_line(i):
        boundary = BoundaryRecord(
            request_id=f"R0A00000000{i}",
            tier="apache",
            node="web1",
            upstream_arrival=ms(10 * (i + 1)),
            upstream_departure=ms(10 * (i + 1) + 5),
        )
        return format_mscope_access(
            WALL, f"/rubbos/Search?ID=R0A00000000{i}", boundary, 512
        )

    second = access_line(1)
    cut = second.index("?ID=") + 3
    path.write_text(access_line(0) + "\n" + second[:cut])
    live = LiveTransformer(MScopeDB(), max_retries=0)
    outcome = live.refresh_directory(tmp_path / "logs")
    assert (outcome.skipped_files, outcome.new_rows) == (0, 1)
    with path.open("a") as handle:
        handle.write(second[cut:] + "\n")
    outcome = live.refresh_directory(tmp_path / "logs")
    assert (outcome.skipped_files, outcome.new_rows) == (0, 1)
    assert list(live.db.iterdump()) == batch_dump(tmp_path / "logs")


def test_each_appended_byte_is_parsed_once(log_dir):
    """The ``refresh_file`` spans credit the bytes parsed: across any
    number of appends they sum to the final file size — one byte
    parsed per byte appended."""
    from repro.telemetry.spans import TelemetryCollector, zero_clock

    path = log_dir / "db1" / "mysql_log.log"
    live = LiveTransformer(
        MScopeDB(), telemetry=TelemetryCollector(clock=zero_clock)
    )
    for i in range(8):
        append(path, [mysql_line(i)])
        if i % 3 == 0:
            live.refresh_directory(log_dir)  # and a growth-free one
        live.refresh_directory(log_dir)
    parsed = sum(
        span.bytes
        for span in live.telemetry.spans
        if span.stage == "refresh_file"
    )
    assert parsed / path.stat().st_size == 1.0


def test_unchanged_file_is_not_parsed_again(log_dir):
    """Even a parser that cannot resume (SAR's XML) leaves a file alone
    while it is unchanged since its cursor; once it changes, it is
    parsed again from byte 0."""
    from repro.telemetry.spans import TelemetryCollector, zero_clock

    path = log_dir / "db1" / "sar_xml.log"
    path.write_text(COMPLETE_SAR_XML)
    live = LiveTransformer(
        MScopeDB(), telemetry=TelemetryCollector(clock=zero_clock)
    )

    def refresh():
        rows = live.refresh_file(path, "db1")
        return rows, live.telemetry.spans[-1].bytes

    assert refresh() == (1, path.stat().st_size)
    assert refresh() == (0, 0)
    second = (
        '<timestamp date="2017-03-01" time="10:00:01.050">'
        '<cpu-load><cpu number="all" user="2.00" system="0.50" '
        'iowait="0.00" steal="0.00" idle="97.50"/></cpu-load></timestamp>'
    )
    grown = COMPLETE_SAR_XML.replace("</statistics>", second + "</statistics>")
    path.write_text(grown + "\n")
    assert refresh() == (1, len(grown) + 1)
    # Same size, other last bytes: a rewrite, read whole again.
    path.write_text(grown + " ")
    assert refresh() == (0, len(grown) + 1)
    (table,) = live.db.dynamic_tables()
    assert live.db.row_count(table) == 2


def test_file_gone_since_listing_is_not_skipped(log_dir):
    """A file rotated away between the listing and its open holds
    nothing to ingest: it is neither skipped nor an error."""
    path = log_dir / "db1" / "mysql_log.log"
    append(path, [mysql_line(0)])
    reported = []
    live = LiveTransformer(
        MScopeDB(),
        max_retries=0,
        on_ingest_error=lambda path, reason: reported.append(reason),
    )
    gone = log_dir / "db1" / "sar_xml.log"
    listing = [
        ("db1", file, live.declaration.resolve(file)) for file in (path, gone)
    ]
    live.declaration.declared_files = lambda root: listing
    outcome = live.refresh_directory(log_dir)
    assert (outcome.new_rows, outcome.skipped) == (1, ())
    assert reported == []


def test_declared_files_is_the_one_walk(tmp_path):
    """The declaration's walk, its live projection and the batch
    transform's outcome order agree — with an undeclared log in a host
    directory and a non-directory at the root."""
    from repro.transformer.pipeline import MScopeDataTransformer

    root = tmp_path / "logs"
    for host in ("web1", "db2", "db1"):
        (root / host).mkdir(parents=True)
        append(root / host / "mysql_log.log", [mysql_line(0)])
    (root / "db1" / "sar_xml.log").write_text(COMPLETE_SAR_XML)
    (root / "db1" / "unrelated.log").write_text("not ours\n")
    (root / "db1" / "mysql_log.txt").write_text("not a log\n")
    (root / "stray.log").write_text("a file where a host should be\n")

    live = LiveTransformer(MScopeDB())
    walk = live.declaration.declared_files(root)
    assert [(host, path.name) for host, path, _ in walk] == [
        ("db1", "mysql_log.log"),
        ("db1", "sar_xml.log"),
        ("db2", "mysql_log.log"),
        ("web1", "mysql_log.log"),
    ]
    assert [binding.parser_name for _, _, binding in walk] == [
        "mysql", "sar_xml", "mysql", "mysql",
    ]
    assert live.declared_files(root) == [(host, path) for host, path, _ in walk]
    outcomes = MScopeDataTransformer(MScopeDB()).transform_directory(
        root, jobs=1
    )
    assert [outcome.source for outcome in outcomes] == [
        path for _, path, _ in walk
    ]
    with pytest.raises(DeclarationError):
        live.declaration.declared_files(root / "ghost")


def test_missing_directory_raises(tmp_path):
    live = LiveTransformer(MScopeDB())
    with pytest.raises(DeclarationError):
        live.refresh_directory(tmp_path / "ghost")


def test_live_matches_batch_load(log_dir):
    """Incremental loading converges to the same table as a batch load."""
    from repro.transformer.pipeline import MScopeDataTransformer

    path = log_dir / "db1" / "mysql_log.log"
    live = LiveTransformer(MScopeDB())
    for i in range(6):
        append(path, [mysql_line(i)])
        live.refresh_directory(log_dir)

    batch_db = MScopeDB()
    MScopeDataTransformer(batch_db).transform_directory(log_dir)

    live_rows = live.db.query(
        "SELECT request_id, upstream_arrival_us FROM mysql_events_db1 "
        "ORDER BY upstream_arrival_us"
    )
    batch_rows = batch_db.query(
        "SELECT request_id, upstream_arrival_us FROM mysql_events_db1 "
        "ORDER BY upstream_arrival_us"
    )
    assert live_rows == batch_rows


# ----------------------------------------------------------------------
# telemetry: refresh spans


def test_refresh_records_spans_and_heartbeat(log_dir):
    from repro.telemetry.spans import TelemetryCollector, zero_clock

    path = log_dir / "db1" / "mysql_log.log"
    append(path, [mysql_line(i) for i in range(4)])
    live = LiveTransformer(
        MScopeDB(), telemetry=TelemetryCollector(clock=zero_clock)
    )

    outcome = live.refresh_directory(log_dir)
    assert outcome.new_rows == 4

    stages = [s.stage for s in live.telemetry.spans]
    assert stages == ["refresh_file", "refresh"]
    refresh = live.telemetry.spans[-1]
    assert refresh.records == 4 and refresh.errors == 0
    file_span = live.telemetry.spans[0]
    assert file_span.hostname == "db1"
    assert file_span.records == 4


def test_refresh_directory_resolves_each_file_once_per_cycle(log_dir):
    """The walk's binding is the one the refresh parses with: a cycle
    resolves every declared file once, not once to list it and again
    to parse it."""
    live = LiveTransformer(MScopeDB())
    declaration = live.declaration
    resolved = []

    def counting_try_resolve(path, _real=declaration.try_resolve):
        resolved.append(Path(path).name)
        return _real(path)

    declaration.try_resolve = counting_try_resolve
    (log_dir / "db1" / "sar_xml.log").write_text(COMPLETE_SAR_XML)
    for i in range(3):
        append(log_dir / "db1" / "mysql_log.log", [mysql_line(i)])
        live.refresh_directory(log_dir)
    assert resolved == ["mysql_log.log", "sar_xml.log"] * 3
    assert live.db.row_count("mysql_events_db1") == 3
