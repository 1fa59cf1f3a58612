"""Corruption-injection acceptance tests for the lenient ingestion path.

Builds a log tree covering every declared format, damages exactly one
known record per file with the seeded :class:`LogCorruptor` helpers,
and checks the error-isolating contract end to end:

* under ``quarantine`` every undamaged record imports and each damaged
  record yields exactly one ``ingest_errors`` row at the right place;
* parallel (``jobs=4``) and serial (``jobs=1``) transforms produce
  byte-identical warehouses (``iterdump``) under the lenient policies;
* under ``fail-fast`` the damaged tree still raises ``ParseError``
  exactly as the historical behaviour demands.
"""

import pytest

from repro.common.errors import ParseError
from repro.common.records import BoundaryRecord, DownstreamCall
from repro.common.timebase import WallClock, ms
from repro.logfmt.apache import format_mscope_access
from repro.logfmt.cjdbc import format_mscope_cjdbc
from repro.logfmt.collectl import (
    CollectlSample,
    collectl_csv_header,
    collectl_text_header,
    format_collectl_csv_row,
    format_collectl_text_row,
)
from repro.logfmt.iostat import IostatDeviceRow, format_iostat_block
from repro.logfmt.mysql import format_mscope_query
from repro.logfmt.sar import (
    SarCpuRow,
    format_sar_text_row,
    format_sar_xml_row,
    sar_text_banner,
    sar_text_header,
    sar_xml_close,
    sar_xml_open,
)
from repro.logfmt.tomcat import format_mscope_tomcat
from repro.transformer.errorpolicy import (
    FAIL_FAST_POLICY,
    QUARANTINE,
    SKIP,
    ErrorPolicy,
)
from repro.transformer.faultgen import LogCorruptor
from repro.transformer.pipeline import MScopeDataTransformer
from repro.warehouse.db import MScopeDB

WALL = WallClock()


def boundary(i):
    record = BoundaryRecord(
        request_id=f"R0A0000000{40 + i}",
        tier="x",
        node="n",
        upstream_arrival=ms(100 + 10 * i),
        upstream_departure=ms(105 + 10 * i),
    )
    record.record_call(
        DownstreamCall("next", ms(101 + 10 * i), ms(104 + 10 * i))
    )
    return record


def cpu_row(i):
    return SarCpuRow(ms(50 * (i + 1)), 10.0 + i, 2.0, 0.5)


def collectl_sample(i):
    return CollectlSample(
        timestamp=ms(50 * (i + 1)),
        cpu_user=10.0 + i,
        cpu_sys=2.0,
        cpu_wait=0.5,
        disk_read_kb=1.0,
        disk_write_kb=2.0,
        disk_util=3.0,
        mem_dirty_kb=4096.0,
    )


def write(path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def build_log_tree(root):
    """One file per declared format, three good records each."""
    write(
        root / "web1" / "access_log.log",
        [
            format_mscope_access(
                WALL, f"/rubbos/View?ID={boundary(i).request_id}", boundary(i), 1
            )
            for i in range(3)
        ],
    )
    write(
        root / "web1" / "sar.log",
        [sar_text_banner(WALL, "web1", 4), sar_text_header(WALL, ms(50))]
        + [format_sar_text_row(WALL, cpu_row(i)) for i in range(3)],
    )
    write(
        root / "web1" / "iostat.log",
        [
            line
            for i in range(3)
            for line in format_iostat_block(
                WALL,
                ms(50 * (i + 1)),
                [IostatDeviceRow("sda", 1.0, 2.0, 16.0, 32.0, 0.5, 10.0 + i)],
            )
        ],
    )
    write(
        root / "app1" / "catalina_log.log",
        [format_mscope_tomcat(WALL, "View", boundary(i)) for i in range(3)],
    )
    write(
        root / "app1" / "collectl_csv.log",
        [collectl_csv_header()]
        + [format_collectl_csv_row(WALL, collectl_sample(i)) for i in range(3)],
    )
    write(
        root / "mid1" / "controller_log.log",
        [format_mscope_cjdbc(WALL, boundary(i), "SELECT 1") for i in range(3)],
    )
    write(
        root / "mid1" / "collectl.log",
        [collectl_text_header()]
        + [format_collectl_text_row(WALL, collectl_sample(i)) for i in range(3)],
    )
    write(
        root / "db1" / "mysql_log.log",
        [format_mscope_query(WALL, boundary(i), f"SELECT {i}") for i in range(3)],
    )
    write(
        root / "db1" / "sar_xml.log",
        sar_xml_open(WALL, "db1", 4).split("\n")
        + [format_sar_xml_row(WALL, cpu_row(i)) for i in range(3)]
        + sar_xml_close().split("\n"),
    )


#: (host, file) → (expected error line, expected rows after damage).
#: Line 0 marks a file-level error (SAR XML's truncated tail).
DAMAGE_PLAN = {
    ("web1", "access_log.log"): (2, 2),
    ("web1", "sar.log"): (4, 2),
    ("web1", "iostat.log"): (7, 2),
    ("app1", "catalina_log.log"): (2, 2),
    ("app1", "collectl_csv.log"): (3, 2),
    ("mid1", "controller_log.log"): (2, 2),
    ("mid1", "collectl.log"): (3, 2),
    ("db1", "mysql_log.log"): (2, 2),
    ("db1", "sar_xml.log"): (0, 2),
}


def damage_log_tree(root):
    """Damage exactly one known record per file."""
    corruptor = LogCorruptor(seed=7)
    # Formats where printable junk is guaranteed-unparsable:
    corruptor.garble_lines(root / "web1" / "access_log.log", [2])
    corruptor.garble_lines(root / "web1" / "sar.log", [4])
    corruptor.garble_lines(root / "web1" / "iostat.log", [7])
    corruptor.garble_lines(root / "app1" / "collectl_csv.log", [3])
    corruptor.garble_lines(root / "mid1" / "collectl.log", [3])
    # Marker-carrying formats: tear the line mid-write so the mScope
    # marker (ID= / req= / \tQuery\t) survives but the fields do not —
    # the silent-data-loss shape a plain garble cannot exercise.
    corruptor.truncate_line_at(root / "app1" / "catalina_log.log", 2, 60)
    corruptor.truncate_line_at(root / "mid1" / "controller_log.log", 2, 70)
    corruptor.truncate_line_at(root / "db1" / "mysql_log.log", 2, 30)
    # Record-oriented XML: cut the file mid-record (writer crash); the
    # records before the tear salvage, the lost tail is one file error.
    corruptor.truncate_line_at(root / "db1" / "sar_xml.log", 7, 50)


@pytest.fixture()
def damaged_tree(tmp_path):
    root = tmp_path / "logs"
    build_log_tree(root)
    damage_log_tree(root)
    return root


def transform(root, policy, jobs, db_path=None):
    db = MScopeDB(db_path if db_path is not None else ":memory:")
    outcomes = MScopeDataTransformer(db, policy=policy, jobs=jobs).transform_directory(
        root
    )
    return db, outcomes


# ----------------------------------------------------------------------
# the acceptance contract


def test_quarantine_imports_every_undamaged_record(damaged_tree, tmp_path):
    policy = ErrorPolicy(mode=QUARANTINE, quarantine_dir=tmp_path / "quar")
    db, outcomes = transform(damaged_tree, policy, jobs=1)
    by_file = {
        (o.source.parent.name, o.source.name): o for o in outcomes
    }
    assert set(by_file) == set(DAMAGE_PLAN)
    for key, (line, rows) in DAMAGE_PLAN.items():
        outcome = by_file[key]
        assert not outcome.failed, key
        assert outcome.rows_loaded == rows, key
        assert outcome.error_count == 1, key
    db.close()


def test_quarantine_one_error_row_per_damaged_record(damaged_tree, tmp_path):
    policy = ErrorPolicy(mode=QUARANTINE, quarantine_dir=tmp_path / "quar")
    db, _ = transform(damaged_tree, policy, jobs=1)
    rows = db.ingest_errors()
    assert len(rows) == len(DAMAGE_PLAN)
    recorded = {}
    for source_path, line_number, parser, reason, excerpt in rows:
        host, name = source_path.split("/")[-2:]
        recorded[(host, name)] = (line_number, parser, reason)
        assert reason
    assert {k: v[0] for k, v in recorded.items()} == {
        k: line for k, (line, _) in DAMAGE_PLAN.items()
    }
    # The salvaged-tail file error names what was lost.
    assert "salvaged 2 records" in recorded[("db1", "sar_xml.log")][2]
    db.close()


def test_quarantine_artifacts_written_per_damaged_file(damaged_tree, tmp_path):
    quarantine = tmp_path / "quar"
    policy = ErrorPolicy(mode=QUARANTINE, quarantine_dir=quarantine)
    transform(damaged_tree, policy, jobs=1)[0].close()
    reports = {
        f"{p.parent.name}/{p.name}" for p in quarantine.rglob("*.quarantine")
    }
    assert reports == {
        f"{host}/{name}.quarantine" for host, name in DAMAGE_PLAN
    }
    # Each report line carries <line>\t<reason>\t<excerpt>.
    report = quarantine / "web1" / "access_log.log.quarantine"
    line_number, reason, excerpt = report.read_text().splitlines()[0].split("\t")
    assert line_number == "2"
    assert "access-log" in reason


def test_skip_mode_imports_without_artifacts(damaged_tree, tmp_path):
    db, outcomes = transform(damaged_tree, ErrorPolicy(mode=SKIP), jobs=1)
    assert all(not o.failed for o in outcomes)
    assert db.ingest_error_count() == len(DAMAGE_PLAN)
    assert not list(tmp_path.glob("**/*.quarantine"))
    db.close()


def test_parallel_matches_serial_under_quarantine(damaged_tree, tmp_path):
    dumps = {}
    for jobs in (1, 4):
        policy = ErrorPolicy(
            mode=QUARANTINE, quarantine_dir=tmp_path / f"quar{jobs}"
        )
        db, _ = transform(
            damaged_tree, policy, jobs, db_path=tmp_path / f"j{jobs}.db"
        )
        dumps[jobs] = "\n".join(db.iterdump())
        db.close()
    assert dumps[1] == dumps[4]


def test_parallel_matches_serial_under_skip(damaged_tree, tmp_path):
    dumps = {}
    for jobs in (1, 4):
        db, _ = transform(
            damaged_tree,
            ErrorPolicy(mode=SKIP),
            jobs,
            db_path=tmp_path / f"s{jobs}.db",
        )
        dumps[jobs] = "\n".join(db.iterdump())
        db.close()
    assert dumps[1] == dumps[4]


def test_fail_fast_still_raises_on_damage(damaged_tree):
    with pytest.raises(ParseError):
        transform(damaged_tree, FAIL_FAST_POLICY, jobs=1)


def test_fail_fast_parallel_still_raises(damaged_tree):
    with pytest.raises(ParseError):
        transform(damaged_tree, FAIL_FAST_POLICY, jobs=4)


def test_undamaged_tree_has_empty_error_ledger(tmp_path):
    root = tmp_path / "logs"
    build_log_tree(root)
    policy = ErrorPolicy(mode=QUARANTINE, quarantine_dir=tmp_path / "quar")
    db, outcomes = transform(root, policy, jobs=1)
    assert all(o.error_count == 0 for o in outcomes)
    assert db.ingest_error_count() == 0
    assert not (tmp_path / "quar").exists()
    db.close()


# ----------------------------------------------------------------------
# error budget: a rotten file fails alone


def test_budget_exhaustion_fails_the_file_not_the_run(tmp_path):
    root = tmp_path / "logs"
    build_log_tree(root)
    # Ruin most of the apache log: 3 good lines become junk beyond a
    # budget of 2 after we append damaged lines.
    apache = root / "web1" / "access_log.log"
    with apache.open("a") as handle:
        for _ in range(5):
            handle.write("not an access log line\n")
    policy = ErrorPolicy(
        mode=QUARANTINE, quarantine_dir=tmp_path / "quar", budget=2
    )
    db, outcomes = transform(root, policy, jobs=1)
    by_file = {(o.source.parent.name, o.source.name): o for o in outcomes}
    rotten = by_file[("web1", "access_log.log")]
    assert rotten.failed
    assert rotten.rows_loaded == 0
    # Budget 2 tolerates 2 errors; the third damaged line tips the file
    # over, and the abort itself is recorded as a file-level error.
    lines = {
        line for _, line, _, _, _ in db.ingest_errors(str(apache))
    }
    assert 0 in lines
    # Every other file still imported fully.
    for key, outcome in by_file.items():
        if key != ("web1", "access_log.log"):
            assert not outcome.failed, key
            assert outcome.rows_loaded == 3, key
    # The failed file is copied whole into quarantine for post-mortem.
    assert (tmp_path / "quar" / "web1" / "access_log.log").exists()
    db.close()


def test_budget_failure_keeps_parallel_serial_identical(tmp_path):
    root = tmp_path / "logs"
    build_log_tree(root)
    apache = root / "web1" / "access_log.log"
    with apache.open("a") as handle:
        for _ in range(5):
            handle.write("not an access log line\n")
    dumps = {}
    for jobs in (1, 4):
        db, _ = transform(
            root,
            ErrorPolicy(mode=SKIP, budget=2),
            jobs,
            db_path=tmp_path / f"b{jobs}.db",
        )
        dumps[jobs] = "\n".join(db.iterdump())
        db.close()
    assert dumps[1] == dumps[4]
