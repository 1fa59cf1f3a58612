"""Property: live incremental ingest is split-invariant.

``tests/transformer/test_live.py::test_live_matches_batch_load`` checks
one fixed interleaving (one line per refresh).  The property below is
the general claim the validation harness leans on: for *any* partition
of the same byte stream into successive appends — including empty
refreshes, everything-at-once, and uneven bursts — the LiveTransformer
warehouse is ``iterdump``-identical to a one-shot batch transform of
the final directory.

The ``mysql_log.log`` properties split at complete-line boundaries;
the stateful-format and error-policy properties further down cut at any
byte, so a refresh may meet a torn last line, which waits for its
newline.  SAR XML, a whole document, is the exception — see
docs/validation.md ("Known limits").
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.records import BoundaryRecord
from repro.common.timebase import WallClock, ms
from repro.logfmt.collectl import (
    CollectlSample,
    collectl_csv_header,
    format_collectl_csv_row,
)
from repro.logfmt.iostat import IostatDeviceRow, format_iostat_block
from repro.logfmt.mysql import format_mscope_query
from repro.logfmt.sar import (
    SarCpuRow,
    format_sar_text_average,
    format_sar_text_row,
    sar_text_banner,
    sar_text_header,
)
from repro.transformer.errorpolicy import SKIP, ErrorPolicy
from repro.transformer.live import LiveTransformer
from repro.transformer.pipeline import MScopeDataTransformer
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


LINES = [mysql_line(i) for i in range(10)]


@settings(max_examples=30, deadline=None)
@given(
    cuts=st.lists(
        st.integers(min_value=0, max_value=len(LINES)), max_size=6
    )
)
def test_any_line_split_matches_batch(cuts):
    """Incremental refreshes over any prefix chain of the stream end in
    the same warehouse bytes as a single batch transform."""
    # Sorted unique cut points form a chain of growing prefixes; the
    # final refresh always sees the complete file.
    prefixes = sorted(set(cuts) | {len(LINES)})
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = Path(tmp) / "logs"
        host = log_dir / "db1"
        host.mkdir(parents=True)
        path = host / "mysql_log.log"

        live = LiveTransformer(MScopeDB())
        written = 0
        for cut in prefixes:
            with path.open("a") as handle:
                for line in LINES[written:cut]:
                    handle.write(line + "\n")
            written = cut
            live.refresh_directory(log_dir)

        batch_db = MScopeDB()
        MScopeDataTransformer(batch_db).transform_directory(log_dir)
        assert list(live.db.iterdump()) == list(batch_db.iterdump())


@pytest.mark.parametrize("spec", ["head:0.5", "tail:0.3:5"])
@settings(max_examples=20, deadline=None)
@given(
    cuts=st.lists(
        st.integers(min_value=0, max_value=len(LINES)), max_size=6
    )
)
def test_sampled_live_matches_sampled_batch_for_any_split(spec, cuts):
    """Split-invariance survives every sampling policy: live ingest
    under a policy ends in the same warehouse bytes — kept rows and
    sampling ledger — as a sampled batch
    transform, for any complete-line partition of the stream."""
    prefixes = sorted(set(cuts) | {len(LINES)})
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = Path(tmp) / "logs"
        host = log_dir / "db1"
        host.mkdir(parents=True)
        path = host / "mysql_log.log"

        live = LiveTransformer(MScopeDB(), sampling=spec)
        written = 0
        for cut in prefixes:
            with path.open("a") as handle:
                for line in LINES[written:cut]:
                    handle.write(line + "\n")
            written = cut
            live.refresh_directory(log_dir)
        # A stateful policy (tail deferral) still withholds rows;
        # batch transforms flush at the end of transform_directory,
        # so the live side must flush before comparing.
        live.flush_sampling()

        batch_db = MScopeDB()
        MScopeDataTransformer(batch_db, sampling=spec).transform_directory(
            log_dir
        )
        assert list(live.db.iterdump()) == list(batch_db.iterdump())


@settings(max_examples=15, deadline=None)
@given(repeats=st.lists(st.integers(min_value=0, max_value=3), max_size=4))
def test_redundant_refreshes_are_idempotent(repeats):
    """No-growth refreshes interleaved anywhere in the chain never
    duplicate rows or perturb the catalog."""
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = Path(tmp) / "logs"
        host = log_dir / "db1"
        host.mkdir(parents=True)
        path = host / "mysql_log.log"

        live = LiveTransformer(MScopeDB())
        for i, extra in enumerate(repeats):
            with path.open("a") as handle:
                handle.write(LINES[i] + "\n")
            for _ in range(1 + extra):
                live.refresh_directory(log_dir)

        batch_db = MScopeDB()
        MScopeDataTransformer(batch_db).transform_directory(log_dir)
        assert list(live.db.iterdump()) == list(batch_db.iterdump())


# ----------------------------------------------------------------------
# Stateful formats: the parser's carried state crosses refreshes.  Cuts
# are byte offsets, so a refresh may also see a torn last line, which
# waits for its newline.


def live_then_batch(filename, data, cuts, policy=None):
    """Append ``data`` to ``<logs>/db1/<filename>`` in the pieces the
    ``cuts`` make, refreshing after each; return the live and batch
    warehouses of the final tree."""
    pieces = sorted(set(cuts) | {len(data)})
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = Path(tmp) / "logs"
        host = log_dir / "db1"
        host.mkdir(parents=True)
        path = host / filename
        path.touch()
        live = LiveTransformer(MScopeDB(), policy=policy, max_retries=0)
        written = 0
        for cut in pieces:
            with path.open("ab") as handle:
                handle.write(data[written:cut])
            written = cut
            live.refresh_directory(log_dir)
        batch_db = MScopeDB()
        MScopeDataTransformer(batch_db, policy=policy).transform_directory(
            log_dir
        )
        return live.db, batch_db


def byte_cuts(data):
    return st.lists(st.integers(min_value=0, max_value=len(data)), max_size=8)


def encode(lines):
    return "".join(line + "\n" for line in lines).encode()


SAR_ROWS = [SarCpuRow(ms(50 * (i + 1)), 10.0 + i, 2.0, 0.5) for i in range(6)]
SAR_REPORT = encode(
    [sar_text_banner(WALL, "db1", 4), "", sar_text_header(WALL, ms(50))]
    + [format_sar_text_row(WALL, row) for row in SAR_ROWS[:3]]
    + [sar_text_header(WALL, ms(200))]  # the header repeats mid-file
    + [format_sar_text_row(WALL, row) for row in SAR_ROWS[3:]]
    + ["", format_sar_text_average(SAR_ROWS)]
)


@settings(max_examples=30, deadline=None)
@given(cuts=byte_cuts(SAR_REPORT))
def test_sar_text_any_split_matches_batch(cuts):
    """The banner's date and hostname and the latest header's columns
    carry across refreshes; the ``Average:`` row stays a summary."""
    live_db, batch_db = live_then_batch("sar.log", SAR_REPORT, cuts)
    assert live_db.row_count("sar_db1") == len(SAR_ROWS)
    assert list(live_db.iterdump()) == list(batch_db.iterdump())


IOSTAT_REPORT = encode(
    [
        line
        for i in range(4)
        for line in format_iostat_block(
            WALL,
            ms(50 * (i + 1)),
            [
                IostatDeviceRow("sda", 1.0 * i, 2.0, 16.0, 32.0, 0.5, 10.0 * i),
                IostatDeviceRow("sdb", 0.5, 1.0 * i, 8.0, 4.0, 0.1, 5.0),
            ],
        )
    ]
)


@settings(max_examples=30, deadline=None)
@given(cuts=byte_cuts(IOSTAT_REPORT))
def test_iostat_any_split_matches_batch(cuts):
    """A cut inside a device block carries the block's timestamp and
    columns to the refresh that parses its remaining rows."""
    live_db, batch_db = live_then_batch("iostat.log", IOSTAT_REPORT, cuts)
    assert live_db.row_count("iostat_db1") == 8
    assert list(live_db.iterdump()) == list(batch_db.iterdump())


COLLECTL_CSV = encode(
    [collectl_csv_header()]
    + [
        format_collectl_csv_row(
            WALL,
            CollectlSample(
                timestamp=ms(50 * (i + 1)),
                cpu_user=10.0 + i,
                cpu_sys=2.0,
                cpu_wait=0.5,
                disk_read_kb=1.0,
                disk_write_kb=2.0,
                disk_util=3.0,
                mem_dirty_kb=4096.0,
            ),
        )
        for i in range(6)
    ]
)


@settings(max_examples=30, deadline=None)
@given(cuts=byte_cuts(COLLECTL_CSV))
def test_collectl_csv_any_split_matches_batch(cuts):
    """The ``#`` header's columns carry across refreshes."""
    live_db, batch_db = live_then_batch("collectl_csv.log", COLLECTL_CSV, cuts)
    assert live_db.row_count("collectl_db1") == 6
    assert list(live_db.iterdump()) == list(batch_db.iterdump())


#: Healthy query lines with damaged ones at lines 2, 5 and 9.
DAMAGED = list(LINES)
for _number in (2, 5, 9):
    DAMAGED.insert(_number - 1, f"170301 10:00:0{_number}\tQuery\tbroken")
DAMAGED_STREAM = encode(DAMAGED)


@settings(max_examples=30, deadline=None)
@given(cuts=byte_cuts(DAMAGED_STREAM))
def test_skip_policy_any_split_matches_batch(cuts):
    """Damaged lines falling in different refreshes keep the line
    numbers a batch parse gives them in ``ingest_errors``."""
    live_db, batch_db = live_then_batch(
        "mysql_log.log", DAMAGED_STREAM, cuts, ErrorPolicy(mode=SKIP)
    )
    assert [error[1] for error in live_db.ingest_errors()] == [2, 5, 9]
    assert list(live_db.iterdump()) == list(batch_db.iterdump())


@settings(max_examples=30, deadline=None)
@given(cuts=byte_cuts(DAMAGED_STREAM))
def test_error_budget_is_per_file_for_any_split(cuts):
    """The budget counts the file's damage, not one refresh's: the
    third damaged line crosses a budget of two wherever the refreshes
    fall, and the recorded lines are batch's."""
    policy = ErrorPolicy(mode=SKIP, budget=2)
    live_db, batch_db = live_then_batch(
        "mysql_log.log", DAMAGED_STREAM, cuts, policy
    )
    lines = [error for error in batch_db.ingest_errors() if error[1]]
    assert [error[1] for error in lines] == [2, 5, 9]
    assert live_db.ingest_errors() == lines
