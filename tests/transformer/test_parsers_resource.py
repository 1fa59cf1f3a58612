"""Tests for the resource-log mScopeParsers (SAR, IOstat, Collectl)."""

import pytest

from repro.common.errors import ParseError
from repro.common.timebase import WallClock, ms
from repro.logfmt.collectl import (
    CollectlSample,
    collectl_csv_header,
    collectl_text_header,
    format_collectl_csv_row,
    format_collectl_text_row,
)
from repro.logfmt.iostat import IostatDeviceRow, format_iostat_block
from repro.logfmt.sar import (
    SarCpuRow,
    format_sar_text_average,
    format_sar_text_row,
    format_sar_xml_row,
    sar_text_banner,
    sar_text_header,
    sar_xml_close,
    sar_xml_open,
)
from repro.transformer.declaration import default_declaration
from repro.transformer.parsers import create_parser
from repro.transformer.timestamps import wall_to_epoch_us

WALL = WallClock()
DECLARATION = default_declaration()


def parser_for(filename):
    return create_parser(DECLARATION.resolve(filename))


def sar_text_report(rows, header_every=None):
    lines = [sar_text_banner(WALL, "web1", 4), ""]
    lines.append(sar_text_header(WALL, rows[0].timestamp))
    for row in rows:
        lines.append(format_sar_text_row(WALL, row))
    lines.append("")
    lines.append(format_sar_text_average(rows))
    return lines


def test_sar_text_full_report():
    rows = [SarCpuRow(ms(50 * (i + 1)), 10.0 + i, 2.0, 0.5) for i in range(5)]
    doc = parser_for("sar.log").parse_lines(sar_text_report(rows), "sar.log")
    assert len(doc) == 5  # Average row excluded
    record = doc.records[0]
    assert record.get("hostname") == "web1"
    assert record.get("user_pct") == "10.00"
    assert record.get("iowait_pct") == "0.50"
    assert record.get("timestamp_us") == str(
        wall_to_epoch_us("2017-03-01", "10:00:00.050")
    )


@pytest.mark.parametrize(
    "date, time",
    [("2017-13-45", "10:00:00"), ("2017-03-01", "25:00:00"), ("x", "y")],
)
def test_malformed_timestamp_raises_on_every_call(date, time):
    # The date and clock parses are memoised; a failure never is.
    for _ in range(2):
        with pytest.raises(ParseError):
            wall_to_epoch_us(date, time)


def test_sar_text_repeated_headers_ok():
    rows = [SarCpuRow(ms(50), 1, 1, 0), SarCpuRow(ms(100), 2, 1, 0)]
    lines = [
        sar_text_banner(WALL, "web1", 4),
        sar_text_header(WALL, ms(50)),
        format_sar_text_row(WALL, rows[0]),
        sar_text_header(WALL, ms(100)),  # header repeats mid-file
        format_sar_text_row(WALL, rows[1]),
    ]
    doc = parser_for("sar.log").parse_lines(lines, "s")
    assert len(doc) == 2


def test_sar_text_data_before_header_raises():
    lines = [
        sar_text_banner(WALL, "web1", 4),
        format_sar_text_row(WALL, SarCpuRow(ms(50), 1, 1, 0)),
    ]
    with pytest.raises(ParseError):
        parser_for("sar.log").parse_lines(lines, "s")


def test_sar_text_data_before_banner_raises():
    lines = [
        sar_text_header(WALL, ms(50)),
        format_sar_text_row(WALL, SarCpuRow(ms(50), 1, 1, 0)),
    ]
    with pytest.raises(ParseError):
        parser_for("sar.log").parse_lines(lines, "s")


def test_sar_text_column_count_mismatch_raises():
    lines = [
        sar_text_banner(WALL, "web1", 4),
        sar_text_header(WALL, ms(50)),
        "10:00:00.050     all      1.00",
    ]
    with pytest.raises(ParseError):
        parser_for("sar.log").parse_lines(lines, "s")


def test_sar_text_time_only_line_raises_parse_error():
    # A line torn down to just the time token must fail as a ParseError,
    # not an IndexError, so the error policies can classify it.
    lines = [
        sar_text_banner(WALL, "web1", 4),
        sar_text_header(WALL, ms(50)),
        "10:00:00.050",
        format_sar_text_row(WALL, SarCpuRow(ms(100), 1, 1, 0)),
    ]
    with pytest.raises(ParseError):
        parser_for("sar.log").parse_lines(lines, "s")


def test_sar_xml_adapter():
    rows = [SarCpuRow(ms(50), 12.5, 3.0, 1.0), SarCpuRow(ms(100), 14.0, 2.0, 0.0)]
    lines = (
        sar_xml_open(WALL, "web1", 4).split("\n")
        + [format_sar_xml_row(WALL, r) for r in rows]
        + sar_xml_close().split("\n")
    )
    doc = parser_for("sar_xml.log").parse_lines(lines, "s")
    assert len(doc) == 2
    record = doc.records[0]
    assert record.get("hostname") == "web1"
    assert record.get("user_pct") == "12.50"
    assert record.get("cpu") == "all"


def test_sar_xml_malformed_raises():
    with pytest.raises(ParseError):
        parser_for("sar_xml.log").parse_lines(["<sysstat><unclosed"], "s")


def test_sar_text_and_xml_agree():
    """The two SAR paths must produce identical measurements."""
    rows = [SarCpuRow(ms(50 * (i + 1)), 5.0 * i, 1.0, 0.25) for i in range(4)]
    text_doc = parser_for("sar.log").parse_lines(sar_text_report(rows), "s")
    xml_lines = (
        sar_xml_open(WALL, "web1", 4).split("\n")
        + [format_sar_xml_row(WALL, r) for r in rows]
        + sar_xml_close().split("\n")
    )
    xml_doc = parser_for("sar_xml.log").parse_lines(xml_lines, "s")
    for a, b in zip(text_doc, xml_doc):
        assert a.get("timestamp_us") == b.get("timestamp_us")
        assert a.get("user_pct") == b.get("user_pct")
        assert a.get("iowait_pct") == b.get("iowait_pct")


# ----------------------------------------------------------------------
# IOstat


def iostat_lines(n_blocks=3):
    lines = []
    for i in range(n_blocks):
        rows = [IostatDeviceRow("sda", 1.0 * i, 2.0, 16.0, 32.0, 0.5, 10.0 * i)]
        lines.extend(format_iostat_block(WALL, ms(50 * (i + 1)), rows))
    return lines


def test_iostat_blocks_parsed():
    doc = parser_for("iostat.log").parse_lines(iostat_lines(3), "s")
    assert len(doc) == 3
    record = doc.records[1]
    assert record.get("device") == "sda"
    assert record.get("util_pct") == "10.00"
    assert record.get("rkb_per_s") == "16.00"


def test_iostat_row_outside_block_raises():
    with pytest.raises(ParseError):
        parser_for("iostat.log").parse_lines(["sda 1 2 3 4 5 6"], "s")


def test_iostat_wrong_column_count_raises():
    lines = iostat_lines(1)[:-1] + ["sda 1.0 2.0"]
    with pytest.raises(ParseError):
        parser_for("iostat.log").parse_lines(lines, "s")


# ----------------------------------------------------------------------
# Collectl


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


def test_collectl_csv_one_pass():
    lines = [collectl_csv_header()] + [
        format_collectl_csv_row(WALL, collectl_sample(i)) for i in range(4)
    ]
    doc = parser_for("collectl_csv.log").parse_lines(lines, "s")
    assert len(doc) == 4
    record = doc.records[0]
    assert record.get("cpu_user_pct") == "10.0"
    assert record.get("mem_dirty") == "4096"
    assert record.get("timestamp_us") == str(
        wall_to_epoch_us("20170301", "10:00:00.050")
    )


def test_collectl_csv_data_before_header_raises():
    row = format_collectl_csv_row(WALL, collectl_sample(0))
    with pytest.raises(ParseError):
        parser_for("collectl_csv.log").parse_lines([row], "s")


def test_collectl_csv_bad_header_raises():
    with pytest.raises(ParseError):
        parser_for("collectl_csv.log").parse_lines(["#Nope,Time,x"], "s")


def test_collectl_text_parsed():
    lines = [collectl_text_header()] + [
        format_collectl_text_row(WALL, collectl_sample(i)) for i in range(3)
    ]
    doc = parser_for("collectl.log").parse_lines(lines, "s")
    assert len(doc) == 3
    assert doc.records[0].get("cpu_pct") == "10.0"


def test_collectl_text_wrong_count_raises():
    lines = [collectl_text_header(), "10:00:00.050 1.0 2.0"]
    with pytest.raises(ParseError):
        parser_for("collectl.log").parse_lines(lines, "s")
