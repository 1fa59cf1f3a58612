"""Tests for the semi-structured record model and XML round trip."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ParseError
from repro.transformer.xmlmodel import LogRecord, XmlDocument, sanitize_tag


def test_sanitize_collectl_headers():
    assert sanitize_tag("[CPU]User%") == "cpu_user_pct"
    assert sanitize_tag("[DSK]WriteKBTot") == "dsk_writekbtot"
    assert sanitize_tag("[MEM]Dirty") == "mem_dirty"


def test_sanitize_iostat_headers():
    assert sanitize_tag("rkB/s") == "rkb_per_s"
    assert sanitize_tag("avgqu-sz") == "avgqu_sz"


def test_sanitize_rejects_empty():
    # Twice each: the memo must not swallow the error.
    for _ in range(2):
        with pytest.raises(ParseError):
            sanitize_tag("!!!")
        with pytest.raises(ParseError):
            sanitize_tag("   ")


def test_sanitize_leading_digit_prefixed():
    assert sanitize_tag("95th").startswith("f_") or sanitize_tag("95th")[0].isalpha()


def test_record_set_get():
    record = LogRecord()
    record.set("tier", "apache")
    record.set("count", 3)
    assert record.get("tier") == "apache"
    assert record.get("count") == "3"  # values stored as strings
    assert record.get("missing") is None
    assert "tier" in record
    assert len(record) == 2


def test_record_invalid_tag_rejected():
    record = LogRecord()
    with pytest.raises(ParseError):
        record.set("bad tag", "x")
    # Valid names are remembered once checked; an invalid one still
    # raises after them, and on every later try.
    record.set("tier", "apache")
    record.set("status", "200")
    for _ in range(2):
        with pytest.raises(ParseError):
            record.set("bad tag", "x")
    assert "bad tag" not in record


def test_record_equality():
    assert LogRecord({"a": "1"}) == LogRecord({"a": "1"})
    assert LogRecord({"a": "1"}) != LogRecord({"a": "2"})


def test_document_write_read_round_trip(tmp_path):
    doc = XmlDocument("collectl", "web1/collectl.log")
    doc.append(LogRecord({"timestamp_us": "1000", "cpu_user_pct": "12.5"}))
    doc.append(LogRecord({"timestamp_us": "2000"}))
    path = doc.write(tmp_path / "out.xml")
    loaded = XmlDocument.read(path)
    assert loaded.monitor == "collectl"
    assert loaded.source == "web1/collectl.log"
    assert len(loaded) == 2
    assert loaded.records[0] == doc.records[0]
    assert loaded.records[1] == doc.records[1]


def test_write_survives_xml_invalid_code_points(tmp_path):
    # Raw garbage bytes in a damaged log are valid UTF-8 code points
    # (NUL, C0 controls) that XML 1.0 cannot carry even escaped; the
    # writer must still produce a document read() accepts.
    doc = XmlDocument("mysql", "db1/mysql\x01log.log")
    doc.append(
        LogRecord(
            {"timestamp_us": "1000", "query": "SELECT \x00\x07\x1b FROM t"}
        )
    )
    loaded = XmlDocument.read(doc.write(tmp_path / "out.xml"))
    assert loaded.source == "db1/mysql�log.log"
    value = loaded.records[0].get("query")
    assert value == "SELECT ��� FROM t"


def test_read_malformed_xml_raises(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text("<mscope><log><a>1</a>")
    with pytest.raises(ParseError):
        XmlDocument.read(path)


def test_read_wrong_root_raises(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text("<other/>")
    with pytest.raises(ParseError):
        XmlDocument.read(path)


def test_read_unexpected_element_raises(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text("<mscope><entry/></mscope>")
    with pytest.raises(ParseError):
        XmlDocument.read(path)


_tag = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)
_value = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20
).filter(lambda s: s.strip() == s and s != "")


@given(st.lists(st.dictionaries(_tag, _value, min_size=1, max_size=5), max_size=10))
def test_round_trip_preserves_records(record_dicts):
    """Property: write→read preserves every record exactly."""
    import tempfile
    from pathlib import Path

    doc = XmlDocument("m", "s")
    for fields in record_dicts:
        doc.append(LogRecord(fields))
    with tempfile.TemporaryDirectory() as tmp:
        path = doc.write(Path(tmp) / "d.xml")
        loaded = XmlDocument.read(path)
    assert len(loaded) == len(doc)
    for a, b in zip(loaded, doc):
        assert a == b
