"""Tests for native logging facilities and sinks."""

import pytest

from repro.common.errors import MonitorError
from repro.ntier.logfacility import FileLogSink, MemoryLogSink, NativeLogFacility
from repro.ntier.node import Node
from repro.sim.engine import Engine


def make_node():
    return Node(Engine(), "web1")


def test_memory_sink_collects_lines():
    sink = MemoryLogSink()
    sink.write_line("hello")
    sink.write_line("world")
    assert sink.lines == ["hello", "world"]
    assert sink.text() == "hello\nworld\n"


def test_file_sink_round_trip(tmp_path):
    path = tmp_path / "nested" / "app.log"
    sink = FileLogSink(path)
    sink.write_line("line one")
    sink.write_line("line two")
    sink.close()
    assert path.read_text() == "line one\nline two\n"


def test_file_sink_write_after_close_raises(tmp_path):
    sink = FileLogSink(tmp_path / "x.log")
    sink.close()
    with pytest.raises(MonitorError):
        sink.write_line("too late")


def test_file_sink_close_idempotent(tmp_path):
    sink = FileLogSink(tmp_path / "x.log")
    sink.close()
    sink.close()


def test_facility_counts_lines_and_bytes():
    node = make_node()
    facility = node.facility("test_log")
    facility.write_line("abc")  # 4 bytes with newline
    facility.write_line("defgh")  # 6 bytes
    assert facility.lines_written == 2
    assert facility.bytes_written == 10


def test_facility_charges_cpu_and_dirties_pages():
    node = make_node()
    facility = node.facility("test_log")
    facility.write_line("x" * 99)
    assert node.cpu.accounting["system"].total == facility.cpu_us_per_line
    assert node.page_cache.dirty_bytes == 100


def test_facility_flushes_at_threshold():
    node = make_node()
    facility = NativeLogFacility(
        node, MemoryLogSink(), "t", flush_threshold_bytes=100
    )
    line = "y" * 99  # 100 bytes with newline -> hits the threshold
    facility.write_line(line)
    node.engine.run()  # let the flush process finish
    assert node.disk.write_bytes.total == 100
    # The flush cleans what the write dirtied.
    assert node.page_cache.dirty_bytes == 0
    # iowait charged for the flush duration.
    assert node.cpu.accounting["iowait"].total > 0


def test_facility_buffers_below_threshold():
    node = make_node()
    facility = NativeLogFacility(
        node, MemoryLogSink(), "t", flush_threshold_bytes=10_000
    )
    facility.write_line("short")
    node.engine.run()
    assert node.disk.write_bytes.total == 0
    facility.flush_now()
    node.engine.run()
    assert node.disk.write_bytes.total == 6


def test_sync_mode_flushes_every_line():
    node = make_node()
    facility = NativeLogFacility(
        node, MemoryLogSink(), "t", flush_threshold_bytes=10_000, sync=True
    )
    facility.write_line("a")
    facility.write_line("b")
    node.engine.run()
    assert node.disk.write_ops.total == 2


def test_facility_rejects_bad_threshold():
    node = make_node()
    with pytest.raises(MonitorError):
        NativeLogFacility(node, MemoryLogSink(), "t", flush_threshold_bytes=0)


def test_sink_receives_content_regardless_of_flush_model():
    node = make_node()
    facility = node.facility("test_log")
    facility.write_line("immediately visible")
    assert facility.sink.lines == ["immediately visible"]
