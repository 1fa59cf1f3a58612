"""Native logging facilities of component servers.

The paper's event mScopeMonitors deliberately reuse each component's
*existing* logging infrastructure (Section IV-C) rather than opening a
side channel, keeping overhead at 1–3% CPU.  This module models that
infrastructure: a buffered, append-only log whose writes cost a little
CPU per line, dirty the page cache, and are flushed to disk in batches
(charging iowait while the flush is in flight).

Log *content* is always durable from the parser's point of view — the
sink receives every line immediately — while the *performance* effects
(CPU, dirty pages, disk traffic, iowait) follow the buffered model.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TYPE_CHECKING

from repro.common.errors import MonitorError
from repro.common.timebase import Micros

if TYPE_CHECKING:
    from repro.ntier.node import Node

__all__ = ["LogSink", "MemoryLogSink", "FileLogSink", "NativeLogFacility"]


class LogSink:
    """Destination for rendered log lines."""

    def write_line(self, line: str) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying file handle (idempotent)."""

    @property
    def description(self) -> str:
        """Human-readable identification of where lines go."""
        raise NotImplementedError


class MemoryLogSink(LogSink):
    """Collects log lines in memory; used by tests and quick runs."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def write_line(self, line: str) -> None:
        self.lines.append(line)

    def text(self) -> str:
        """The full log content with trailing newline per line."""
        return "".join(line + "\n" for line in self.lines)

    @property
    def description(self) -> str:
        return f"<memory:{len(self.lines)} lines>"


class FileLogSink(LogSink):
    """Appends log lines to a real file on disk."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Line-buffered, like a real logging daemon's stream: a live
        # reader (tail, LiveTransformer) sees every completed line.
        self._handle: io.TextIOWrapper | None = self.path.open(
            "a", encoding="utf-8", buffering=1
        )

    def write_line(self, line: str) -> None:
        if self._handle is None:
            raise MonitorError(f"log sink {self.path} already closed")
        self._handle.write(line + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @property
    def description(self) -> str:
        return str(self.path)


class NativeLogFacility:
    """One component's buffered logging channel.

    Parameters
    ----------
    node:
        The node whose CPU/disk/page cache the facility charges.
    sink:
        Where rendered lines go.
    name:
        Log stream name, e.g. ``"access_log"``.
    cpu_us_per_line:
        CPU (system) time accounted per logged line.
    flush_threshold_bytes:
        Buffered bytes that trigger a background flush to disk.
    sync:
        When true every line is flushed synchronously (the ablation's
        "dedicated side-channel logger" mode — far more iowait).
    """

    def __init__(
        self,
        node: "Node",
        sink: LogSink,
        name: str,
        *,
        cpu_us_per_line: Micros = 4,
        flush_threshold_bytes: int = 64 * 1024,
        sync: bool = False,
    ) -> None:
        if flush_threshold_bytes <= 0:
            raise MonitorError("flush threshold must be positive")
        self.node = node
        self.sink = sink
        self.name = name
        self.cpu_us_per_line = cpu_us_per_line
        self.flush_threshold_bytes = flush_threshold_bytes
        self.sync = sync
        #: Lines and bytes logged so far (current totals).
        self.lines_written = 0
        self.bytes_written = 0
        self._buffered = 0
        self._flush_in_flight = False

    def write_line(self, line: str) -> None:
        """Log one line: deliver to the sink and charge the cost model."""
        nbytes = len(line) + 1
        self.sink.write_line(line)
        self.lines_written += 1
        self.bytes_written += nbytes
        self.node.cpu.charge("system", self.cpu_us_per_line)
        self.node.page_cache.dirty(nbytes)
        self._buffered += nbytes
        if self.sync or self._buffered >= self.flush_threshold_bytes:
            self._start_flush()

    def _start_flush(self) -> None:
        if self._flush_in_flight and not self.sync:
            return
        amount, self._buffered = self._buffered, 0
        if amount == 0:
            return
        self._flush_in_flight = True
        self.node.engine.process(self._flush(amount))

    def _flush(self, nbytes: int):
        engine = self.node.engine
        started = engine.now
        try:
            yield from self.node.disk.write(nbytes, priority=7)
            self.node.page_cache.clean(nbytes)
            self.node.cpu.charge("iowait", engine.now - started)
        finally:
            self._flush_in_flight = False

    def flush_now(self) -> None:
        """Force any buffered bytes toward the disk (used at run end)."""
        self._start_flush()
