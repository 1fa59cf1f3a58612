"""Component-server nodes.

A :class:`Node` bundles the hardware models of one machine in the
n-tier deployment (CPU, disk, page cache) plus its native log streams.
Tier servers, fault injectors, and resource monitors all reference the
node, mirroring how SAR/IOstat observe a host rather than a process.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.common.errors import ConfigError
from repro.common.timebase import Micros, ms
from repro.ntier.hardware import Cpu, Disk, PageCache
from repro.ntier.logfacility import (
    FileLogSink,
    LogSink,
    MemoryLogSink,
    NativeLogFacility,
)
from repro.sim.engine import Engine

__all__ = ["NodeSpec", "Node"]


@dataclasses.dataclass(frozen=True, slots=True)
class NodeSpec:
    """Hardware sizing of one node.

    The defaults approximate the commodity servers in the paper's
    RUBBoS testbed: a small multicore with a single SATA-class disk.

    ``clock_offset_us`` skews this node's *wall clock* relative to true
    time: every timestamp the node logs is shifted by it.  The paper's
    testbed was NTP-disciplined so it never faced this; the skew
    experiments show what unsynchronized clocks do to cross-node
    analysis (and how the offsets can be estimated back out of the
    event logs).
    """

    cores: int = 4
    cpu_quantum_us: Micros = ms(1)
    disk_bandwidth_bytes_per_sec: int = 100 * 1024 * 1024
    disk_seek_us: Micros = 200
    log_flush_threshold_bytes: int = 64 * 1024
    clock_offset_us: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on an impossible configuration."""
        if self.cores < 1:
            raise ConfigError(f"node needs >= 1 core, got {self.cores}")
        if self.disk_bandwidth_bytes_per_sec <= 0:
            raise ConfigError("disk bandwidth must be positive")
        if self.cpu_quantum_us <= 0:
            raise ConfigError("cpu quantum must be positive")


class Node:
    """One machine: CPU, disk, page cache, and named log streams.

    Parameters
    ----------
    engine:
        The simulation engine.
    name:
        Host name, e.g. ``"web1"``.
    spec:
        Hardware sizing.
    log_dir:
        Directory for this node's log files.  ``None`` keeps logs in
        memory (fast; used by unit tests).
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        spec: NodeSpec | None = None,
        log_dir: Path | None = None,
    ) -> None:
        if spec is None:
            spec = NodeSpec()
        spec.validate()
        self.engine = engine
        self.name = name
        self.spec = spec
        self.log_dir = log_dir
        self.cpu = Cpu(
            engine, spec.cores, name=f"{name}.cpu", quantum=spec.cpu_quantum_us
        )
        self.disk = Disk(
            engine,
            name=f"{name}.disk",
            bandwidth_bytes_per_sec=spec.disk_bandwidth_bytes_per_sec,
            seek_us=spec.disk_seek_us,
        )
        self.page_cache = PageCache(name=f"{name}.pagecache")
        #: The clock this node stamps its logs with; the system builder
        #: sets it (skewed when ``spec.clock_offset_us`` is nonzero).
        self.wall_clock = None
        self._facilities: dict[str, NativeLogFacility] = {}

    def facility(self, log_name: str, *, sync: bool = False) -> NativeLogFacility:
        """Return (creating on first use) the log stream ``log_name``."""
        existing = self._facilities.get(log_name)
        if existing is not None:
            return existing
        sink: LogSink
        if self.log_dir is None:
            sink = MemoryLogSink()
        else:
            sink = FileLogSink(self.log_dir / self.name / f"{log_name}.log")
        facility = NativeLogFacility(
            self,
            sink,
            log_name,
            flush_threshold_bytes=self.spec.log_flush_threshold_bytes,
            sync=sync,
        )
        self._facilities[log_name] = facility
        return facility

    @property
    def facilities(self) -> dict[str, NativeLogFacility]:
        """All log streams created so far, by name."""
        return dict(self._facilities)

    def close_logs(self) -> None:
        """Flush and close every log sink (idempotent)."""
        for facility in self._facilities.values():
            facility.sink.close()
