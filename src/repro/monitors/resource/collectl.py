"""The Collectl resource mScopeMonitor (CPU + disk + memory).

Collectl is the monitor both illustrative scenarios lean on: disk
utilization for scenario A (Fig 4) and the memory subsystem's
dirty-page count for scenario B (Fig 8d).  It logs either CSV
(``collectl -P``) or plain text.
"""

from __future__ import annotations

from repro.common.errors import MonitorError
from repro.common.records import ResourceSample
from repro.common.timebase import Micros, WallClock, ms
from repro.logfmt.collectl import (
    CollectlSample,
    collectl_csv_header,
    collectl_text_header,
    format_collectl_csv_row,
    format_collectl_text_row,
)
from repro.monitors.resource.base import (
    ResourceMonitor,
    cpu_window_metrics,
    disk_window_metrics,
)
from repro.ntier.node import Node

__all__ = ["CollectlMonitor", "COLLECTL_CSV_MODE", "COLLECTL_TEXT_MODE"]

COLLECTL_CSV_MODE = "csv"
COLLECTL_TEXT_MODE = "text"


class CollectlMonitor(ResourceMonitor):
    """Multi-subsystem monitor in Collectl's CSV or text format."""

    monitor_name = "collectl"

    def __init__(
        self,
        node: Node,
        wall_clock: WallClock,
        interval_us: Micros = ms(50),
        mode: str = COLLECTL_CSV_MODE,
        cpu_us_per_sample: Micros = 80,
    ) -> None:
        if mode not in (COLLECTL_CSV_MODE, COLLECTL_TEXT_MODE):
            raise MonitorError(f"unknown Collectl mode {mode!r}")
        super().__init__(node, wall_clock, interval_us, cpu_us_per_sample)
        self.mode = mode
        self.log_stream = (
            "collectl_csv" if mode == COLLECTL_CSV_MODE else "collectl"
        )

    def preamble(self) -> list[str]:
        if self.mode == COLLECTL_CSV_MODE:
            return [collectl_csv_header()]
        return [collectl_text_header()]

    def collect(self, start: Micros, stop: Micros) -> dict[str, float]:
        metrics = cpu_window_metrics(self.node, start, stop)
        metrics.update(disk_window_metrics(self.node, start, stop))
        # ``stop`` is now: the sample reads the current dirty level.
        metrics["mem_dirty_kb"] = self.node.page_cache.dirty_bytes / 1024
        return metrics

    def render(self, sample: ResourceSample) -> list[str]:
        span_sec = sample.interval / 1_000_000
        rendered = CollectlSample(
            timestamp=sample.timestamp,
            cpu_user=sample.metrics["cpu_user_pct"],
            cpu_sys=sample.metrics["cpu_system_pct"],
            cpu_wait=sample.metrics["cpu_iowait_pct"],
            disk_read_kb=sample.metrics["disk_read_kb_per_sec"] * span_sec,
            disk_write_kb=sample.metrics["disk_write_kb_per_sec"] * span_sec,
            disk_util=sample.metrics["disk_util_pct"],
            mem_dirty_kb=sample.metrics["mem_dirty_kb"],
        )
        if self.mode == COLLECTL_CSV_MODE:
            return [format_collectl_csv_row(self.wall_clock, rendered)]
        return [format_collectl_text_row(self.wall_clock, rendered)]
