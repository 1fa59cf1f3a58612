"""Figure harnesses for the evaluation section (Figures 9, 10, 11).

* Figure 9 — accuracy: event-monitor queue lengths vs the SysViz-style
  wire tracer's, per tier.
* Figure 10 — overhead: aggregate CPU (user+system+iowait) and disk
  write volume, monitors on vs off, across workloads.
* Figure 11 — throughput and response time, monitors on vs off.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.queues import concurrency_series, spans_from_traces
from repro.analysis.series import Series
from repro.common.errors import AnalysisError
from repro.common.timebase import Micros, ms, seconds
from repro.experiments.scenarios import ScenarioRun, baseline_run
from repro.ntier.tiers import TIER_ORDER

__all__ = [
    "Fig09Result",
    "Fig10Row",
    "Fig10Result",
    "Fig11Row",
    "Fig11Result",
    "figure_09",
    "figure_10",
    "figure_11",
]

_TIER_NODE = {"apache": "web1", "tomcat": "app1", "cjdbc": "mid1", "mysql": "db1"}

#: Event-monitor log streams per tier (instrumented write volume).
_EVENT_STREAMS = {
    "apache": "access_log",
    "tomcat": "catalina_log",
    "cjdbc": "controller_log",
    "mysql": "mysql_log",
}


# ----------------------------------------------------------------------
# Figure 9 — accuracy vs SysViz


@dataclasses.dataclass(slots=True)
class Fig09Result:
    """Per-tier agreement between event monitors and the wire tracer."""

    workload: int
    monitor_series: dict[str, Series]
    sysviz_series: dict[str, Series]

    def mean_abs_error(self, tier: str) -> float:
        a = self.monitor_series[tier].values
        b = self.sysviz_series[tier].values
        return float(np.mean(np.abs(a - b)))

    def peak_queue(self, tier: str) -> float:
        return self.monitor_series[tier].max()

    def to_text(self) -> str:
        lines = [
            f"Figure 9: queue-length agreement at workload {self.workload} "
            "(event mScopeMonitors vs SysViz wire tracer)"
        ]
        for tier in self.monitor_series:
            lines.append(
                f"  {tier:8s} peak queue={self.peak_queue(tier):6.1f} "
                f"mean |monitor - sysviz|={self.mean_abs_error(tier):6.2f}"
            )
        return "\n".join(lines)


def figure_09(
    workload: int = 8000,
    duration: Micros = seconds(8),
    step: Micros = ms(10),
    seed: int = 7,
    run: ScenarioRun | None = None,
) -> Fig09Result:
    """Reproduce Figure 9: monitors match the passive wire tracer."""
    if run is None:
        run = baseline_run(
            workload, seed=seed, duration=duration, with_sysviz=True
        )
    if run.sysviz is None:
        raise AnalysisError("figure 9 needs a run with the SysViz tracer")
    # Skip the ramp-up second at both analysis ends.
    start, stop = ms(1_000), run.duration
    monitor_series = {
        tier: concurrency_series(
            spans_from_traces(run.result.traces, tier), start, stop, step
        )
        for tier in TIER_ORDER
    }
    sysviz_series = {
        tier: run.sysviz.queue_series(tier, start, stop, step)
        for tier in TIER_ORDER
    }
    return Fig09Result(
        workload=run.system.config.workload.users,
        monitor_series=monitor_series,
        sysviz_series=sysviz_series,
    )


# ----------------------------------------------------------------------
# Figure 10 — CPU and disk-write overhead


@dataclasses.dataclass(frozen=True, slots=True)
class Fig10Row:
    """One tier's overhead at one workload."""

    workload: int
    tier: str
    cpu_pct_enabled: float
    cpu_pct_disabled: float
    disk_bytes_enabled: float
    disk_bytes_disabled: float

    @property
    def cpu_overhead_pct(self) -> float:
        return self.cpu_pct_enabled - self.cpu_pct_disabled

    @property
    def disk_write_ratio(self) -> float:
        return self.disk_bytes_enabled / max(self.disk_bytes_disabled, 1.0)


@dataclasses.dataclass(slots=True)
class Fig10Result:
    """The overhead comparison across workloads and tiers."""

    rows: list[Fig10Row]

    def rows_for(self, tier: str) -> list[Fig10Row]:
        return [r for r in self.rows if r.tier == tier]

    def max_cpu_overhead(self, tier: str) -> float:
        return max(r.cpu_overhead_pct for r in self.rows_for(tier))

    def to_text(self) -> str:
        lines = [
            "Figure 10: event-monitor overhead (aggregate CPU incl. iowait, "
            "event-log disk writes)",
            f"  {'workload':>8s} {'tier':8s} {'cpu_on%':>8s} {'cpu_off%':>9s} "
            f"{'overhead':>9s} {'disk_ratio':>10s}",
        ]
        for row in self.rows:
            lines.append(
                f"  {row.workload:8d} {row.tier:8s} "
                f"{row.cpu_pct_enabled:8.2f} {row.cpu_pct_disabled:9.2f} "
                f"{row.cpu_overhead_pct:+9.2f} {row.disk_write_ratio:10.2f}"
            )
        return "\n".join(lines)


def _overhead_pair(
    workload: int, duration: Micros, seed: int
) -> tuple[ScenarioRun, ScenarioRun]:
    enabled = baseline_run(
        workload, seed=seed, duration=duration, monitors_enabled=True
    )
    disabled = baseline_run(
        workload, seed=seed, duration=duration, monitors_enabled=False
    )
    return enabled, disabled


def figure_10(
    workloads: tuple[int, ...] = (1000, 2000, 4000, 8000),
    duration: Micros = seconds(8),
    seed: int = 7,
) -> Fig10Result:
    """Reproduce Figure 10: 1–3% CPU, ~2x disk writes when enabled."""
    rows: list[Fig10Row] = []
    measure_from = ms(1_000)  # skip ramp-up
    for workload in workloads:
        enabled, disabled = _overhead_pair(workload, duration, seed)
        for tier, node_name in _TIER_NODE.items():
            stream = _EVENT_STREAMS[tier]
            cpu_on = enabled.system.nodes[node_name].cpu.aggregate_pct(
                measure_from, duration
            )
            cpu_off = disabled.system.nodes[node_name].cpu.aggregate_pct(
                measure_from, duration
            )
            bytes_on = _stream_bytes(enabled, node_name, stream)
            bytes_off = _stream_bytes(disabled, node_name, stream)
            rows.append(
                Fig10Row(
                    workload=workload,
                    tier=tier,
                    cpu_pct_enabled=cpu_on,
                    cpu_pct_disabled=cpu_off,
                    disk_bytes_enabled=bytes_on,
                    disk_bytes_disabled=bytes_off,
                )
            )
    return Fig10Result(rows=rows)


def _stream_bytes(run: ScenarioRun, node_name: str, stream: str) -> int:
    facilities = run.system.nodes[node_name].facilities
    facility = facilities.get(stream)
    return facility.bytes_written if facility is not None else 0


# ----------------------------------------------------------------------
# Figure 11 — throughput and response time, monitors on vs off


@dataclasses.dataclass(frozen=True, slots=True)
class Fig11Row:
    """One workload's end-to-end performance, monitors on vs off."""

    workload: int
    throughput_enabled: float
    throughput_disabled: float
    response_ms_enabled: float
    response_ms_disabled: float

    @property
    def throughput_delta_pct(self) -> float:
        base = max(self.throughput_disabled, 1e-9)
        return 100.0 * (self.throughput_enabled - self.throughput_disabled) / base

    @property
    def response_delta_ms(self) -> float:
        return self.response_ms_enabled - self.response_ms_disabled


@dataclasses.dataclass(slots=True)
class Fig11Result:
    """The end-to-end comparison across workloads."""

    rows: list[Fig11Row]

    def max_throughput_delta_pct(self) -> float:
        return max(abs(r.throughput_delta_pct) for r in self.rows)

    def max_response_delta_ms(self) -> float:
        return max(r.response_delta_ms for r in self.rows)

    def to_text(self) -> str:
        lines = [
            "Figure 11: system performance, event monitors enabled vs disabled",
            f"  {'workload':>8s} {'thpt_on':>9s} {'thpt_off':>9s} {'delta%':>7s} "
            f"{'rt_on':>7s} {'rt_off':>7s} {'delta':>7s}",
        ]
        for row in self.rows:
            lines.append(
                f"  {row.workload:8d} {row.throughput_enabled:9.1f} "
                f"{row.throughput_disabled:9.1f} {row.throughput_delta_pct:+7.2f} "
                f"{row.response_ms_enabled:7.2f} {row.response_ms_disabled:7.2f} "
                f"{row.response_delta_ms:+7.2f}"
            )
        return "\n".join(lines)


def figure_11(
    workloads: tuple[int, ...] = (1000, 2000, 4000, 8000),
    duration: Micros = seconds(8),
    seed: int = 7,
) -> Fig11Result:
    """Reproduce Figure 11: throughput unchanged, ~+2 ms response time."""
    rows: list[Fig11Row] = []
    measure_from = ms(1_000)
    for workload in workloads:
        enabled, disabled = _overhead_pair(workload, duration, seed)
        rows.append(
            Fig11Row(
                workload=workload,
                throughput_enabled=enabled.result.throughput(measure_from, duration),
                throughput_disabled=disabled.result.throughput(
                    measure_from, duration
                ),
                response_ms_enabled=enabled.result.mean_response_time_ms(
                    measure_from, duration
                ),
                response_ms_disabled=disabled.result.mean_response_time_ms(
                    measure_from, duration
                ),
            )
        )
    return Fig11Result(rows=rows)
