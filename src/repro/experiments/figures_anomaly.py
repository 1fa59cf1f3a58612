"""Figure harnesses for the illustrative scenarios (Figures 2–8).

Each ``figure_NN`` function reproduces one figure of the paper from a
:class:`~repro.experiments.scenarios.ScenarioRun`, returning a result
object with the figure's series/rows plus a ``to_text()`` rendering.
The numbers come from the monitors' own observations (the same values
their native logs carry); the warehouse path over the identical logs
is exercised by the examples and the integration tests.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.anomaly import cluster_anomaly_windows, detect_vlrt
from repro.analysis.queues import concurrency_series, spans_from_traces
from repro.analysis.response_time import (
    CompletionSample,
    PointInTimeWindow,
    completions_from_traces,
    point_in_time_response_times,
)
from repro.analysis.series import Series, pearson_correlation
from repro.baselines.sampling import CoarseAveragingMonitor
from repro.common.errors import AnalysisError
from repro.common.records import BoundaryRecord
from repro.common.timebase import Micros, ms, seconds, to_ms
from repro.experiments.scenarios import ScenarioRun
from repro.ntier.tiers import TIER_ORDER

__all__ = [
    "Fig02Result",
    "Fig04Result",
    "Fig05Result",
    "Fig06Result",
    "Fig07Result",
    "Fig08Result",
    "figure_02",
    "figure_04",
    "figure_05",
    "figure_06",
    "figure_07",
    "figure_08",
]

_TIER_NODE = {"apache": "web1", "tomcat": "app1", "cjdbc": "mid1", "mysql": "db1"}


def _completions(run: ScenarioRun) -> list[CompletionSample]:
    samples = completions_from_traces(run.result.traces)
    if not samples:
        raise AnalysisError("scenario produced no completed requests")
    return samples


def _collectl_series(run: ScenarioRun, node: str, metric: str) -> Series:
    if run.resources is None:
        raise AnalysisError("scenario ran without resource monitors")
    for monitor in run.resources.by_node(node):
        if monitor.monitor_name == "collectl":
            return Series.from_pairs(
                (s.timestamp, s.metrics[metric]) for s in monitor.samples
            )
    raise AnalysisError(f"no collectl monitor on node {node!r}")


# ----------------------------------------------------------------------
# Figure 2 — point-in-time response time vs coarse sampling


@dataclasses.dataclass(slots=True)
class Fig02Result:
    """Point-in-time RT windows plus the 1 s-averaged baseline."""

    windows: list[PointInTimeWindow]
    coarse: Series
    peak_ms: float
    average_ms: float

    @property
    def peak_over_average(self) -> float:
        return self.peak_ms / max(self.average_ms, 1e-9)

    @property
    def coarse_peak_ms(self) -> float:
        return self.coarse.max()

    def to_text(self) -> str:
        lines = [
            "Figure 2: point-in-time response time (50 ms windows)",
            f"  peak PIT response time : {self.peak_ms:8.1f} ms",
            f"  period average         : {self.average_ms:8.1f} ms",
            f"  peak / average         : {self.peak_over_average:8.1f}x",
            f"  1s-sampled series peak : {self.coarse_peak_ms:8.1f} ms"
            "  (the peak the coarse monitor reports)",
        ]
        return "\n".join(lines)


def figure_02(run: ScenarioRun, window_us: Micros = ms(50)) -> Fig02Result:
    """Reproduce Figure 2 from a scenario-A run."""
    samples = _completions(run)
    windows = point_in_time_response_times(samples, window_us, 0, run.duration)
    coarse = CoarseAveragingMonitor(seconds(1)).observe(samples, 0, run.duration)
    total_rt = sum(s.response_time_us for s in samples)
    return Fig02Result(
        windows=windows,
        coarse=coarse,
        peak_ms=max(w.max_ms for w in windows),
        average_ms=to_ms(total_rt / len(samples)),
    )


# ----------------------------------------------------------------------
# Figure 4 — per-node disk utilization around the bottleneck


@dataclasses.dataclass(slots=True)
class Fig04Result:
    """Disk utilization series per node."""

    series: dict[str, Series]
    window: tuple[Micros, Micros]

    def peak(self, node: str) -> float:
        return self.series[node].window(*self.window).max()

    def to_text(self) -> str:
        lines = ["Figure 4: disk utilization during the anomaly window"]
        for node, _ in sorted(self.series.items()):
            lines.append(f"  {node:6s} peak disk util: {self.peak(node):6.1f}%")
        return "\n".join(lines)


def figure_04(run: ScenarioRun) -> Fig04Result:
    """Reproduce Figure 4: only the DB node's disk saturates."""
    window = _anomaly_window(run)
    series = {
        node: _collectl_series(run, node, "disk_util_pct")
        for node in _TIER_NODE.values()
    }
    return Fig04Result(series=series, window=window)


def _anomaly_window(run: ScenarioRun) -> tuple[Micros, Micros]:
    samples = _completions(run)
    vlrts = detect_vlrt(samples)
    if not vlrts:
        raise AnalysisError("no VLRT requests in this run")
    windows = cluster_anomaly_windows(vlrts)
    biggest = max(windows, key=lambda w: w.vlrt_count)
    return biggest.start, biggest.stop


# ----------------------------------------------------------------------
# Figure 5 — causal path of one request


@dataclasses.dataclass(slots=True)
class Fig05Result:
    """The reconstructed execution path of one (slow) request."""

    request_id: str
    interaction: str
    response_ms: float
    hops: list[BoundaryRecord]

    def to_text(self) -> str:
        lines = [
            f"Figure 5: execution path of {self.request_id} "
            f"({self.interaction}, {self.response_ms:.1f} ms)",
        ]
        for hop in self.hops:
            ds = hop.downstream_sending
            dr = hop.downstream_receiving
            lines.append(
                f"  {hop.tier:8s} UA={hop.upstream_arrival} "
                f"DS={ds if ds is not None else '-'} "
                f"DR={dr if dr is not None else '-'} "
                f"UD={hop.upstream_departure}"
            )
        return "\n".join(lines)


def figure_05(run: ScenarioRun) -> Fig05Result:
    """Reconstruct the slowest request's path (Figure 5's flow)."""
    slowest = max(
        (t for t in run.result.traces if t.is_complete()),
        key=lambda t: t.response_time(),
    )
    hops = sorted(slowest.visits, key=lambda v: v.upstream_arrival)
    return Fig05Result(
        request_id=slowest.request_id,
        interaction=slowest.interaction,
        response_ms=slowest.response_time_ms(),
        hops=hops,
    )


# ----------------------------------------------------------------------
# Figure 6 — cross-tier queue pushback


@dataclasses.dataclass(slots=True)
class Fig06Result:
    """Per-tier queue-length series around the anomaly."""

    series: dict[str, Series]
    window: tuple[Micros, Micros]

    def peak(self, tier: str) -> float:
        return self.series[tier].window(*self.window).max()

    def baseline(self, tier: str) -> float:
        start, _ = self.window
        return self.series[tier].window(0, start).mean()

    def pushback_tiers(self) -> list[str]:
        return [
            tier
            for tier in self.series
            if self.peak(tier) >= 3.0 * max(self.baseline(tier), 0.5)
        ]

    def to_text(self) -> str:
        lines = ["Figure 6: per-tier queue lengths (pushback check)"]
        for tier in self.series:
            lines.append(
                f"  {tier:8s} baseline={self.baseline(tier):6.1f} "
                f"peak={self.peak(tier):6.1f}"
            )
        lines.append(f"  pushback observed on: {', '.join(self.pushback_tiers())}")
        return "\n".join(lines)


def figure_06(run: ScenarioRun, step: Micros = ms(10)) -> Fig06Result:
    """Reproduce Figure 6: queues rise across every tier at once."""
    window = _anomaly_window(run)
    series = {
        tier: concurrency_series(
            spans_from_traces(run.result.traces, tier), 0, run.duration, step
        )
        for tier in TIER_ORDER
    }
    return Fig06Result(series=series, window=window)


# ----------------------------------------------------------------------
# Figure 7 — DB disk utilization vs front-tier queue correlation


@dataclasses.dataclass(slots=True)
class Fig07Result:
    """Correlation between the DB disk and the Apache queue."""

    correlation: float
    disk_series: Series
    queue_series: Series

    def to_text(self) -> str:
        return (
            "Figure 7: DB disk utilization vs Apache queue length\n"
            f"  Pearson r = {self.correlation:+.3f}"
        )


def figure_07(run: ScenarioRun, step: Micros = ms(50)) -> Fig07Result:
    """Reproduce Figure 7's correlation evidence."""
    start, stop = _anomaly_window(run)
    context = (max(0, start - ms(500)), min(run.duration, stop + ms(500)))
    disk = _collectl_series(run, "db1", "disk_util_pct").window(*context)
    queue = concurrency_series(
        spans_from_traces(run.result.traces, "apache"), context[0], context[1], step
    )
    return Fig07Result(
        correlation=pearson_correlation(disk, queue),
        disk_series=disk,
        queue_series=queue,
    )


# ----------------------------------------------------------------------
# Figure 8 — the dirty-page scenario, four panels


@dataclasses.dataclass(slots=True)
class Fig08Result:
    """The four panels of Figure 8."""

    pit_windows: list[PointInTimeWindow]          # (a)
    queue_series: dict[str, Series]               # (b)
    cpu_series: dict[str, Series]                 # (c)
    dirty_series: dict[str, Series]               # (d)
    peaks: list[tuple[Micros, Micros]]

    def peak_rt_ms(self) -> float:
        return max(w.max_ms for w in self.pit_windows)

    def average_rt_ms(self) -> float:
        weighted = sum(w.mean_ms * w.count for w in self.pit_windows)
        count = sum(w.count for w in self.pit_windows)
        return weighted / max(count, 1)

    def queue_mean_in(self, tier: str, window: tuple[Micros, Micros]) -> float:
        """Mean queue length over the window.

        The mean — not the max — is what distinguishes the two peaks:
        the post-burst drain briefly pulses through downstream tiers
        in both cases, but only a tier whose CPU is actually saturated
        holds a large queue for the whole window.
        """
        return self.queue_series[tier].window(*window).mean()

    def cpu_peak_in(self, node: str, window: tuple[Micros, Micros]) -> float:
        return self.cpu_series[node].window(*window).max()

    def dirty_drop_in(self, node: str, window: tuple[Micros, Micros]) -> float:
        inside = self.dirty_series[node].window(*window)
        if inside.is_empty():
            return 0.0
        return inside.max() - float(inside.values.min())

    def to_text(self) -> str:
        lines = [
            "Figure 8: dirty-page recycling scenario",
            f"  (a) peak PIT RT {self.peak_rt_ms():.0f} ms vs average "
            f"{self.average_rt_ms():.1f} ms over the interval",
        ]
        for index, window in enumerate(self.peaks, start=1):
            lines.append(
                f"  peak {index} [{window[0] / 1e6:.2f}s, {window[1] / 1e6:.2f}s]: "
                f"apacheQ~{self.queue_mean_in('apache', window):.0f} "
                f"tomcatQ~{self.queue_mean_in('tomcat', window):.0f} "
                f"web1 CPU={self.cpu_peak_in('web1', window):.0f}% "
                f"app1 CPU={self.cpu_peak_in('app1', window):.0f}%"
            )
        return "\n".join(lines)


def figure_08(run: ScenarioRun, window_us: Micros = ms(50)) -> Fig08Result:
    """Reproduce Figure 8's four panels from a scenario-B run."""
    samples = _completions(run)
    pit = point_in_time_response_times(samples, window_us, 0, run.duration)
    queue_series = {
        tier: concurrency_series(
            spans_from_traces(run.result.traces, tier), 0, run.duration, ms(10)
        )
        for tier in ("apache", "tomcat")
    }
    cpu_series = {}
    dirty_series = {}
    for node in ("web1", "app1"):
        user = _collectl_series(run, node, "cpu_user_pct")
        system = _collectl_series(run, node, "cpu_system_pct")
        cpu_series[node] = Series(user.times, user.values + system.values)
        dirty_series[node] = _collectl_series(run, node, "mem_dirty_kb")
    peaks = [
        (w.start, w.stop)
        for w in cluster_anomaly_windows(detect_vlrt(samples))
    ]
    return Fig08Result(
        pit_windows=pit,
        queue_series=queue_series,
        cpu_series=cpu_series,
        dirty_series=dirty_series,
        peaks=peaks,
    )
