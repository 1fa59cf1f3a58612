"""Analysis over mScopeDB: response times, queues, causality, diagnosis."""

from repro.analysis.breakdown import (
    NETWORK_LABEL,
    request_breakdown_ms,
    tier_latency_series,
)
from repro.analysis.lag import LagResult, lagged_correlation
from repro.analysis.render import sparkline
from repro.analysis.skew import (
    SkewEstimate,
    estimate_pairwise_offset,
    estimate_tier_offsets,
)
from repro.analysis.report import build_markdown_report, write_markdown_report
from repro.analysis.anomaly import (
    AnomalyWindow,
    VlrtRequest,
    cluster_anomaly_windows,
    detect_vlrt,
)
from repro.analysis.cache import SeriesCache
from repro.analysis.causal import (
    CausalHop,
    CausalPath,
    DEFAULT_EVENT_TABLES,
    reconstruct_path,
    reconstruct_paths_bulk,
)
from repro.analysis.diagnosis import (
    Diagnoser,
    DiagnosisReport,
    QueueFinding,
    RootCause,
)
from repro.analysis.metrics import MetricCandidate, discover_candidates, metric_series
from repro.analysis.queues import (
    concurrency_from_sorted,
    concurrency_series,
    spans_from_traces,
    spans_from_warehouse,
    tier_queue_lengths,
)
from repro.analysis.response_time import (
    CompletionSample,
    PointInTimeWindow,
    completions_from_traces,
    completions_from_warehouse,
    percentile_windows,
    point_in_time_response_times,
    sampled_average_response_times,
)
from repro.analysis.series import Series, pearson_correlation

__all__ = [
    "AnomalyWindow",
    "CausalHop",
    "CausalPath",
    "CompletionSample",
    "DEFAULT_EVENT_TABLES",
    "Diagnoser",
    "DiagnosisReport",
    "LagResult",
    "build_markdown_report",
    "write_markdown_report",
    "lagged_correlation",
    "sparkline",
    "MetricCandidate",
    "NETWORK_LABEL",
    "PointInTimeWindow",
    "QueueFinding",
    "RootCause",
    "Series",
    "SeriesCache",
    "SkewEstimate",
    "VlrtRequest",
    "estimate_pairwise_offset",
    "estimate_tier_offsets",
    "cluster_anomaly_windows",
    "completions_from_traces",
    "completions_from_warehouse",
    "concurrency_from_sorted",
    "concurrency_series",
    "detect_vlrt",
    "discover_candidates",
    "metric_series",
    "pearson_correlation",
    "percentile_windows",
    "point_in_time_response_times",
    "reconstruct_path",
    "reconstruct_paths_bulk",
    "request_breakdown_ms",
    "sampled_average_response_times",
    "spans_from_traces",
    "spans_from_warehouse",
    "tier_latency_series",
    "tier_queue_lengths",
]
