"""JSON/text/Prometheus rendering for the serve API.

The daemon reuses the batch formatters in
:mod:`repro.telemetry.export` for the pipeline telemetry and appends a
``serve`` section (ingest counters, event counters) so one
``/stats`` scrape tells the whole story.  Diagnosis reports serialize
through :func:`report_to_dict` — structured fields plus the same
``to_text`` rendering ``mscope diagnose`` prints.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.analysis.diagnosis import DiagnosisReport
from repro.serve.state import ServeState
from repro.telemetry.aggregate import RunTelemetry
from repro.telemetry.export import render_prometheus, render_text

__all__ = [
    "report_to_dict",
    "render_stats",
    "serve_prometheus_lines",
]

_SERVE_PREFIX = "mscope_serve"


def report_to_dict(report: DiagnosisReport) -> dict[str, Any]:
    """One diagnosis report as a JSON-ready dict."""
    return {
        "window": {
            "start_s": report.window.start / 1e6,
            "stop_s": report.window.stop / 1e6,
            "vlrt_count": report.window.vlrt_count,
            "peak_response_ms": report.window.peak_response_ms,
        },
        "pushback_tiers": list(report.pushback_tiers),
        "queues": [
            {
                "tier": finding.tier,
                "peak": finding.peak_queue,
                "baseline": finding.baseline_queue,
                "amplification": round(finding.amplification, 2),
            }
            for finding in report.queue_findings
        ],
        "causes": [
            {
                "hostname": cause.hostname,
                "kind": cause.kind,
                "label": cause.label,
                "peak_value": cause.peak_value,
                "correlation": cause.correlation,
                "score": round(cause.score, 4),
                "explanation": cause.explanation,
                "lead_lag_us": cause.lead_lag_us,
            }
            for cause in report.causes
        ],
        "affected_interactions": {
            name: {"vlrt_count": count, "traffic_share": round(share, 4)}
            for name, (count, share) in report.affected_interactions.items()
        },
        "sampling": report.sampling,
        "text": report.to_text(),
    }


def serve_prometheus_lines(
    state: ServeState, event_counts: Mapping[str, int]
) -> list[str]:
    """The daemon's own gauges/counters in exposition format."""
    lines: list[str] = []

    def metric(name: str, kind: str, help_text: str, value: Any) -> None:
        lines.append(f"# HELP {_SERVE_PREFIX}_{name} {help_text}")
        lines.append(f"# TYPE {_SERVE_PREFIX}_{name} {kind}")
        lines.append(f"{_SERVE_PREFIX}_{name} {value}")

    metric(
        "ingest_cycles_total", "counter",
        "Ingest cycles completed", state.cycles,
    )
    metric(
        "rows_ingested_total", "counter",
        "Rows delta-imported since startup", state.rows,
    )
    metric(
        "ingest_errors_total", "counter",
        "Damaged lines recorded by the lenient ingest policy",
        state.ingest_errors,
    )
    metric(
        "diagnosis_windows", "gauge",
        "Diagnosis windows currently cached", state.cached_windows,
    )
    metric(
        "floor_breaches_total", "counter",
        "Anomaly windows that breached the VLRT floor",
        state.floor_breaches,
    )
    metric(
        "sampled_total", "counter",
        "Rows seen by the log-volume-reduction policy",
        state.sampled_rows,
    )
    metric(
        "kept_total", "counter",
        "Rows the log-volume-reduction policy kept",
        state.kept_rows,
    )
    name = f"{_SERVE_PREFIX}_events_total"
    lines.append(f"# HELP {name} Events published on the SSE stream")
    lines.append(f"# TYPE {name} counter")
    for kind in sorted(event_counts):
        lines.append(f'{name}{{kind="{kind}"}} {event_counts[kind]}')
    return lines


def render_stats(
    fmt: str,
    telemetry: RunTelemetry,
    state: ServeState,
    event_counts: Mapping[str, int],
) -> tuple[str, str]:
    """``/stats`` body and content type for one of text/json/prom."""
    if fmt == "json":
        document = telemetry.to_json_dict()
        document["serve"] = state.to_dict()
        return json.dumps(document, indent=2) + "\n", "application/json"
    if fmt == "prom":
        body = render_prometheus(telemetry)
        body += "\n".join(serve_prometheus_lines(state, event_counts)) + "\n"
        return body, "text/plain; version=0.0.4"
    body = render_text(telemetry)
    body += (
        f"\nserve: cycles={state.cycles} rows={state.rows} "
        f"windows={state.cached_windows} breaches={state.floor_breaches}\n"
    )
    return body, "text/plain"
