"""The end-to-end very-short-bottleneck diagnosis engine.

Automates the investigation the paper walks through manually in its
two illustrative scenarios:

1. find VLRT requests and cluster them into anomaly windows (Fig 2 /
   Fig 8a);
2. compute per-tier queue lengths from the event tables and identify
   cross-tier pushback — which tiers' queues amplified (Fig 6 / 8b);
3. pull every resource-metric candidate from the warehouse for the
   affected window, flag saturated ones, flag abrupt dirty-page drops,
   and correlate each with the front tier's queue (Fig 4, 7, 8c, 8d);
4. rank root causes by evidence strength.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.analysis.anomaly import (
    AnomalyWindow,
    cluster_anomaly_windows,
    detect_vlrt,
)
from repro.analysis.cache import SeriesCache
from repro.analysis.metrics import MetricCandidate, discover_candidates
from repro.analysis.response_time import (
    CompletionSample,
    completions_from_warehouse,
)
from repro.analysis.series import Series, pearson_correlation
from repro.common.errors import AnalysisError
from repro.common.timebase import Micros, ms
from repro.telemetry.spans import NULL_TELEMETRY, TelemetryCollector
from repro.warehouse.db import MScopeDB

__all__ = ["QueueFinding", "RootCause", "DiagnosisReport", "Diagnoser"]


@dataclasses.dataclass(frozen=True, slots=True)
class QueueFinding:
    """One tier's queue behaviour inside an anomaly window."""

    tier: str
    peak_queue: float
    baseline_queue: float

    @property
    def amplification(self) -> float:
        """Peak over baseline (∞ ≈ large when the baseline is ~0)."""
        return self.peak_queue / max(self.baseline_queue, 0.5)


@dataclasses.dataclass(frozen=True, slots=True)
class RootCause:
    """One ranked root-cause hypothesis."""

    hostname: str
    kind: str
    label: str
    peak_value: float
    correlation: float | None
    score: float
    explanation: str
    #: Best cross-correlation lag of the front queue behind this
    #: metric (µs); positive = the metric led the queue (causal
    #: direction), ``None`` when the lag was not computable.
    lead_lag_us: int | None = None


@dataclasses.dataclass(slots=True)
class DiagnosisReport:
    """Everything milliScope concluded about one anomaly window."""

    window: AnomalyWindow
    queue_findings: list[QueueFinding]
    pushback_tiers: list[str]
    causes: list[RootCause]
    #: interaction name → (VLRT count, share of that interaction's
    #: traffic that went VLRT).  A skew toward one class of
    #: interactions is itself evidence: commit-blocking faults hit the
    #: writes, CPU faults hit everything.
    affected_interactions: dict[str, tuple[int, float]] = dataclasses.field(
        default_factory=dict
    )
    #: Present when the warehouse's ``sampling_ledger`` shows a
    #: log-volume-reduction policy thinned the evidence: the policy
    #: spec(s), cumulative seen/kept rows, and the context-widening
    #: factor the diagnosis applied to compensate.  ``None`` for an
    #: unsampled warehouse, keeping its reports byte-identical to
    #: pre-sampling ones.
    sampling: dict | None = None

    def primary_cause(self) -> RootCause | None:
        """The top-ranked root cause, if any evidence survived."""
        return self.causes[0] if self.causes else None

    def to_text(self) -> str:
        """A human-readable summary of the diagnosis."""
        lines = [
            f"Anomaly window [{self.window.start / 1e6:.3f}s, "
            f"{self.window.stop / 1e6:.3f}s]: {self.window.vlrt_count} VLRT "
            f"request(s), peak response {self.window.peak_response_ms:.1f} ms",
            "  Queue amplification by tier:",
        ]
        for finding in self.queue_findings:
            marker = " <-- pushback" if finding.tier in self.pushback_tiers else ""
            lines.append(
                f"    {finding.tier:8s} peak={finding.peak_queue:6.1f} "
                f"baseline={finding.baseline_queue:6.1f} "
                f"x{finding.amplification:5.1f}{marker}"
            )
        if self.affected_interactions:
            worst = sorted(
                self.affected_interactions.items(),
                key=lambda item: item[1][1],
                reverse=True,
            )[:4]
            rendered = ", ".join(
                f"{name} ({count} VLRT, {share * 100:.0f}% of its traffic)"
                for name, (count, share) in worst
            )
            lines.append(f"  Most affected interactions: {rendered}")
        if self.causes:
            lines.append("  Ranked root causes:")
            for index, cause in enumerate(self.causes, start=1):
                corr = (
                    f"r={cause.correlation:+.2f}"
                    if cause.correlation is not None
                    else "r=n/a"
                )
                lag = ""
                if cause.lead_lag_us is not None and cause.lead_lag_us > 0:
                    lag = f", led the queue by {cause.lead_lag_us / 1000:.0f} ms"
                lines.append(
                    f"    {index}. {cause.label} "
                    f"(peak {cause.peak_value:.1f}, {corr}{lag}, "
                    f"score {cause.score:.2f}) — {cause.explanation}"
                )
        else:
            lines.append("  No saturated resource found (inconclusive).")
        if self.sampling is not None:
            lines.append(
                f"  Evidence sampled ({self.sampling['policy']}): kept "
                f"{self.sampling['rows_kept']}/{self.sampling['rows_seen']} "
                f"rows; analysis context widened "
                f"x{self.sampling['widen']:.1f}"
            )
        return "\n".join(lines)


@dataclasses.dataclass(slots=True)
class _InteractionInputs:
    """Window-independent inputs of the interaction-skew analysis.

    The old engine re-ran :func:`detect_vlrt` (an O(n log n) sort of
    every completion) plus two full passes over the completions *per
    anomaly window*; everything here depends only on the run's
    completions, so it is computed once and shared by every window —
    and by every pool worker, which rebuilds it in its initializer.
    """

    completions: list[CompletionSample]
    #: VLRTs at the *default* thresholds (the skew analysis always
    #: used defaults, regardless of the run's detection parameters).
    vlrts: list  # list[VlrtRequest]
    #: interaction → total completions carrying that interaction.
    totals: dict[str, int]
    #: VLRT request id → {interaction: sample count} (multi-sample ids
    #: kept so the per-window counts match the old full-pass exactly;
    #: only VLRT ids, since no window ever consults the rest).
    id_counts: dict[str, dict[str, int]]


def _interaction_inputs(
    completions: list[CompletionSample],
    baseline_us: Micros | None = None,
) -> _InteractionInputs:
    vlrts = detect_vlrt(completions, baseline_us=baseline_us)
    vlrt_ids = {v.request_id for v in vlrts}
    totals: dict[str, int] = {}
    id_counts: dict[str, dict[str, int]] = {}
    for sample in completions:
        if not sample.interaction:
            continue
        totals[sample.interaction] = totals.get(sample.interaction, 0) + 1
        if sample.request_id in vlrt_ids:
            per_id = id_counts.setdefault(sample.request_id, {})
            per_id[sample.interaction] = per_id.get(sample.interaction, 0) + 1
    return _InteractionInputs(
        completions=completions,
        vlrts=vlrts,
        totals=totals,
        id_counts=id_counts,
    )


class Diagnoser:
    """Diagnoses VSBs from a populated mScopeDB.

    Every warehouse table a diagnosis needs is read once per run into
    a :class:`SeriesCache`, and each anomaly window is served by
    ``searchsorted`` slices of the cached columns, so no query runs
    per window.

    Parameters
    ----------
    db:
        The warehouse holding event and resource tables.
    tier_tables:
        Tier → event-table mapping (defaults to the standard
        deployment's names).
    front_table:
        The first tier's event table, whose upstream pair defines
        response times.
    epoch_us:
        Epoch offset rebasing warehouse wall timestamps onto
        simulation time zero.
    telemetry:
        Optional :class:`TelemetryCollector`; the engine then measures
        ``analysis.*`` stage spans (recorded in deterministic order)
        that ``mscope stats`` renders next to the ingest stages.
    window_us:
        Optional ``(start, stop)`` simulation-time window restricting
        the diagnosis to requests completing inside it (either side
        may be ``None``).  Every warehouse load is bounded to the
        window plus analysis context, so on a sharded warehouse only
        the overlapping shards are ever opened — diagnosing the last
        minute of a day-long run no longer reads the day.
    """

    #: Context padding applied to ``window_us`` when bounding series
    #: loads: queue analysis looks ±1 s around each anomaly window and
    #: resource analysis ±0.5 s, so ±1.5 s covers both.
    window_pad_us: Micros = ms(1_500)

    #: A metric is "saturated" above this value (percent).
    saturation_threshold = 80.0
    #: Hypervisor steal is devastating far below full saturation.
    steal_threshold = 30.0
    #: A dirty-page drop counts when the level falls by this fraction.
    dirty_drop_fraction = 0.4
    #: ... and only when the level was at least this high (Collectl
    #: reports Dirty in KB; drops of a few hundred KB are log-buffer
    #: noise, not page-cache recycling).
    dirty_min_level_kb = 8 * 1024

    def __init__(
        self,
        db: MScopeDB,
        tier_tables: "dict[str, str | list[str]] | None" = None,
        front_table: str = "apache_events_web1",
        epoch_us: int = 0,
        telemetry: TelemetryCollector | None = None,
        window_us: "tuple[Micros | None, Micros | None] | None" = None,
    ) -> None:
        from repro.analysis.causal import (
            DEFAULT_EVENT_TABLES,
            discover_tier_tables,
        )

        self.db = db
        present = set(db.tables())
        if tier_tables is None:
            # Discover whatever replicas this warehouse actually holds,
            # keeping the known upstream-to-downstream tier order (the
            # first tier's queue is the pushback reference).
            discovered = discover_tier_tables(db)
            order = [t for t in DEFAULT_EVENT_TABLES if t in discovered]
            order += [t for t in sorted(discovered) if t not in DEFAULT_EVENT_TABLES]
            requested: dict[str, str | list[str]] = {
                tier: discovered[tier] for tier in order
            }
            if not requested:
                requested = dict(DEFAULT_EVENT_TABLES)
        else:
            requested = dict(tier_tables)
        # Not every deployment instruments every tier, and a sampling
        # policy may have kept zero rows for a quiet replica; analyze
        # what actually loaded.  Single tables stay bare strings (the
        # established mapping shape); replicated tiers carry lists.
        self.tier_tables: dict[str, str | list[str]] = {}
        for tier, value in requested.items():
            kept = [
                table
                for table in ([value] if isinstance(value, str) else value)
                if table in present
            ]
            if kept:
                self.tier_tables[tier] = kept[0] if len(kept) == 1 else kept
        if front_table not in present:
            raise AnalysisError(
                f"front event table {front_table!r} is not in the warehouse"
            )
        if not self.tier_tables:
            raise AnalysisError("no tier event tables found in the warehouse")
        self.front_table = front_table
        self.epoch_us = epoch_us
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Tier-table schemas resolve once, here; per-window code never
        # touches the catalog again.
        self.tier_columns: dict[str, set[str]] = {
            table: {name for name, _ in db.table_schema(table)}
            for value in self.tier_tables.values()
            for table in ([value] if isinstance(value, str) else value)
        }
        for table, columns in self.tier_columns.items():
            if "upstream_arrival_us" not in columns:
                raise AnalysisError(
                    f"tier table {table!r} has no upstream_arrival_us column"
                )
        # When a log-volume-reduction policy thinned the event streams
        # (the ledger says so — measured, not estimated), widen every
        # analysis context window by the inverse keep ratio (capped)
        # instead of silently correlating over thinner evidence.  The
        # widening is a pure function of warehouse state.
        summary = db.sampling_summary()
        self.evidence_widen = 1.0
        self.sampling_note: dict | None = None
        if summary is not None and summary["rows_seen"] > summary["rows_kept"]:
            keep = summary["rows_kept"] / summary["rows_seen"]
            self.evidence_widen = min(4.0, 1.0 / max(keep, 1e-9))
            self.window_pad_us = Micros(
                int(self.window_pad_us * self.evidence_widen)
            )
            self.sampling_note = {
                "policy": ",".join(summary["policies"]),
                "rows_seen": summary["rows_seen"],
                "rows_kept": summary["rows_kept"],
                "widen": round(self.evidence_widen, 4),
            }
        self.queue_context_us = Micros(int(ms(1_000) * self.evidence_widen))
        self.resource_context_us = Micros(int(ms(500) * self.evidence_widen))
        self.window_us = window_us
        bounds: tuple[Micros | None, Micros | None] | None = None
        if window_us is not None:
            start, stop = window_us
            bounds = (
                start - self.window_pad_us if start is not None else None,
                stop + self.window_pad_us if stop is not None else None,
            )
        self.cache = SeriesCache(
            db, epoch_us=epoch_us, telemetry=self.telemetry, bounds=bounds
        )

    # ------------------------------------------------------------------

    def sampled_baseline_us(
        self, completions: "list[CompletionSample]"
    ) -> Micros | None:
        """Ledger-corrected response-time baseline under tail sampling.

        Tail sampling keeps every slow request but only ``base_rate``
        of the fast ones, so the surviving completion population is
        skewed toward the anomaly — a raw median over it inflates the
        VLRT cutoff until the anomaly hides itself.  Each kept fast
        completion represents ``1/base_rate`` originals (the policy's
        keep decision is exactly known), so the inverse-probability
        weighted median recovers the true population baseline.  Pure
        function of warehouse state + completions.  ``None`` when no tail
        policy governed the warehouse (detection then estimates its
        own baseline, unchanged).
        """
        if self.sampling_note is None or not completions:
            return None
        base_rate = threshold_us = None
        for spec in self.sampling_note["policy"].split(","):
            parts = spec.split(":")
            if parts[0] == "tail" and len(parts) >= 3:
                base_rate = float(parts[1])
                threshold_us = ms(float(parts[2]))
        if not base_rate or threshold_us is None:
            return None
        ordered = sorted(c.response_time_us for c in completions)
        weights = [
            1.0 if rt >= threshold_us else 1.0 / base_rate for rt in ordered
        ]
        half = sum(weights) / 2.0
        acc = 0.0
        for rt, weight in zip(ordered, weights):
            acc += weight
            if acc >= half:
                return rt
        return ordered[-1]

    def diagnose(
        self,
        threshold_factor: float = 10.0,
        min_response_ms: float = 50.0,
        queue_step_us: Micros = ms(10),
    ) -> list[DiagnosisReport]:
        """Run the full pipeline; one report per anomaly window."""
        telemetry = self.telemetry
        with telemetry.span("analysis.run") as run_span:
            window_start, window_stop = (
                self.window_us if self.window_us is not None else (None, None)
            )
            with telemetry.span(
                "analysis.completions", source_path=self.front_table
            ) as span:
                completions = completions_from_warehouse(
                    self.db,
                    self.front_table,
                    self.epoch_us,
                    start=window_start,
                    stop=window_stop,
                )
                span.add(records=len(completions))
            if not completions:
                raise AnalysisError(f"no completions in {self.front_table!r}")
            baseline_us = self.sampled_baseline_us(completions)
            vlrts = detect_vlrt(
                completions, threshold_factor, min_response_ms,
                baseline_us=baseline_us,
            )
            windows = cluster_anomaly_windows(vlrts)
            with telemetry.span("analysis.candidates") as span:
                candidates = discover_candidates(self.db)
                span.add(records=len(candidates))
            with telemetry.span("analysis.skew") as span:
                skew = _interaction_inputs(completions, baseline_us)
                span.add(records=len(skew.vlrts))
            horizon = max(c.completed_at for c in completions)
            reports = []
            for index, window in enumerate(windows):
                with telemetry.span(
                    "analysis.window", source_path=f"window{index}"
                ) as span:
                    report = self._diagnose_window(
                        window, skew, candidates, horizon, queue_step_us,
                    )
                    span.add(records=window.vlrt_count)
                reports.append(report)
            run_span.add(records=len(completions), errors=0)
        return reports

    # ------------------------------------------------------------------

    def _diagnose_window(
        self,
        window: AnomalyWindow,
        skew: "_InteractionInputs",
        candidates: list[MetricCandidate],
        horizon: Micros,
        queue_step_us: Micros,
    ) -> DiagnosisReport:
        queue_findings, pushback, front_queue = self._queue_analysis(
            window, horizon, queue_step_us
        )
        causes = self._resource_analysis(
            window, candidates, front_queue, queue_step_us
        )
        return DiagnosisReport(
            window=window,
            queue_findings=queue_findings,
            pushback_tiers=pushback,
            causes=causes,
            affected_interactions=self._interaction_analysis(window, skew),
            sampling=self.sampling_note,
        )

    def _interaction_analysis(
        self, window: AnomalyWindow, skew: "_InteractionInputs"
    ) -> dict[str, tuple[int, float]]:
        """Which interaction classes the window's VLRTs belong to.

        All O(completions) work lives in :func:`_interaction_inputs`,
        computed once per run; each window only walks the (small) VLRT
        list — the same numbers the old per-window full pass produced.
        """
        vlrt_counts: dict[str, int] = {}
        seen: set[str] = set()
        # Iterate the VLRT *list*, not an id set: list order is the
        # deterministic completions order, so dict insertion order —
        # which breaks ties in the report's top-interactions cut —
        # never depends on string-hash randomization across processes.
        for vlrt in skew.vlrts:
            if not window.start <= vlrt.completed_at <= window.stop:
                continue
            if vlrt.request_id in seen:
                continue
            seen.add(vlrt.request_id)
            for interaction, count in skew.id_counts.get(
                vlrt.request_id, {}
            ).items():
                vlrt_counts[interaction] = (
                    vlrt_counts.get(interaction, 0) + count
                )
        return {
            name: (count, count / skew.totals[name])
            for name, count in vlrt_counts.items()
        }

    def _queue_analysis(
        self, window: AnomalyWindow, horizon: Micros, step: Micros
    ) -> tuple[list[QueueFinding], list[str], Series]:
        context_start = max(0, window.start - self.queue_context_us)
        context_stop = min(horizon, window.stop + self.queue_context_us)
        findings: list[QueueFinding] = []
        front_queue: Series | None = None
        for tier, tables in self.tier_tables.items():
            # Boundary arrays load once per run; each window is just a
            # fresh grid over the cached sorted columns.
            series = self.cache.queue_series(
                tables, context_start, context_stop, step
            )
            if front_queue is None:
                front_queue = series
            inside = series.window(window.start, window.stop)
            baseline = self._context_baseline(
                series, context_start, window, context_stop
            )
            findings.append(
                QueueFinding(
                    tier=tier, peak_queue=inside.max(), baseline_queue=baseline
                )
            )
        pushback = [f.tier for f in findings if f.amplification >= 3.0]
        assert front_queue is not None  # tier_tables is non-empty (ctor)
        return findings, pushback, front_queue

    @staticmethod
    def _context_baseline(
        series: Series,
        context_start: Micros,
        window: AnomalyWindow,
        context_stop: Micros,
    ) -> float:
        """Mean queue level in the context outside the anomaly window.

        A window abutting the run boundary (fault in the first 100 ms,
        or still in flight at the last sample) has an *empty* context
        on that side; averaging in its 0.0 would halve the baseline and
        overstate amplification, so only populated sides contribute.
        """
        outside_values = [
            side.mean()
            for side in (
                series.window(context_start, window.start),
                series.window(window.stop, context_stop),
            )
            if not side.is_empty()
        ]
        if not outside_values:
            return 0.0
        return sum(outside_values) / len(outside_values)

    def _resource_analysis(
        self,
        window: AnomalyWindow,
        candidates: list[MetricCandidate],
        front_queue: Series,
        queue_step_us: Micros,
    ) -> list[RootCause]:
        # Candidates sharing a monitor table share a sample grid, so
        # aligning the front queue onto it repeats; memoize under a key
        # pinning everything the queue series depends on.
        front_key = ("front_queue", window.start, window.stop, queue_step_us)

        def align_front(series: Series, grid) -> Series:
            return self.cache.resample_keyed(front_key, series, grid)

        causes: list[RootCause] = []
        for candidate in candidates:
            series = self.cache.window(
                candidate.table,
                candidate.columns,
                window.start - self.resource_context_us,
                window.stop + self.resource_context_us,
            )
            if series.is_empty():
                continue
            inside = series.window(window.start, window.stop)
            if inside.is_empty():
                continue
            if candidate.kind == "dirty_pages":
                cause = self._dirty_page_cause(candidate, inside)
            else:
                cause = self._saturation_cause(
                    candidate, inside, front_queue, series, align_front
                )
            if cause is not None:
                causes.append(cause)
        causes.sort(key=lambda c: c.score, reverse=True)
        return causes

    def _saturation_cause(
        self,
        candidate: MetricCandidate,
        inside: Series,
        front_queue: Series,
        context: Series,
        align_front: "Callable[[Series, object], Series] | None" = None,
    ) -> RootCause | None:
        peak = inside.max()
        threshold = (
            self.steal_threshold
            if candidate.kind == "cpu_steal"
            else self.saturation_threshold
        )
        if peak < threshold:
            return None
        correlation: float | None
        lead_lag: int | None
        try:
            correlation = pearson_correlation(
                context, front_queue, resample=align_front
            )
        except AnalysisError:
            correlation = None
        try:
            from repro.analysis.lag import lagged_correlation

            lag_result = lagged_correlation(
                context, front_queue, max_lag_us=ms(300), step_us=ms(25)
            )
            lead_lag = int(lag_result.best_lag_us)
        except AnalysisError:
            lead_lag = None
        score = peak / 100.0 + (abs(correlation) if correlation is not None else 0.0)
        if lead_lag is not None and lead_lag > 0:
            # The metric moved before the queue did: evidence of causal
            # direction, not mere co-occurrence.
            score += 0.1
        if candidate.kind == "disk_util":
            explanation = (
                f"disk on {candidate.hostname} saturated ({peak:.0f}%) "
                "during the anomaly window"
            )
        elif candidate.kind == "cpu_steal":
            score += 0.5  # steal implicates the hypervisor directly
            explanation = (
                f"hypervisor stole {peak:.0f}% of {candidate.hostname}'s "
                "CPU — co-located VM interference"
            )
        else:
            explanation = (
                f"CPU on {candidate.hostname} saturated ({peak:.0f}%) "
                "during the anomaly window"
            )
        return RootCause(
            hostname=candidate.hostname,
            kind=candidate.kind,
            label=candidate.label,
            peak_value=peak,
            correlation=correlation,
            score=score,
            explanation=explanation,
            lead_lag_us=lead_lag,
        )

    def _dirty_page_cause(
        self, candidate: MetricCandidate, inside: Series
    ) -> RootCause | None:
        high = inside.max()
        low = float(inside.values.min())
        if high < self.dirty_min_level_kb:
            return None
        drop = (high - low) / high
        if drop < self.dirty_drop_fraction:
            return None
        return RootCause(
            hostname=candidate.hostname,
            kind=candidate.kind,
            label=candidate.label,
            peak_value=high,
            correlation=None,
            score=0.5 + drop,
            explanation=(
                f"dirty page cache on {candidate.hostname} dropped "
                f"{drop * 100:.0f}% inside the window — dirty-page "
                f"recycling stole the CPU"
            ),
        )
