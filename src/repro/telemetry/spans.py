"""Stage spans — the pipeline's own instrumentation primitive.

The paper's thesis applied to our hot path: aggregate, end-of-run
numbers hide where a slow transform actually spent its time, so every
pipeline stage (resolve → parse → convert → import, plus
:class:`~repro.transformer.live.LiveTransformer` refresh cycles) opens
a structured span carrying host, file, stage, records/bytes processed,
error count, and monotonic wall time.

One object does the work: a :class:`TelemetryCollector` records each
finished :class:`SpanData` where the stage ran.  A process-pool worker
in the parse → convert fan-out builds its own collector from the
parent's clock (a module-level function or builtin, so it pickles) and
ships its spans back in the task result; the single-writer drain loop
ingests them just before that file's import, in the same
deterministic ``(host, file)`` order it imports tables, so persisted
telemetry inherits the pipeline's determinism guarantee.  A disabled
collector (:data:`NULL_TELEMETRY`, the default everywhere) returns a
shared no-op span and never touches the clock — the near-zero
overhead path.  Long-running processes fold their spans into a
:class:`~repro.telemetry.aggregate.RunTelemetry` with
:meth:`~repro.telemetry.aggregate.RunTelemetry.add` and clear the list,
so memory stays bounded and every total only grows.

Clocks are injectable (any ``() -> int`` nanosecond source).  Wall
time is inherently nondeterministic, so the equivalence tests inject
:func:`zero_clock` — module-level, hence picklable into pool workers —
to pin every duration to zero and compare warehouses byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

__all__ = [
    "MAIN_WORKER",
    "SpanData",
    "TelemetryCollector",
    "NULL_TELEMETRY",
    "zero_clock",
]

#: Worker label for spans measured in the parent process.
MAIN_WORKER = "main"


def zero_clock() -> int:
    """A frozen clock: every duration becomes zero.

    The deterministic seam used by the parallel/serial equivalence
    tests — module-level so it pickles into pool workers by reference.
    """
    return 0


@dataclasses.dataclass(frozen=True, slots=True)
class SpanData:
    """One finished stage span.

    ``parent`` names the enclosing span's stage (``""`` for roots);
    nesting below a file-scoped span is keyed by ``(hostname,
    source_path)``.  Durations are clamped non-negative at measurement
    time, so downstream aggregation can rely on it.
    """

    stage: str
    hostname: str = ""
    source_path: str = ""
    parent: str = ""
    start_ns: int = 0
    duration_ns: int = 0
    records: int = 0
    bytes: int = 0
    errors: int = 0
    worker: str = MAIN_WORKER




class _ActiveSpan:
    """A span being measured; context-manage it around the stage."""

    __slots__ = (
        "_collector", "stage", "hostname", "source_path", "parent",
        "_start", "records", "bytes", "errors",
    )

    def __init__(
        self,
        collector: "TelemetryCollector",
        stage: str,
        hostname: str,
        source_path: str,
        parent: str,
    ) -> None:
        self._collector = collector
        self.stage = stage
        self.hostname = hostname
        self.source_path = source_path
        self.parent = parent
        self._start = 0
        self.records = 0
        self.bytes = 0
        self.errors = 0

    def add(self, records: int = 0, bytes: int = 0, errors: int = 0) -> None:
        """Accumulate work attribution onto the span."""
        self.records += records
        self.bytes += bytes
        self.errors += errors

    def __enter__(self) -> "_ActiveSpan":
        self._start = self._collector.clock()
        return self

    def __exit__(self, *exc_info) -> None:
        collector = self._collector
        end = collector.clock()
        collector.spans.append(
            SpanData(
                stage=self.stage,
                hostname=self.hostname,
                source_path=self.source_path,
                parent=self.parent,
                start_ns=self._start,
                # Clamp: a misbehaving injected clock must never
                # produce a negative duration (property-tested).
                duration_ns=max(0, end - self._start),
                records=self.records,
                bytes=self.bytes,
                errors=self.errors,
                worker=collector.worker,
            )
        )


class _NullSpan:
    """Shared do-nothing span: the disabled-collector fast path."""

    __slots__ = ()

    def add(self, records: int = 0, bytes: int = 0, errors: int = 0) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: The stage prefix of the analysis engine's spans.
_ANALYSIS_PREFIX = "analysis."


class TelemetryCollector:
    """One process's span sink: measures stages, aggregates, persists.

    :meth:`span` records each finished stage into :attr:`spans`; the
    pipeline also samples drain-queue depth as the parallel fan-out
    completes, and asks for the aggregate
    :class:`~repro.telemetry.aggregate.RunTelemetry` (or persists it
    into the warehouse) when the run finishes.

    ``enabled=False`` (:data:`NULL_TELEMETRY`) makes :meth:`span`
    return a shared no-op span without calling the clock and every
    other hook a no-op, so instrumented code pays a single attribute
    check when telemetry is off.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        worker: str = MAIN_WORKER,
        enabled: bool = True,
    ) -> None:
        self.clock = clock
        self.worker = worker
        self.enabled = enabled
        self.spans: list[SpanData] = []
        #: ``(t_ns, depth)`` samples of completed-but-undrained futures.
        self.queue_depth: list[tuple[int, int]] = []
        self._run_start: int | None = None
        self._wall_ns = 0

    # -- measurement -------------------------------------------------

    def span(
        self,
        stage: str,
        hostname: str = "",
        source_path: str = "",
        parent: str = "",
    ):
        """A context manager recording one stage into :attr:`spans`."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, stage, hostname, source_path, parent)

    def start_run(self) -> None:
        """Mark the start of a pipeline run (for wall time/utilization)."""
        if self.enabled:
            self._run_start = self.clock()

    def finish_run(self) -> int:
        """Mark the end of the run started by :meth:`start_run`.

        Returns this run's wall time in nanoseconds (0 when no run was
        started); wall time accumulates across runs for utilization.
        """
        if self._run_start is None:
            return 0
        delta = max(0, self.clock() - self._run_start)
        self._wall_ns += delta
        self._run_start = None
        return delta

    def ingest(self, spans: list[SpanData] | tuple[SpanData, ...]) -> None:
        """Append spans measured elsewhere (a pool worker's), in
        deterministic drain order."""
        if self.enabled:
            self.spans.extend(spans)

    def record_queue_depth(self, depth: int) -> None:
        """Sample the single-writer drain queue's depth."""
        if self.enabled:
            self.queue_depth.append((self.clock(), depth))

    # -- results -----------------------------------------------------

    @property
    def wall_ns(self) -> int:
        """Accumulated run wall time (0 until a run finishes)."""
        return self._wall_ns

    def run_telemetry(self):
        """Aggregate everything collected so far into a RunTelemetry."""
        from repro.telemetry.aggregate import RunTelemetry

        return RunTelemetry.from_spans(
            self.spans, queue_depth=self.queue_depth, wall_ns=self._wall_ns
        )

    def persist(self, db) -> None:
        """Write this run's telemetry into the warehouse.

        Span rows land in ``pipeline_metrics`` in ingest (= drain)
        order, so their content and ordering are identical between
        serial and parallel runs; per-worker rollups land in
        ``pipeline_workers`` (worker *assignment* is scheduler-driven,
        so that table is run-specific by nature).  Re-persisting
        replaces the previous run's telemetry.
        """
        if not self.enabled:
            return
        db.replace_pipeline_metrics(_metric_rows(self.spans))
        telemetry = self.run_telemetry()
        db.replace_pipeline_workers(
            (w.worker, w.spans, w.busy_us, w.utilization)
            for w in telemetry.workers.values()
        )

    def persist_stages(self, db) -> None:
        """Append this run's analysis-stage spans to ``pipeline_metrics``.

        Unlike :meth:`persist`, rows already in the table are left
        alone except earlier ``analysis.*`` rows — so analysis-stage
        latency lands *next to* the ingest stages and ``mscope stats``
        renders them as one run history.  Re-running analysis replaces
        only the previous analysis rows (idempotent).
        """
        if not self.enabled:
            return
        db.append_pipeline_metrics(
            _metric_rows(
                span for span in self.spans
                if span.stage.startswith(_ANALYSIS_PREFIX)
            ),
            replace_prefix=_ANALYSIS_PREFIX,
        )


def _metric_rows(spans):
    """``pipeline_metrics`` rows of ``spans``, in order."""
    return (
        (
            span.stage,
            span.hostname,
            span.source_path,
            span.records,
            span.bytes,
            span.errors,
            span.duration_ns // 1_000,
        )
        for span in spans
    )


#: The default sink: collection hooks stay wired, nothing is measured.
NULL_TELEMETRY = TelemetryCollector(clock=zero_clock, enabled=False)
