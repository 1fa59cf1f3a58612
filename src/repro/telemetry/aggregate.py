"""Aggregation of stage spans into per-run telemetry.

The span stream is raw material; investigations want distributions.
:class:`LatencyHistogram` buckets stage durations on a power-of-two
microsecond scale — merging two histograms is a bucket-wise integer
add, so per-worker partial histograms combine into the run total in
any order (commutative and associative; property-tested).

:class:`RunTelemetry` is the per-run rollup: per-stage latency
histograms with percentile estimates, per-worker utilization of the
process-pool fan-out, and the single-writer drain queue's depth over
time.  It can be built from a live
:class:`~repro.telemetry.spans.TelemetryCollector`, folded span batch
by span batch (the serve daemon's lifetime totals), or rebuilt from the
``pipeline_metrics`` / ``pipeline_workers`` tables of a warehouse a
previous run persisted into.
"""

from __future__ import annotations

import dataclasses
from pathlib import PurePath
from typing import Iterable, Mapping, Sequence

from repro.telemetry.spans import SpanData

__all__ = [
    "LatencyHistogram",
    "StageStats",
    "WorkerStats",
    "RunTelemetry",
    "span_tree",
]

#: Histogram buckets: ``[2**(i-1), 2**i)`` µs, i in [0, _BUCKETS);
#: bucket 0 is ``[0, 1)`` µs.  64 buckets cover any int64 duration.
_BUCKETS = 64


class LatencyHistogram:
    """A mergeable power-of-two latency histogram (microseconds)."""

    __slots__ = ("buckets", "count", "total_us", "min_us", "max_us")

    def __init__(self) -> None:
        self.buckets = [0] * _BUCKETS
        self.count = 0
        self.total_us = 0
        self.min_us: int | None = None
        self.max_us = 0

    @staticmethod
    def bucket_index(duration_us: int) -> int:
        """The bucket a duration falls into (``int.bit_length`` scale)."""
        return min(int(duration_us).bit_length(), _BUCKETS - 1)

    def observe(self, duration_us: int) -> None:
        """Record one duration (negative values are a caller bug)."""
        if duration_us < 0:
            raise ValueError(f"negative duration {duration_us}")
        self.buckets[self.bucket_index(duration_us)] += 1
        self.count += 1
        self.total_us += duration_us
        self.max_us = max(self.max_us, duration_us)
        self.min_us = (
            duration_us if self.min_us is None else min(self.min_us, duration_us)
        )

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Bucket-wise sum — order-independent, so per-worker partials
        combine into the run total under any fan-out interleaving."""
        merged = LatencyHistogram()
        merged.buckets = [a + b for a, b in zip(self.buckets, other.buckets)]
        merged.count = self.count + other.count
        merged.total_us = self.total_us + other.total_us
        merged.max_us = max(self.max_us, other.max_us)
        if self.min_us is None:
            merged.min_us = other.min_us
        elif other.min_us is None:
            merged.min_us = self.min_us
        else:
            merged.min_us = min(self.min_us, other.min_us)
        return merged

    def percentile(self, p: float) -> int:
        """Estimated p-quantile (µs): the upper bound of the bucket
        where the cumulative count crosses ``p``, clamped to the exact
        observed maximum."""
        if not 0 <= p <= 1:
            raise ValueError(f"percentile {p} outside [0, 1]")
        if self.count == 0:
            return 0
        threshold = p * self.count
        cumulative = 0
        for index, entries in enumerate(self.buckets):
            cumulative += entries
            if cumulative >= threshold:
                upper = 2**index - 1 if index else 0
                return min(upper, self.max_us)
        return self.max_us

    @property
    def mean_us(self) -> float:
        """Exact mean of the observed durations."""
        return self.total_us / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-ready summary (sparse buckets)."""
        return {
            "count": self.count,
            "total_us": self.total_us,
            "min_us": self.min_us or 0,
            "max_us": self.max_us,
            "mean_us": round(self.mean_us, 3),
            "p50_us": self.percentile(0.50),
            "p90_us": self.percentile(0.90),
            "p99_us": self.percentile(0.99),
            "buckets": {
                str(i): n for i, n in enumerate(self.buckets) if n
            },
        }


@dataclasses.dataclass(slots=True)
class StageStats:
    """One pipeline stage's rollup across every file it touched."""

    stage: str
    spans: int = 0
    records: int = 0
    bytes: int = 0
    errors: int = 0
    histogram: LatencyHistogram = dataclasses.field(
        default_factory=LatencyHistogram
    )

    def observe(
        self, duration_us: int, records: int, bytes_: int, errors: int
    ) -> None:
        self.spans += 1
        self.records += records
        self.bytes += bytes_
        self.errors += errors
        self.histogram.observe(duration_us)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "spans": self.spans,
            "records": self.records,
            "bytes": self.bytes,
            "errors": self.errors,
            "latency": self.histogram.to_dict(),
        }


@dataclasses.dataclass(slots=True)
class WorkerStats:
    """One fan-out worker's share of the run.

    ``utilization`` is busy time over run wall time — how much of the
    run this ProcessPoolExecutor slot (or the single-writer parent,
    labelled ``main``) actually spent in pipeline stages.
    """

    worker: str
    spans: int = 0
    busy_us: int = 0
    utilization: float = 0.0

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "spans": self.spans,
            "busy_us": self.busy_us,
            "utilization": round(self.utilization, 4),
        }


class RunTelemetry:
    """The per-run aggregate over one pipeline run's spans."""

    def __init__(self) -> None:
        self.stages: dict[str, StageStats] = {}
        self.workers: dict[str, WorkerStats] = {}
        #: ``(t_us, depth)`` drain-queue samples (live runs only; not
        #: persisted — queue depth is a scheduling observable).
        self.queue_depth: list[tuple[int, int]] = []
        self.wall_us = 0

    # -- construction ------------------------------------------------

    @classmethod
    def from_spans(
        cls,
        spans: Sequence[SpanData],
        queue_depth: Iterable[tuple[int, int]] = (),
        wall_ns: int = 0,
    ) -> "RunTelemetry":
        """Aggregate a span stream (any order — totals are sums)."""
        telemetry = cls()
        telemetry.wall_us = wall_ns // 1_000
        telemetry.add(spans)
        telemetry._normalize_workers()
        if telemetry.wall_us:
            for worker in telemetry.workers.values():
                worker.utilization = worker.busy_us / telemetry.wall_us
        telemetry.queue_depth = [
            (t_ns // 1_000, depth) for t_ns, depth in queue_depth
        ]
        return telemetry

    def add(self, spans: Iterable[SpanData]) -> None:
        """Fold more spans into the stage and worker totals.

        Folding a stream in parts gives the totals of folding it whole
        (property-tested), so a long-running process can fold each
        cycle's spans and drop them.  Worker labels stay raw here;
        :meth:`from_spans` normalizes them.
        """
        for span in spans:
            duration_us = span.duration_ns // 1_000
            stage = self.stages.get(span.stage)
            if stage is None:
                stage = self.stages[span.stage] = StageStats(span.stage)
            stage.observe(duration_us, span.records, span.bytes, span.errors)
            if span.stage == "run":
                # The run-envelope span covers the whole wall; counting
                # it as busy time would pin "main" above 100%.
                continue
            worker = self.workers.get(span.worker)
            if worker is None:
                worker = self.workers[span.worker] = WorkerStats(span.worker)
            worker.spans += 1
            worker.busy_us += duration_us

    def _normalize_workers(self) -> None:
        """Relabel workers ``w0..wN`` by first appearance.

        Raw labels are process ids — meaningless across runs; the
        normalized labels make exports comparable.  ``main`` (the
        serial path and the single-writer import stage) keeps its name
        and sorts first.
        """
        normalized: dict[str, WorkerStats] = {}
        index = 0
        for label, stats in self.workers.items():
            if label == "main":
                stats.worker = "main"
                normalized["main"] = stats
            else:
                stats.worker = f"w{index}"
                normalized[f"w{index}"] = stats
                index += 1
        self.workers = normalized

    @classmethod
    def from_db(cls, db) -> "RunTelemetry | None":
        """Rebuild the persisted telemetry of a warehouse.

        Returns ``None`` when the warehouse holds no telemetry (the
        transform ran with the no-op sink).  Queue-depth samples are
        not persisted, so they come back empty.
        """
        if not db.has_pipeline_metrics():
            return None
        telemetry = cls()
        for stage_name, host, path, records, bytes_, errors, duration_us in (
            db.pipeline_metrics()
        ):
            stage = telemetry.stages.get(stage_name)
            if stage is None:
                stage = telemetry.stages[stage_name] = StageStats(stage_name)
            stage.observe(duration_us, records, bytes_, errors)
        for worker, spans, busy_us, utilization in db.pipeline_workers():
            telemetry.workers[worker] = WorkerStats(
                worker=worker,
                spans=spans,
                busy_us=busy_us,
                utilization=utilization,
            )
        run = telemetry.stages.get("run")
        if run is not None and run.histogram.count:
            telemetry.wall_us = run.histogram.total_us
        return telemetry

    # -- totals ------------------------------------------------------

    @property
    def total_records(self) -> int:
        """Records attributed to the parse stage (each record is also
        converted and imported; summing stages would triple-count)."""
        parse = self.stages.get("parse")
        return parse.records if parse else 0

    @property
    def total_errors(self) -> int:
        parse = self.stages.get("parse")
        return parse.errors if parse else 0

    @property
    def files(self) -> int:
        parse = self.stages.get("parse")
        return parse.spans if parse else 0

    def to_json_dict(self) -> dict:
        """The full JSON export (``mscope stats --format json``)."""
        return {
            "wall_us": self.wall_us,
            "files": self.files,
            "records": self.total_records,
            "errors": self.total_errors,
            "stages": [s.to_dict() for s in self.stages.values()],
            "workers": [w.to_dict() for w in self.workers.values()],
            "queue_depth": [
                {"t_us": t, "depth": depth} for t, depth in self.queue_depth
            ],
        }


def span_tree(spans: Sequence[SpanData]) -> dict:
    """The run's span tree — stage names, nesting, per-stage counts.

    Structure: a ``run`` root, its run-scoped children (``resolve``),
    then one node per ``(host, file)`` with that file's stage spans as
    children, in drain order.  Durations are deliberately excluded —
    this is the shape the golden-trace regression test pins down.
    """
    root: dict = {"stage": "run", "children": []}
    files: dict[tuple[str, str], dict] = {}
    for span in spans:
        node = {
            "stage": span.stage,
            "records": span.records,
            "errors": span.errors,
        }
        if span.stage == "run":
            root["records"] = span.records
            root["errors"] = span.errors
            continue
        if not span.source_path:
            root["children"].append(node)
            continue
        key = (span.hostname, span.source_path)
        file_node = files.get(key)
        if file_node is None:
            file_node = files[key] = {
                "stage": "file",
                "hostname": span.hostname,
                # Basename only: the tree must be machine-independent
                # (golden files are committed, log dirs are not).
                "source": PurePath(span.source_path).name,
                "children": [],
            }
            root["children"].append(file_node)
        file_node["children"].append(node)
    return root


def merge_histograms(
    histograms: Iterable[LatencyHistogram],
) -> LatencyHistogram:
    """Fold any number of histograms into one (order-independent)."""
    merged = LatencyHistogram()
    for histogram in histograms:
        merged = merged.merge(histogram)
    return merged


def stage_table(telemetry: RunTelemetry) -> list[Mapping[str, object]]:
    """Rows for the ``mscope stats`` text rendering."""
    rows: list[Mapping[str, object]] = []
    for stage in telemetry.stages.values():
        histogram = stage.histogram
        rows.append(
            {
                "stage": stage.stage,
                "spans": stage.spans,
                "records": stage.records,
                "errors": stage.errors,
                "p50_us": histogram.percentile(0.50),
                "p90_us": histogram.percentile(0.90),
                "p99_us": histogram.percentile(0.99),
                "total_us": histogram.total_us,
            }
        )
    return rows
