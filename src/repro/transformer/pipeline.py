"""mScopeDataTransformer — the multi-stage orchestration.

Ties the stages of the paper's Figure 3 together: resolve each log
file against the parsing declaration, run its mScopeParser to enrich
the raw lines into tagged XML, round-trip the XML artifact through
disk (when a work directory is given, keeping the stage boundary
honest), convert it to a typed CSV table with the bottom-up schema
inference, and load it into mScopeDB.

Scaling: the parse → convert stages are CPU-bound and embarrassingly
parallel across log files, so :meth:`transform_directory` fans them
out over a ``ProcessPoolExecutor`` (``jobs`` workers, defaulting to
the machine's core count).  The warehouse stays a **single-writer**
stage: the parent process drains completed tables in deterministic
``(host, file)`` order, so the warehouse contents are identical to a
serial (``jobs=1``) run — byte-for-byte under
:meth:`~repro.warehouse.db.MScopeDB.iterdump`.

Robustness: an :class:`~repro.transformer.errorpolicy.ErrorPolicy`
decides what damaged log data costs.  Under the default ``fail-fast``
policy the first damaged line aborts the transform exactly as it
always has; under ``skip``/``quarantine`` damaged lines are recorded
in the warehouse's ``ingest_errors`` table (and, for ``quarantine``,
diverted to a quarantine directory), every undamaged record still
imports, and a file whose per-file error budget runs out fails alone
— the run continues.  Error recording happens in the same
single-writer drain order as imports, so parallel runs stay
byte-identical to serial under every policy.

Self-observability: a :class:`~repro.telemetry.spans.TelemetryCollector`
turns the run into a span stream — ``resolve`` → per-file ``parse`` /
``convert`` (measured inside the worker that ran them) / ``import``
(single-writer) → a closing ``run`` span — plus drain-queue depth
samples during the parallel fan-out.  Spans are ingested and persisted
(``pipeline_metrics``) in the same deterministic drain order as
imports, and the default :data:`~repro.telemetry.spans.NULL_TELEMETRY`
sink keeps the instrumented path a no-op.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import shutil
from pathlib import Path

from repro.common.errors import ParseError
from repro.transformer.declaration import (
    ParserBinding,
    ParsingDeclaration,
    default_declaration,
)
from repro.transformer.errorpolicy import (
    FAIL_FAST_POLICY,
    QUARANTINE,
    ErrorPolicy,
    ErrorSink,
    IngestError,
)
from repro.telemetry.spans import (
    NULL_PROBE,
    NULL_TELEMETRY,
    SpanData,
    SpanProbe,
    TelemetryCollector,
)
from repro.sampling.policy import SamplingPolicy, parse_policy
from repro.transformer.importer import MScopeDataImporter
from repro.transformer.parsers import create_parser
from repro.transformer.xml_to_csv import CsvTable, XmlToCsvConverter
from repro.transformer.xmlmodel import XmlDocument
from repro.warehouse.db import MScopeDB

__all__ = ["TransformOutcome", "MScopeDataTransformer"]


@dataclasses.dataclass(frozen=True, slots=True)
class TransformOutcome:
    """What one log file became.

    ``error_count`` counts the damaged lines/records recorded for the
    file; ``failed`` marks a file that imported nothing (unsalvageable
    or over its error budget) under a lenient policy.
    """

    source: Path
    table_name: str
    rows_loaded: int
    columns: int
    parser_name: str
    xml_artifact: Path | None
    csv_artifact: Path | None
    error_count: int = 0
    failed: bool = False


#: ``(table, xml, csv, errors, spans)``: what :func:`_parse_convert`
#: makes of one file, and what the write stage takes.
_Parsed = tuple[
    CsvTable | None,
    Path | None,
    Path | None,
    tuple[IngestError, ...],
    tuple[SpanData, ...],
]


def _parse_convert(
    path: Path,
    hostname: str,
    binding: ParserBinding,
    workdir: Path | None,
    policy: ErrorPolicy,
    probe: SpanProbe = NULL_PROBE,
) -> _Parsed:
    """The CPU-bound stages for one file: parse → XML → convert → CSV.

    Runs either in-process (serial path) or inside a worker process
    (parallel fan-out); it touches only the file system, never the
    warehouse.  Returns ``(table, xml, csv, errors, spans)`` where
    ``table`` is ``None`` when the file failed under a lenient policy;
    collected ingest errors and the ``parse``/``convert`` stage spans
    travel back for the parent's single-writer stage to record in
    drain order.  Under ``fail-fast`` any damage raises, exactly as
    before.
    """
    parser = create_parser(binding)
    sink = ErrorSink(policy, str(path), binding.parser_name)
    spans: list[SpanData] = []
    source = str(path)
    document: XmlDocument | None = None
    with probe.span(spans, "parse", hostname, source, parent="file") as span:
        try:
            document = parser.parse_file(path, sink=sink, span=span)
        except ParseError as exc:
            if not policy.lenient:
                raise
            # Unsalvageable file (unreadable, or over its error
            # budget): fail the file, keep the run.
            sink.file_error(str(exc))
        span.add(errors=len(sink.errors))
    if document is None:
        _quarantine(policy, sink, path, hostname, failed_file=True)
        return None, None, None, tuple(sink.errors), tuple(spans)

    xml_artifact: Path | None = None
    csv_artifact: Path | None = None
    converter = XmlToCsvConverter()
    with probe.span(spans, "convert", hostname, source, parent="file") as span:
        if workdir is not None:
            xml_artifact = workdir / hostname / f"{path.stem}.xml"
            document.write(xml_artifact)
            # Honest stage boundary: the converter reads what the
            # parser wrote, not the parser's in-memory objects.
            document = XmlDocument.read(xml_artifact)

        table_name = f"{binding.monitor}_{hostname}"
        table = converter.convert(
            document, table_name, extra_columns={"hostname": hostname}
        )
        if workdir is not None:
            csv_artifact = workdir / hostname / f"{path.stem}.csv"
            converter.write_csv(table, csv_artifact)
        span.add(records=len(table.rows))
    _quarantine(policy, sink, path, hostname, failed_file=False)
    return table, xml_artifact, csv_artifact, tuple(sink.errors), tuple(spans)


def _quarantine(
    policy: ErrorPolicy,
    sink: ErrorSink,
    path: Path,
    hostname: str,
    failed_file: bool,
) -> None:
    """Divert a file's damaged lines (or the whole failed file).

    Each source file owns its quarantine artifacts, so parallel
    workers never contend and the layout is deterministic:
    ``<dir>/<host>/<file>.quarantine`` lists the damaged lines as
    ``<line>\\t<reason>\\t<excerpt>``; a failed file is additionally
    copied whole to ``<dir>/<host>/<file>``.
    """
    if policy.mode != QUARANTINE or not sink.errors:
        return
    assert policy.quarantine_dir is not None  # enforced by ErrorPolicy
    host_dir = policy.quarantine_dir / hostname
    host_dir.mkdir(parents=True, exist_ok=True)
    report = host_dir / f"{path.name}.quarantine"
    with report.open("w", encoding="utf-8") as handle:
        for error in sink.errors:
            handle.write(
                f"{error.line_number}\t{error.reason}\t{error.excerpt}\n"
            )
    if failed_file and path.exists():
        shutil.copyfile(path, host_dir / path.name)


def _parse_convert_task(
    path_str: str,
    hostname: str,
    binding: ParserBinding,
    workdir_str: str | None,
    policy: ErrorPolicy,
    probe: SpanProbe = NULL_PROBE,
) -> _Parsed:
    """Picklable worker entry point for the process pool."""
    workdir = Path(workdir_str) if workdir_str is not None else None
    if probe.enabled:
        # Tag spans with the process that measured them; the collector
        # normalizes pids to stable w0..wN labels at aggregation time.
        probe = probe.relabel(f"pid-{os.getpid()}")
    return _parse_convert(
        Path(path_str), hostname, binding, workdir, policy, probe
    )


class MScopeDataTransformer:
    """Transforms native monitor logs into warehouse tables.

    Parameters
    ----------
    db:
        The target warehouse.
    declaration:
        The parser-to-file mapping; defaults to the standard one
        covering every built-in mScopeMonitor.
    workdir:
        Directory for intermediate XML/CSV artifacts.  ``None`` skips
        writing them (the stages still run in the same order).
    jobs:
        Worker processes for the parse → convert fan-out.  ``None``
        (the default) uses ``os.cpu_count()``; ``1`` keeps everything
        in-process (the deterministic serial path — though parallel
        runs produce identical warehouses, see
        :meth:`transform_directory`).
    policy:
        The ingestion :class:`ErrorPolicy`; defaults to ``fail-fast``
        (the historical behaviour).
    telemetry:
        A :class:`~repro.telemetry.spans.TelemetryCollector` receiving
        the run's stage spans; defaults to the no-op
        :data:`~repro.telemetry.spans.NULL_TELEMETRY` sink, which
        keeps the warehouse byte-identical to a pre-telemetry one.
        With a real collector, :meth:`transform_directory` persists
        the run's telemetry into the warehouse's ``pipeline_metrics``
        / ``pipeline_workers`` tables.
    sampling:
        A log-volume-reduction policy (an instance from
        :mod:`repro.sampling.policy` or its spec string, e.g.
        ``"head:0.1"``).  Applied to every converted table with a
        ``request_id`` column at the single-writer import stage;
        resource tables pass through untouched.  Everything the policy
        drops is *counted* into the warehouse's ``sampling_ledger``, so
        the volume reduction is measured, not estimated.  ``None`` (the
        default) keeps the pipeline byte-identical to an unsampled one.
    """

    def __init__(
        self,
        db: MScopeDB,
        declaration: ParsingDeclaration | None = None,
        workdir: Path | str | None = None,
        jobs: int | None = None,
        policy: ErrorPolicy | None = None,
        telemetry: TelemetryCollector | None = None,
        sampling: SamplingPolicy | str | None = None,
    ) -> None:
        self.db = db
        self.declaration = declaration or default_declaration()
        self.workdir = Path(workdir) if workdir is not None else None
        self.jobs = jobs
        self.policy = policy or FAIL_FAST_POLICY
        self.telemetry = telemetry or NULL_TELEMETRY
        if isinstance(sampling, str):
            sampling = parse_policy(sampling)
        self.sampling = sampling
        self.importer = MScopeDataImporter(db, sampling)

    # ------------------------------------------------------------------

    def _import_result(
        self,
        path: Path,
        binding: ParserBinding,
        hostname: str,
        table: CsvTable | None,
        xml_artifact: Path | None,
        csv_artifact: Path | None,
        errors: tuple[IngestError, ...],
        spans: tuple[SpanData, ...],
    ) -> TransformOutcome:
        """The single-writer stage: record errors, load one table.

        Runs in deterministic ``(host, file)`` drain order for both
        serial and parallel transforms, so the warehouse — including
        the ``ingest_errors`` ledger — is byte-identical either way.
        The file's worker-measured spans are ingested here, followed by
        the ``import`` span, so the telemetry stream inherits the same
        order.
        """
        telemetry = self.telemetry
        telemetry.ingest(spans)
        import_spans: list[SpanData] = []
        rows = 0
        with telemetry.probe().span(
            import_spans, "import", hostname, str(path), parent="file"
        ) as span:
            self.importer.record_errors(errors)
            span.add(errors=len(errors))
            if table is not None:
                rows = self.importer.import_table(
                    table, hostname, binding.parser_name, span=span
                )
        telemetry.ingest(import_spans)
        return TransformOutcome(
            source=path,
            table_name=table.name if table is not None else "",
            rows_loaded=rows,
            columns=len(table.columns) if table is not None else 0,
            parser_name=binding.parser_name,
            xml_artifact=xml_artifact,
            csv_artifact=csv_artifact,
            error_count=len(errors),
            failed=table is None,
        )

    def flush_sampling(self) -> int:
        """Commit everything a stateful policy still withholds.

        Tail sampling defers each request's records until its fate is
        known; the importer settles every deferred request and loads
        the released rows (see
        :meth:`~repro.transformer.importer.MScopeDataImporter.flush`).
        Idempotent, and a no-op without a stateful policy.  Returns the
        number of retroactively committed rows.
        """
        return self.importer.flush()

    def transform_file(self, path: Path | str, hostname: str) -> TransformOutcome:
        """Run the full pipeline on one log file (in-process)."""
        path = Path(path)
        telemetry = self.telemetry
        resolve_spans: list[SpanData] = []
        with telemetry.probe().span(
            resolve_spans, "resolve", hostname, str(path)
        ) as span:
            binding = self.declaration.resolve(path)
            span.add(records=1)
        telemetry.ingest(resolve_spans)
        return self._import_result(
            path,
            binding,
            hostname,
            *_parse_convert(
                path, hostname, binding, self.workdir, self.policy,
                telemetry.probe(),
            ),
        )

    def _resolve_jobs(self, jobs: int | None, tasks: int) -> int:
        if jobs is None:
            jobs = self.jobs
        if jobs is None:
            jobs = os.cpu_count() or 1
        return max(1, min(jobs, tasks))

    def transform_directory(
        self, root: Path | str, jobs: int | None = None
    ) -> list[TransformOutcome]:
        """Transform every declared log under ``root``.

        Walks :meth:`ParsingDeclaration.declared_files` — the layout
        the simulator writes, ``<root>/<hostname>/<stream>.log``, minus
        the files no binding covers.

        With ``jobs > 1`` the parse → convert stages run across a
        process pool while imports stay in this process, draining
        completed tables in ``(host, file)`` order into whichever
        warehouse layout :attr:`db` is — so the resulting warehouse is
        identical to a ``jobs=1`` run, including on partial failure
        (files ordered before the first failing file are fully loaded,
        later ones are not).
        """
        telemetry = self.telemetry
        telemetry.start_run()
        resolve_spans: list[SpanData] = []
        with telemetry.probe().span(resolve_spans, "resolve") as span:
            work = self.declaration.declared_files(root)
            span.add(records=len(work))
        telemetry.ingest(resolve_spans)

        jobs = self._resolve_jobs(jobs, len(work))
        if jobs <= 1:
            outcomes: list[TransformOutcome] = []
            probe = telemetry.probe()
            for host, path, binding in work:
                result = _parse_convert(
                    path, host, binding, self.workdir, self.policy, probe
                )
                outcomes.append(
                    self._import_result(path, binding, host, *result)
                )
        else:
            outcomes = self._transform_parallel(work, jobs)
        self.flush_sampling()
        self._finish_run(outcomes)
        return outcomes

    def _finish_run(self, outcomes: list[TransformOutcome]) -> None:
        """Close the run span and persist the run's telemetry."""
        telemetry = self.telemetry
        wall_ns = telemetry.finish_run()
        if not telemetry.enabled:
            return
        telemetry.ingest(
            [
                SpanData(
                    stage="run",
                    duration_ns=wall_ns,
                    records=sum(o.rows_loaded for o in outcomes),
                    errors=sum(o.error_count for o in outcomes),
                )
            ]
        )
        telemetry.persist(self.db)

    def _transform_parallel(
        self, work: list[tuple[str, Path, ParserBinding]], jobs: int
    ) -> list[TransformOutcome]:
        outcomes: list[TransformOutcome] = []
        workdir_str = str(self.workdir) if self.workdir is not None else None
        telemetry = self.telemetry
        probe = telemetry.probe()
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(
                    _parse_convert_task,
                    str(path),
                    host,
                    binding,
                    workdir_str,
                    self.policy,
                    probe,
                )
                for host, path, binding in work
            ]
            try:
                for index, ((host, path, binding), future) in enumerate(
                    zip(work, futures)
                ):
                    if telemetry.enabled:
                        # Depth of the single-writer drain queue: tasks
                        # already finished but not yet imported.
                        telemetry.record_queue_depth(
                            sum(1 for f in futures[index:] if f.done())
                        )
                    outcomes.append(
                        self._import_result(
                            path, binding, host, *future.result()
                        )
                    )
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
        return outcomes
