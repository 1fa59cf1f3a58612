"""Incremental (live) transformation.

The paper's mScopeDB is a *dynamic* warehouse: tables materialize and
grow as monitoring data arrives.  :class:`LiveTransformer` keeps a
warehouse in sync with still-growing log files, so a monitoring session
can be analyzed while the system is still running — and each refresh
costs what was appended, not what was already ingested.

Notes
-----
* Every file has a :class:`~repro.transformer.parsers.base.ParseCursor`:
  the byte offset just after the last complete line parsed, the next
  line number, the records and damaged lines counted so far, and the
  parser's carried cross-line state (SAR's report date and columns,
  iostat's block timestamp, collectl's column header).  A refresh
  resumes the parser from its cursor and parses only the complete
  (newline-terminated) lines appended since; a torn last line waits
  for its newline.
* The cursor also keeps the file's ``(st_dev, st_ino)`` and the bytes
  just before its offset.  A file that was rewritten — another inode,
  shorter than the offset, or different bytes there — restarts: it is
  parsed from byte 0 with fresh state and the records beyond the
  cursor's count import.  SAR's XML output, a whole-document format
  well-formed only once closed, and any parser that does not opt in to
  resumption restart whenever the file changed.  A file that did not
  change since its cursor is not parsed at all, so the cursors are the
  one record of what was ingested.  A file whose stat still equals
  the one its cursor kept (once the file's mtime and ctime were a
  second old) is not even opened: an idle settled tree costs one stat
  per file.
* A restart that finds *fewer* records than were already imported
  means the file was truncated or rotated: the refresh raises
  ``ParseError`` instead of silently ignoring everything appended
  afterwards.
* Each delta goes through the batch transform's write stage,
  :class:`~repro.transformer.importer.MScopeDataImporter`, whose
  per-stream running totals are what make a caught-up live warehouse
  iterdump identically to a one-shot batch one.
* A refresh cycle lands every file's delta as one warehouse
  transaction, opened at its first write (an idle cycle writes
  nothing) and committed once.  The new cursors are staged and
  applied only after the commit; an import that fails rolls the whole
  cycle back — warehouse, importer and sampling state, cursors — so
  the next cycle starts where this one did.
* A file that is momentarily unparsable mid-write (e.g. SAR's XML
  output, which is well-formed only once closed) is retried within the
  refresh — ``max_retries`` bounded attempts with exponential backoff,
  giving a concurrent writer time to finish the record — and only then
  skipped until the next refresh; its cursor stays where it was.  The
  :class:`RefreshOutcome` names each skipped file with its reason and
  counts the retries, so operators see contention instead of silent
  per-refresh skips.  A file that vanished since the directory was
  listed is not a skip: there is nothing in it to ingest.
* An :class:`~repro.transformer.errorpolicy.ErrorPolicy` can make the
  refresh lenient: damaged lines are recorded in ``ingest_errors``
  under the line numbers a batch parse gives them (idempotently — a
  retried or restarted parse re-records onto the same keyed rows) while
  the undamaged records import; the error budget counts per file, as
  in batch, not per refresh.
* Each refresh cycle opens a telemetry span, and so does each file it
  opens — each file's span carries the bytes parsed, so their sum over
  a session against the file sizes is the bytes parsed per byte
  appended.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from pathlib import Path
from typing import Callable

from repro.common.errors import ParseError
from repro.sampling.policy import SamplingPolicy, parse_policy
from repro.telemetry.spans import NULL_TELEMETRY, TelemetryCollector
from repro.transformer.declaration import (
    ParserBinding,
    ParsingDeclaration,
    default_declaration,
)
from repro.transformer.errorpolicy import FAIL_FAST_POLICY, ErrorPolicy, ErrorSink
from repro.transformer.importer import MScopeDataImporter
from repro.transformer.parsers import MScopeParser, create_parser
from repro.transformer.parsers.base import START, ParseCursor, unchanged_since
from repro.transformer.xml_to_csv import XmlToCsvConverter
from repro.warehouse.db import MScopeDB

__all__ = ["LiveTransformer", "RefreshOutcome"]


@dataclasses.dataclass(frozen=True, slots=True)
class RefreshOutcome:
    """Result of one refresh pass over a log directory."""

    new_rows: int = 0
    #: Files that imported at least one row.
    refreshed_files: int = 0
    #: Files whose cursor moved — consumed bytes even when a sampling
    #: policy imported none of their rows.
    advanced_files: int = 0
    #: ``(path, reason)`` of every file left unparsed this refresh.
    skipped: tuple[tuple[Path, str], ...] = ()
    #: Mid-write retry attempts spent this refresh (0 when every file
    #: parsed on its first attempt).
    retries: int = 0

    @property
    def skipped_files(self) -> int:
        return len(self.skipped)


class LiveTransformer:
    """Keeps an mScopeDB incrementally in sync with growing logs.

    Parameters
    ----------
    db, declaration:
        As for :class:`~repro.transformer.pipeline.MScopeDataTransformer`.
    policy:
        Ingestion error policy; defaults to ``fail-fast``.  Lenient
        policies record damaged lines in ``ingest_errors``; quarantine
        *artifacts* are a batch-transform feature (a live file's damage
        arrives a delta at a time, so artifact copies would churn).
    max_retries:
        Extra parse attempts per file and refresh when the file is
        momentarily unparsable mid-write.
    backoff_s:
        First retry delay in seconds; doubles per attempt.
    sleep:
        Injectable clock for tests (defaults to :func:`time.sleep`).
    telemetry:
        Optional :class:`~repro.telemetry.spans.TelemetryCollector`
        receiving one ``refresh`` span per cycle and one
        ``refresh_file`` span per file opened (a file its settled stat
        vouches for opens none).
    on_ingest_error:
        Callback invoked with ``(source_path, reason)`` for every
        damaged line a lenient policy records, once the cycle that
        recorded it committed — the serve daemon forwards these onto
        its SSE event stream instead of polling the ``ingest_errors``
        ledger.
    sampling:
        A log-volume-reduction policy (instance or spec string), as
        for :class:`~repro.transformer.pipeline.MScopeDataTransformer`.
        The importer filters each delta and records the stream's
        cumulative counts into the ``sampling_ledger``, so a caught-up
        sampled live warehouse converges on a sampled batch one.
        Stateful policies (tail deferral) hold rows back until
        :meth:`flush_sampling` — the serve daemon calls it during
        drain, before the final diagnosis.
    """

    def __init__(
        self,
        db: MScopeDB,
        declaration: ParsingDeclaration | None = None,
        policy: ErrorPolicy | None = None,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
        telemetry: TelemetryCollector | None = None,
        on_ingest_error: Callable[[str, str], None] | None = None,
        sampling: SamplingPolicy | str | None = None,
    ) -> None:
        self.db = db
        self.declaration = declaration or default_declaration()
        self.policy = policy or FAIL_FAST_POLICY
        self.converter = XmlToCsvConverter()
        if isinstance(sampling, str):
            sampling = parse_policy(sampling)
        self.sampling = sampling
        self.importer = MScopeDataImporter(db, sampling)
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._sleep = sleep
        self.telemetry = telemetry or NULL_TELEMETRY
        self.on_ingest_error = on_ingest_error
        self._cursors: dict[Path, ParseCursor] = {}
        # Parser instances hold no state between parses (a file's
        # carried state lives in its cursor), so one per binding serves
        # every refresh (keyed by identity — bindings live as long as
        # the declaration that owns them).
        self._parsers: dict[int, MScopeParser] = {}

    def _parser_for(self, binding) -> MScopeParser:
        parser = self._parsers.get(id(binding))
        if parser is None:
            parser = self._parsers[id(binding)] = create_parser(binding)
        return parser

    def refresh_file(self, path: Path | str, hostname: str) -> int:
        """Import records appended to ``path`` since the last refresh.

        The one-file case of a :meth:`refresh_directory` cycle, without
        its retries: the parser resumes from the file's cursor and
        parses complete lines only, the delta lands as one transaction,
        and the cursor moves only once that committed.  The span is
        credited with the bytes parsed.  Returns the number of newly
        imported rows; raises :class:`DeclarationError` when no parser
        is declared for the file, and :class:`ParseError` when the file
        is unparsable (budget exhaustion included) — after committing
        the damage a lenient policy recorded before the parse gave up.
        Under a lenient policy damaged lines are recorded in
        ``ingest_errors`` instead of raising.
        """
        path = Path(path)
        binding = self.declaration.resolve(path)
        return self._cycle([(hostname, path, binding)], 0, skip=False).new_rows

    def _cycle(
        self,
        declared: list[tuple[str, Path, ParserBinding]],
        max_retries: int,
        skip: bool,
    ) -> RefreshOutcome:
        """Land every file's delta as one warehouse transaction.

        Each file is parsed from its cursor; the transaction opens at
        the cycle's first write (damage recorded or rows imported), so
        a cycle with nothing to land writes nothing.  Each new cursor
        is staged and applied only once the transaction committed: if
        an import fails, the warehouse, the importer's and sampling
        policy's state and every cursor are as they were before the
        cycle.  Damaged lines reach ``on_ingest_error`` only after the
        commit too, so a cycle that rolled back reports nothing.
        A :class:`ParseError` is retried ``max_retries`` times with
        exponential backoff, then the file is skipped (``skip``) or the
        error raised once the cycle committed.
        """
        new_rows = refreshed = advanced = retries = 0
        skipped: list[tuple[Path, str]] = []
        staged: dict[Path, ParseCursor] = {}
        #: ``(path, reason)`` of each damaged line, in the order they
        #: happened.
        reports: list[tuple[str, str]] = []
        failure: ParseError | None = None
        opened = False
        with contextlib.ExitStack() as stack:

            def begin() -> None:
                nonlocal opened
                if not opened:
                    stack.enter_context(self.importer.transaction())
                    opened = True

            for hostname, log_file, binding in declared:
                before = self._cursors.get(log_file, START)
                landed = None
                for attempt in range(max_retries + 1):
                    try:
                        landed = self._refresh(
                            log_file, hostname, binding, before, begin, reports
                        )
                        break
                    except ParseError as exc:
                        if skip and not log_file.exists():
                            landed = (0, before)  # gone since the listing
                            break
                        failure = exc
                        if attempt == max_retries:
                            break
                        self._sleep(self.backoff_s * (2**attempt))
                        retries += 1
                if landed is None:
                    if not skip:
                        break
                    skipped.append((log_file, str(failure)))
                    continue
                failure = None
                rows, after = landed
                if after is not before:
                    staged[log_file] = after
                    if after.offset != before.offset or after != before:
                        advanced += 1
                if rows:
                    refreshed += 1
                    new_rows += rows
        # Committed (or nothing to commit): the cursors move now.
        self._cursors.update(staged)
        if self.on_ingest_error is not None:
            for path, reason in reports:
                self.on_ingest_error(path, reason)
        if failure is not None and not skip:
            raise failure
        return RefreshOutcome(
            new_rows=new_rows,
            refreshed_files=refreshed,
            advanced_files=advanced,
            skipped=tuple(skipped),
            retries=retries,
        )

    def _refresh(
        self,
        path: Path,
        hostname: str,
        binding: ParserBinding,
        cursor: ParseCursor,
        begin: Callable[[], None],
        reports: list[tuple[str, str]],
    ) -> tuple[int, ParseCursor]:
        """Parse one file from ``cursor`` and land its delta, calling
        ``begin`` before the first write and adding each damaged line
        to ``reports``; returns the rows imported and the file's new
        cursor.  A file that :func:`unchanged_since` vouches for
        returns at once, with neither a span nor an error sink."""
        if unchanged_since(path, cursor):
            return 0, cursor
        parser = self._parser_for(binding)
        source = str(path)
        sink = ErrorSink(self.policy, source, binding.parser_name)
        with self.telemetry.span(
            "refresh_file", hostname, source, parent="refresh"
        ) as span:
            try:
                document, after = parser.resume(path, cursor, sink, span)
            finally:
                # Damage seen before the parse aborted still gets
                # recorded (idempotently — the keyed INSERT OR REPLACE
                # makes a retried parse converge on the same ledger
                # rows).
                if sink.errors:
                    begin()
                    self.importer.record_errors(sink.errors)
                    reports.extend(
                        (error.path, error.reason) for error in sink.errors
                    )
                span.add(errors=len(sink.errors))
            rows = 0
            if document.records:
                begin()
                table = self.converter.convert(
                    document,
                    f"{binding.monitor}_{hostname}",
                    extra_columns={"hostname": hostname},
                )
                rows = self.importer.import_table(
                    table, hostname, binding.parser_name
                )
            span.add(records=rows)
        return rows, after

    def declared_files(self, root: Path | str) -> list[tuple[str, Path]]:
        """The ``(hostname, path)`` pairs a refresh of ``root`` would
        visit, in the deterministic (host, file) scan order of
        :meth:`ParsingDeclaration.declared_files`.
        """
        return [
            (host, path)
            for host, path, _ in self.declaration.declared_files(root)
        ]

    def refresh_directory(self, root: Path | str) -> RefreshOutcome:
        """Refresh every declared log under ``root`` in one transaction.

        The cycle commits once, however many files grew, and not at
        all when none did; the cursors move only after the commit.  An
        import that fails rolls the whole cycle back — rows, catalog
        and ledgers, the importer's and sampling policy's state, every
        cursor — and raises, so the next cycle starts from the same
        point.  A file that fails to parse is retried up to
        ``max_retries`` times with exponential backoff (a mid-write
        record is usually completed within milliseconds); a file still
        unparsable after the retries is skipped this round and picked
        up again on the next refresh, without holding back the rest.
        """
        # The walk resolves each file's binding; pass it on rather than
        # resolve every file again.
        declared = self.declaration.declared_files(root)
        with self.telemetry.span("refresh") as span:
            outcome = self._cycle(declared, self.max_retries, skip=True)
            span.add(records=outcome.new_rows, errors=outcome.skipped_files)
        return outcome

    def high_water(self, path: Path | str) -> int:
        """Records already imported from ``path``."""
        return self._cursors.get(Path(path), START).records

    def flush_sampling(self) -> int:
        """Commit rows a stateful sampling policy still withholds.

        The serve daemon calls this during SIGTERM drain — deferred
        VLRT records must land before the final diagnosis.  Idempotent;
        returns the retroactively committed row count.
        """
        return self.importer.flush()

    def sampling_totals(self) -> tuple[int, int]:
        """``(rows_seen, rows_kept)`` across every sampled stream.

        The serve daemon surfaces these as the
        ``mscope_serve_sampled_total`` / ``kept_total`` gauges.
        """
        if self.sampling is None:
            return (0, 0)
        seen = sum(c.rows_seen for c in self.sampling.counts.values())
        kept = sum(c.rows_kept for c in self.sampling.counts.values())
        return (seen, kept)
