"""Ingestion error policies.

Monitor logs come from live, possibly-crashing components, so the
transformer must digest truncated lines, torn concurrent writes,
encoding garbage, and stripped headers without discarding a whole
monitoring session.  The :class:`ErrorPolicy` decides what happens
when a parser meets a damaged line or record:

* ``fail-fast``   — raise :class:`~repro.common.errors.ParseError`
  immediately (the historical behaviour; default everywhere);
* ``skip``        — drop the damaged line, record it in the
  warehouse's ``ingest_errors`` table, keep parsing;
* ``quarantine``  — like ``skip``, but the damaged raw lines are also
  diverted to a quarantine directory for later inspection.

Under ``skip`` and ``quarantine`` each file has an **error budget**:
once a file accumulates more than ``budget`` damaged records, the file
fails as a whole (its records are not imported and a file-level error
is recorded) — but the *run* continues with the next file.

The :class:`ErrorSink` is the per-file collector threaded through one
``parse_file`` call.  Parsers report damage through
:meth:`MScopeParser.bad_line`, which delegates here; the pipeline owns
the sink, so recorded errors survive even when the parse aborts.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.common.errors import ParseError

__all__ = [
    "FAIL_FAST",
    "SKIP",
    "QUARANTINE",
    "ERROR_MODES",
    "ErrorPolicy",
    "ErrorBudgetExceeded",
    "IngestError",
    "ErrorSink",
    "FAIL_FAST_POLICY",
]

FAIL_FAST = "fail-fast"
SKIP = "skip"
QUARANTINE = "quarantine"

ERROR_MODES = (FAIL_FAST, SKIP, QUARANTINE)

#: Excerpt length kept per damaged line (warehouse rows stay small).
_EXCERPT_LIMIT = 200


class ErrorBudgetExceeded(ParseError):
    """A file accumulated more damaged records than its budget allows."""


@dataclasses.dataclass(frozen=True, slots=True)
class ErrorPolicy:
    """How ingestion reacts to damaged log data.

    Parameters
    ----------
    mode:
        One of :data:`FAIL_FAST`, :data:`SKIP`, :data:`QUARANTINE`.
    budget:
        Damaged records tolerated per file before the file fails
        (``None`` = unlimited).  Ignored under ``fail-fast``.
    quarantine_dir:
        Where damaged lines/files are diverted; required (and only
        used) in ``quarantine`` mode.
    """

    mode: str = FAIL_FAST
    budget: int | None = 1000
    quarantine_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.mode not in ERROR_MODES:
            raise ValueError(
                f"unknown error mode {self.mode!r}; expected one of {ERROR_MODES}"
            )
        if self.budget is not None and self.budget < 1:
            raise ValueError("error budget must be >= 1 (or None for unlimited)")
        if self.mode == QUARANTINE and self.quarantine_dir is None:
            raise ValueError("quarantine mode needs a quarantine_dir")
        if self.quarantine_dir is not None:
            object.__setattr__(self, "quarantine_dir", Path(self.quarantine_dir))

    @property
    def lenient(self) -> bool:
        """Whether damaged lines are recorded instead of raised."""
        return self.mode != FAIL_FAST


#: The default policy: today's fail-fast behaviour, unchanged.
FAIL_FAST_POLICY = ErrorPolicy(mode=FAIL_FAST)


@dataclasses.dataclass(frozen=True, slots=True)
class IngestError:
    """One damaged line, record, or file, as recorded in ``ingest_errors``.

    ``line_number`` is 1-based; ``0`` marks a file-level failure (the
    whole file was unparsable or its error budget ran out).  For
    record-oriented rather than line-oriented formats (SAR XML) it is
    the 1-based record ordinal within the document.
    """

    path: str
    line_number: int
    parser: str
    reason: str
    excerpt: str = ""


class ErrorSink:
    """Per-file error collector enforcing one :class:`ErrorPolicy`.

    Created by the pipeline for each ``parse_file`` call and handed to
    the parser; the caller keeps the reference so the collected errors
    are available even when the parse raises (budget exhaustion,
    unsalvageable file).  ``damaged`` counts the file's damaged lines
    against the budget — a parse resumed from a cursor starts it at the
    count the file's earlier parses reached.
    """

    __slots__ = ("policy", "path", "parser_name", "errors", "damaged")

    def __init__(self, policy: ErrorPolicy, path: str, parser_name: str) -> None:
        self.policy = policy
        self.path = path
        self.parser_name = parser_name
        self.errors: list[IngestError] = []
        self.damaged = 0

    def line_error(
        self, message: str, line_number: int | None, raw: str = ""
    ) -> None:
        """Report one damaged line/record.

        Raises :class:`ParseError` under ``fail-fast`` (exactly the
        historical exception) and :class:`ErrorBudgetExceeded` when a
        lenient policy's per-file budget runs out; otherwise records
        the damage and returns so the parser can continue.
        """
        if not self.policy.lenient:
            raise ParseError(message, path=self.path, line_number=line_number)
        self.errors.append(
            IngestError(
                path=self.path,
                line_number=line_number or 0,
                parser=self.parser_name,
                reason=message,
                excerpt=raw[:_EXCERPT_LIMIT],
            )
        )
        self.damaged += 1
        budget = self.policy.budget
        if budget is not None and self.damaged > budget:
            raise ErrorBudgetExceeded(
                f"error budget of {budget} damaged records exhausted",
                path=self.path,
            )

    def file_error(self, message: str, excerpt: str = "") -> IngestError:
        """Record a file-level failure (never raises)."""
        error = IngestError(
            path=self.path,
            line_number=0,
            parser=self.parser_name,
            reason=message,
            excerpt=excerpt[:_EXCERPT_LIMIT],
        )
        self.errors.append(error)
        return error

    def __len__(self) -> int:
        return len(self.errors)
