"""The customized SAR mScopeParser (text reports).

The paper built this parser because neither of the generic instruction
mechanisms could untangle classic SAR output: a banner carrying the
report *date* (the rows only have times), headers that repeat
mid-file, blank separator lines, and a trailing ``Average:`` row that
is a summary, not a sample.  The parser is stateful over the line
sequence — exactly the ``line_sequence`` enrichment style.
"""

from __future__ import annotations

import re

from repro.common.errors import ParseError
from repro.transformer.parsers.base import MScopeParser, register_parser
from repro.transformer.timestamps import compact_date_to_iso, wall_to_epoch_us
from repro.transformer.xmlmodel import LogRecord, sanitize_tag

__all__ = ["SarTextParser"]

_BANNER_RE = re.compile(
    r"^Linux \S+ \((?P<host>[^)]+)\)\s+(?P<date>\d{2}/\d{2}/\d{4})"
)
_TIME_RE = re.compile(r"^\d{2}:\d{2}:\d{2}(?:\.\d{1,3})?$")


def _column_tag(token: str) -> str:
    """SAR header token → tag (``%user`` → ``user_pct``)."""
    if token.startswith("%"):
        return sanitize_tag(token[1:] + "_pct")
    return sanitize_tag(token)


@register_parser
class SarTextParser(MScopeParser):
    """Stateful parser for classic ``sar -u`` text reports."""

    name = "sar_text"
    resumable = True

    def parse_lines(self, lines, source):
        document = self.new_document(source)
        report_date: str | None
        hostname: str | None
        columns: list[str] | None
        report_date, hostname, columns = self.carried or (None, None, None)
        for number, line in enumerate(lines, start=self.first_line):
            stripped = line.strip()
            if not stripped:
                continue
            banner = _BANNER_RE.match(line)
            if banner:
                report_date = compact_date_to_iso(banner.group("date"))
                hostname = banner.group("host")
                continue
            if stripped.startswith("Average:"):
                # Trailing summary row — not a sample.
                continue
            tokens = stripped.split()
            if not _TIME_RE.match(tokens[0]):
                self.bad_line(
                    f"unexpected SAR line: {line!r}",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            if len(tokens) < 2:
                self.bad_line(
                    f"truncated SAR line: {line!r}",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            if tokens[1] == "CPU":
                # (Possibly repeated) header row defines the columns.
                try:
                    columns = [_column_tag(t) for t in tokens[2:]]
                except ParseError as exc:
                    # Strict parses keep the original exception; under
                    # a lenient policy a damaged header is one error
                    # and the next repeated header can recover.
                    if not self.lenient:
                        raise
                    self.bad_line(
                        str(exc), source=source, line_number=number, raw=line
                    )
                continue
            if columns is None:
                self.bad_line(
                    "SAR data row before any header",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            if report_date is None:
                self.bad_line(
                    "SAR data row before the banner (no report date)",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            values = tokens[2:]
            if len(values) != len(columns):
                self.bad_line(
                    f"SAR row has {len(values)} values for "
                    f"{len(columns)} columns",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            try:
                timestamp_us = wall_to_epoch_us(report_date, tokens[0])
            except ParseError as exc:
                if not self.lenient:
                    raise
                self.bad_line(
                    str(exc), source=source, line_number=number, raw=line
                )
                continue
            fields = {"timestamp_us": str(timestamp_us), "cpu": tokens[1]}
            if hostname:
                fields["hostname"] = hostname
            fields.update(zip(columns, values))
            self.apply_token_rules(line, fields)
            document.append(LogRecord.of(fields))
        self.carried = (report_date, hostname, columns)
        return document
