"""The Collectl mScopeParsers (CSV and plain text).

The CSV variant is the paper's "one-pass customized parser" example:
the ``#``-prefixed header row fully determines the schema, so a single
pass suffices — no multi-stage enrichment needed.
"""

from __future__ import annotations

from repro.common.errors import ParseError
from repro.transformer.parsers.base import MScopeParser, register_parser
from repro.transformer.timestamps import wall_to_epoch_us
from repro.transformer.xmlmodel import LogRecord, sanitize_tag

__all__ = ["CollectlCsvParser", "CollectlTextParser"]


@register_parser
class CollectlCsvParser(MScopeParser):
    """One-pass parser for ``collectl -P`` CSV output."""

    name = "collectl_csv"
    resumable = True

    def parse_lines(self, lines, source):
        document = self.new_document(source)
        columns: list[str] | None = self.carried
        for number, line in enumerate(lines, start=self.first_line):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                header = stripped.lstrip("#").split(",")
                if len(header) < 3 or header[0] != "Date" or header[1] != "Time":
                    self.bad_line(
                        f"unexpected collectl header: {line!r}",
                        source=source,
                        line_number=number,
                        raw=line,
                    )
                    continue
                try:
                    columns = [sanitize_tag(h) for h in header[2:]]
                except ParseError as exc:
                    # Strict parses keep the original exception; a
                    # lenient parse records the damaged header and
                    # waits for the next (possibly repeated) one.
                    if not self.lenient:
                        raise
                    self.bad_line(
                        str(exc), source=source, line_number=number, raw=line
                    )
                continue
            if columns is None:
                self.bad_line(
                    "collectl data before header",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            values = stripped.split(",")
            if len(values) != len(columns) + 2:
                self.bad_line(
                    f"collectl row has {len(values) - 2} values for "
                    f"{len(columns)} columns",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            try:
                timestamp_us = wall_to_epoch_us(values[0], values[1])
            except ParseError as exc:
                if not self.lenient:
                    raise
                self.bad_line(
                    str(exc), source=source, line_number=number, raw=line
                )
                continue
            fields = {"timestamp_us": str(timestamp_us)}
            fields.update(zip(columns, values[2:]))
            self.apply_token_rules(line, fields)
            document.append(LogRecord.of(fields))
        self.carried = columns
        return document


@register_parser
class CollectlTextParser(MScopeParser):
    """Parser for the interactive text display (``collectl -scdm``).

    The text format omits the date, so the declaration must supply it
    through a regex-token rule... it does not: instead the paper's
    convention applies — text-mode Collectl is only used for live
    inspection.  This parser accepts a ``base_date`` in the binding's
    first line-sequence rule, defaulting to the epoch date used by the
    standard experiments.
    """

    name = "collectl_text"
    resumable = True

    _DEFAULT_DATE = "2017-03-01"

    def parse_lines(self, lines, source):
        base_date = self._DEFAULT_DATE
        for rule in self.binding.rules:
            candidate = rule.params.get("base_date")
            if candidate:
                base_date = candidate
        document = self.new_document(source)
        columns: list[str] | None = self.carried
        for number, line in enumerate(lines, start=self.first_line):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                header = stripped.lstrip("#").split()
                if not header or header[0] != "Time":
                    self.bad_line(
                        f"unexpected collectl text header: {line!r}",
                        source=source,
                        line_number=number,
                        raw=line,
                    )
                    continue
                try:
                    columns = [sanitize_tag(h) for h in header[1:]]
                except ParseError as exc:
                    if not self.lenient:
                        raise
                    self.bad_line(
                        str(exc), source=source, line_number=number, raw=line
                    )
                continue
            if columns is None:
                self.bad_line(
                    "collectl text data before header",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            tokens = stripped.split()
            if len(tokens) != len(columns) + 1:
                self.bad_line(
                    f"collectl text row has {len(tokens) - 1} values for "
                    f"{len(columns)} columns",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            try:
                timestamp_us = wall_to_epoch_us(base_date, tokens[0])
            except ParseError as exc:
                if not self.lenient:
                    raise
                self.bad_line(
                    str(exc), source=source, line_number=number, raw=line
                )
                continue
            fields = {"timestamp_us": str(timestamp_us)}
            fields.update(zip(columns, tokens[1:]))
            document.append(LogRecord.of(fields))
        self.carried = columns
        return document
