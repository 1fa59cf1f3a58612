"""The IOstat mScopeParser (blank-line-separated device blocks)."""

from __future__ import annotations

import re

from repro.common.errors import ParseError
from repro.transformer.parsers.base import MScopeParser, register_parser
from repro.transformer.timestamps import wall_to_epoch_us
from repro.transformer.xmlmodel import LogRecord, sanitize_tag

__all__ = ["IostatParser"]

_TIMESTAMP_RE = re.compile(
    r"^(?P<date>\d{2}/\d{2}/\d{4}) (?P<time>\d{2}:\d{2}:\d{2}(?:\.\d{1,3})?)$"
)


def _column_tag(token: str) -> str:
    if token.startswith("%"):
        return sanitize_tag(token[1:] + "_pct")
    return sanitize_tag(token)


@register_parser
class IostatParser(MScopeParser):
    """Block-structured parser for ``iostat -dxt`` reports."""

    name = "iostat"
    resumable = True

    def parse_lines(self, lines, source):
        document = self.new_document(source)
        timestamp_us: int | None
        columns: list[str] | None
        timestamp_us, columns = self.carried or (None, None)
        for number, line in enumerate(lines, start=self.first_line):
            stripped = line.strip()
            if not stripped:
                # Blank line: block separator.
                timestamp_us = None
                continue
            match = _TIMESTAMP_RE.match(stripped)
            if match:
                try:
                    timestamp_us = wall_to_epoch_us(
                        match.group("date"), match.group("time")
                    )
                except ParseError as exc:
                    # Strict parses keep the original exception; under
                    # a lenient policy the damaged block header costs
                    # its block, not the file.
                    if not self.lenient:
                        raise
                    self.bad_line(
                        str(exc), source=source, line_number=number, raw=line
                    )
                continue
            if stripped.startswith("Device:"):
                try:
                    columns = [_column_tag(t) for t in stripped.split()[1:]]
                except ParseError as exc:
                    if not self.lenient:
                        raise
                    self.bad_line(
                        str(exc), source=source, line_number=number, raw=line
                    )
                continue
            if timestamp_us is None or columns is None:
                self.bad_line(
                    f"device row outside a block: {line!r}",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            tokens = stripped.split()
            if len(tokens) != len(columns) + 1:
                self.bad_line(
                    f"device row has {len(tokens) - 1} values for "
                    f"{len(columns)} columns",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            fields = {"timestamp_us": str(timestamp_us), "device": tokens[0]}
            fields.update(zip(columns, tokens[1:]))
            self.apply_token_rules(line, fields)
            document.append(LogRecord.of(fields))
        self.carried = (timestamp_us, columns)
        return document
