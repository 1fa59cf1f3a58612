"""The MySQL mScopeParser.

Parses the tab-separated query-log lines of the MySQL mScopeMonitor and
recovers the propagated request ID from the ``/*ID=...*/`` SQL comment
via the declaration's regex-token rule (the paper's Appendix A flow in
reverse).
"""

from __future__ import annotations

from repro.transformer.parsers.base import MScopeParser, register_parser
from repro.transformer.xmlmodel import LogRecord

__all__ = ["MySqlMScopeParser"]


@register_parser
class MySqlMScopeParser(MScopeParser):
    """Parses instrumented MySQL query-log lines; skips binlog notes."""

    name = "mysql"
    resumable = True

    def parse_lines(self, lines, source):
        document = self.new_document(source)
        for number, line in enumerate(lines, start=self.first_line):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) < 2 or parts[1] != "Query":
                # Stock binlog "Xid = N" notes and other chatter.
                continue
            if len(parts) != 5:
                self.bad_line(
                    f"malformed query-log line: {line!r}",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            _stamp, _kind, arrival, departure, statement = parts
            if not arrival.isdigit() or not departure.isdigit():
                self.bad_line(
                    f"non-numeric boundary timestamps: {line!r}",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            fields = {
                "tier": "mysql",
                "upstream_arrival_us": arrival,
                "upstream_departure_us": departure,
                "timestamp_us": arrival,
                "statement": statement.split(" /*")[0],
            }
            self.apply_token_rules(line, fields)
            document.append(LogRecord.of(fields))
        return document
