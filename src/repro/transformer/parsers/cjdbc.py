"""The C-JDBC mScopeParser (log4j-style middleware lines)."""

from __future__ import annotations

import re

from repro.transformer.parsers.base import MScopeParser, register_parser
from repro.transformer.xmlmodel import LogRecord

__all__ = ["CjdbcMScopeParser"]

_LINE_RE = re.compile(
    r"^(?P<date>\d{4}-\d{2}-\d{2}) (?P<time>[\d:,]+) \w+ \S+ "
    r"req=(?P<req>\S+) ua=(?P<ua>\d+) ds=(?P<ds>\S+) dr=(?P<dr>\S+) ud=(?P<ud>\d+)$"
)


@register_parser
class CjdbcMScopeParser(MScopeParser):
    """Parses instrumented C-JDBC controller lines; skips stock lines."""

    name = "cjdbc"
    resumable = True

    def parse_lines(self, lines, source):
        document = self.new_document(source)
        for number, line in enumerate(lines, start=self.first_line):
            match = _LINE_RE.match(line)
            if match is None:
                if " req=" in line:
                    # The mScope marker is present but the boundary
                    # fields do not parse: a torn instrumented line,
                    # not stock C-JDBC chatter.
                    self.bad_line(
                        f"damaged instrumented line: {line!r}",
                        source=source,
                        line_number=number,
                        raw=line,
                    )
                continue
            record = LogRecord()
            record.set("tier", "cjdbc")
            record.set("request_id", match.group("req"))
            record.set("upstream_arrival_us", match.group("ua"))
            record.set("upstream_departure_us", match.group("ud"))
            if match.group("ds") != "-":
                record.set("downstream_sending_us", match.group("ds"))
            if match.group("dr") != "-":
                record.set("downstream_receiving_us", match.group("dr"))
            record.set("timestamp_us", match.group("ua"))
            self.apply_token_rules(line, record)
            document.append(record)
        return document
