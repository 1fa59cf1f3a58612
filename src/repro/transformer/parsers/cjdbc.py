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
            _, _, req, ua, ds, dr, ud = match.groups()
            fields = {
                "tier": "cjdbc",
                "request_id": req,
                "upstream_arrival_us": ua,
                "upstream_departure_us": ud,
            }
            if ds != "-":
                fields["downstream_sending_us"] = ds
            if dr != "-":
                fields["downstream_receiving_us"] = dr
            fields["timestamp_us"] = ua
            self.apply_token_rules(line, fields)
            document.append(LogRecord.of(fields))
        return document
