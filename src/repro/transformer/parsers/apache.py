"""The Apache mScopeParser.

Handles both the instrumented (mScope) access-log format — with four
trailing epoch-microsecond boundary timestamps — and the stock format
without them, so logs from uninstrumented runs still load (with fewer
columns; the dynamic warehouse schema adapts).
"""

from __future__ import annotations

import re

from repro.transformer.parsers.base import MScopeParser, register_parser
from repro.transformer.timestamps import clf_to_epoch_us
from repro.transformer.xmlmodel import LogRecord

__all__ = ["ApacheMScopeParser"]

_LINE_RE = re.compile(
    r'^(?P<client>\S+) \S+ \S+ \[(?P<clf>[^\]]+)\] '
    r'"(?P<method>[A-Z]+) (?P<url>\S+) HTTP/[\d.]+" '
    r"(?P<status>\d{3}) (?P<bytes>\d+|-)"
    r"(?: (?P<ua>\d+) (?P<ds>\d+|-) (?P<dr>\d+|-) (?P<ud>\d+))?$"
)

_INTERACTION_RE = re.compile(r"/([A-Za-z]+)(?:\?|$)")


@register_parser
class ApacheMScopeParser(MScopeParser):
    """Regex-token parser for Apache access logs."""

    name = "apache"
    resumable = True

    def parse_lines(self, lines, source):
        document = self.new_document(source)
        for number, line in enumerate(lines, start=self.first_line):
            if not line.strip():
                continue
            match = _LINE_RE.match(line)
            if match is None:
                self.bad_line(
                    f"unrecognized access-log line: {line!r}",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            _, clf, _, url, status, size, ua, ds, dr, ud = match.groups()
            fields = {"tier": "apache"}
            interaction = _INTERACTION_RE.search(url)
            if interaction:
                fields["interaction"] = interaction.group(1)
            fields["status"] = status
            if size != "-":
                fields["response_bytes"] = size
            if ua is not None:
                fields["upstream_arrival_us"] = ua
                fields["upstream_departure_us"] = ud
                if ds != "-":
                    fields["downstream_sending_us"] = ds
                if dr != "-":
                    fields["downstream_receiving_us"] = dr
                fields["timestamp_us"] = ua
            else:
                fields["timestamp_us"] = str(clf_to_epoch_us(clf))
            self.apply_token_rules(line, fields)
            document.append(LogRecord.of(fields))
        return document
