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
            record = LogRecord()
            record.set("tier", "apache")
            url = match.group("url")
            interaction = _INTERACTION_RE.search(url)
            if interaction:
                record.set("interaction", interaction.group(1))
            record.set("status", match.group("status"))
            if match.group("bytes") != "-":
                record.set("response_bytes", match.group("bytes"))
            if match.group("ua") is not None:
                record.set("upstream_arrival_us", match.group("ua"))
                record.set("upstream_departure_us", match.group("ud"))
                if match.group("ds") != "-":
                    record.set("downstream_sending_us", match.group("ds"))
                if match.group("dr") != "-":
                    record.set("downstream_receiving_us", match.group("dr"))
                record.set("timestamp_us", match.group("ua"))
            else:
                record.set("timestamp_us", str(clf_to_epoch_us(match.group("clf"))))
            self.apply_token_rules(line, record)
            document.append(record)
        return document
