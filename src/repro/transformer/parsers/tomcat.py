"""The Tomcat mScopeParser (self-describing key=value lines)."""

from __future__ import annotations

import re

from repro.transformer.parsers.base import MScopeParser, register_parser
from repro.transformer.xmlmodel import LogRecord

__all__ = ["TomcatMScopeParser"]

_KV_RE = re.compile(r"(\w+)=(\S+)")

#: key → normalized tag for the instrumented fields.
_FIELD_TAGS = {
    "servlet": "interaction",
    "ID": "request_id",
    "UA": "upstream_arrival_us",
    "DS": "downstream_sending_us",
    "DR": "downstream_receiving_us",
    "UD": "upstream_departure_us",
    "queries": "query_count",
}


@register_parser
class TomcatMScopeParser(MScopeParser):
    """Parses the bracketed key=value lines of the Tomcat mScopeMonitor.

    Lines that carry no instrumented fields (stock Tomcat INFO lines)
    are skipped — the unmodified server's chatter is not measurement
    data.
    """

    name = "tomcat"
    resumable = True

    #: Instrumented fields that must be epoch microseconds (or ``-``
    #: for the optional downstream pair) on an undamaged line.
    _NUMERIC = ("UA", "DS", "DR", "UD", "queries")

    def _damage(self, fields: dict[str, str]) -> str | None:
        """Why an instrumented line is damaged, or ``None`` if intact.

        A line carrying the mScope ``ID=`` marker must also carry the
        upstream boundary pair; a torn concurrent write loses fields
        or garbles the numeric timestamps, and silently dropping such
        a record would be undetected data loss.
        """
        for key in ("UA", "UD"):
            if key not in fields:
                return f"instrumented line missing {key}="
        for key in self._NUMERIC:
            value = fields.get(key)
            if value is not None and value != "-" and not value.isdigit():
                return f"non-numeric {key}={value!r}"
        return None

    def parse_lines(self, lines, source):
        document = self.new_document(source)
        for number, line in enumerate(lines, start=self.first_line):
            if not line.strip():
                continue
            fields = dict(_KV_RE.findall(line))
            if "ID" not in fields:
                # Stock Tomcat chatter — not measurement data.
                continue
            damage = self._damage(fields)
            if damage is not None:
                self.bad_line(
                    f"{damage}: {line!r}",
                    source=source,
                    line_number=number,
                    raw=line,
                )
                continue
            tags = {"tier": "tomcat"}
            for key, tag in _FIELD_TAGS.items():
                value = fields.get(key)
                if value is not None and value != "-":
                    tags[tag] = value
            tags["timestamp_us"] = fields["UA"]
            self.apply_token_rules(line, tags)
            document.append(LogRecord.of(tags))
        return document
