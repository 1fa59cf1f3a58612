"""The SAR XML adapter.

After the authors upgraded SAR, it emitted XML directly and the custom
text parser became unnecessary (Section III-B-2).  This adapter
normalizes the ``sadf -x`` document into the pipeline's record model —
structurally it is the identity step the paper describes, feeding the
XML-to-CSV converter without bespoke parsing logic.

The document is consumed through an incremental pull parser, which
buys the error policies record granularity on a format that is only
well-formed once the writer closes it: under a lenient policy a
mid-write truncation salvages every complete record before the damage
(one file-level ingest error records the lost tail), and a
``<timestamp>`` element missing its date/time attributes costs that
record group alone, not the file.  Fail-fast behaviour is unchanged —
any damage raises :class:`~repro.common.errors.ParseError`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.common.errors import ParseError
from repro.transformer.parsers.base import MScopeParser, register_parser
from repro.transformer.timestamps import wall_to_epoch_us
from repro.transformer.xmlmodel import LogRecord, sanitize_tag

__all__ = ["SarXmlAdapter"]


class _BadRoot(Exception):
    """Internal: the document's root element is not ``<sysstat>``."""


@register_parser
class SarXmlAdapter(MScopeParser):
    """Ingests ``sadf -x`` style XML output."""

    name = "sar_xml"

    def parse_lines(self, lines, source):
        document = self.new_document(source)
        parser = ET.XMLPullParser(events=("start", "end"))
        state = _SalvageState()
        try:
            for line in lines:
                parser.feed(line)
                parser.feed("\n")
                self._drain(parser, document, state, source)
            parser.close()
            self._drain(parser, document, state, source)
        except _BadRoot as exc:
            message = str(exc)
            if not self.lenient:
                raise ParseError(message, path=source) from None
            self._sink.file_error(message)
            return document
        except ET.ParseError as exc:
            if not self.lenient:
                raise ParseError(
                    f"malformed SAR XML: {exc}", path=source
                ) from exc
            self._sink.file_error(
                f"malformed SAR XML (salvaged {len(document)} records): {exc}"
            )
            return document
        return document

    def _drain(self, parser, document, state, source) -> None:
        """Turn buffered pull-parser events into records."""
        for event, element in parser.read_events():
            if event == "start":
                self._on_start(element, document, state, source)
            elif element.tag == "timestamp":
                # The subtree is fully converted; free its elements so
                # a long monitoring session stays bounded in memory.
                element.clear()

    def _on_start(self, element, document, state, source) -> None:
        if not state.saw_root:
            state.saw_root = True
            if element.tag != "sysstat":
                raise _BadRoot(
                    f"expected <sysstat> root, got <{element.tag}>"
                )
            return
        if element.tag == "host":
            state.hostname = element.attrib.get("nodename", "")
        elif element.tag == "timestamp":
            state.ordinal += 1
            state.date = element.attrib.get("date")
            state.time = element.attrib.get("time")
            if not state.date or not state.time:
                state.date = state.time = None
                self.bad_line(
                    "timestamp element missing date/time",
                    source=source,
                    line_number=state.ordinal,
                    raw=_excerpt(element),
                )
        elif element.tag == "cpu":
            if state.date is None or state.time is None:
                # Inside a damaged <timestamp>; already reported.
                return
            try:
                fields = {
                    "timestamp_us": str(wall_to_epoch_us(state.date, state.time))
                }
                for attr, value in element.attrib.items():
                    if attr == "number":
                        fields["cpu"] = value
                    else:
                        fields[sanitize_tag(attr + "_pct")] = value
            except ParseError as exc:
                # Garbled attribute text: this record alone is damaged.
                if not self.lenient:
                    raise
                self.bad_line(
                    str(exc),
                    source=source,
                    line_number=state.ordinal,
                    raw=_excerpt(element),
                )
                return
            if state.hostname:
                fields["hostname"] = state.hostname
            document.append(LogRecord.of(fields))


class _SalvageState:
    """Mutable cursor over the document structure during the pull parse."""

    __slots__ = ("saw_root", "hostname", "date", "time", "ordinal")

    def __init__(self) -> None:
        self.saw_root = False
        self.hostname = ""
        self.date: str | None = None
        self.time: str | None = None
        #: 1-based ``<timestamp>`` ordinal — the "line number" recorded
        #: for record-level errors in this line-less format.
        self.ordinal = 0


def _excerpt(element) -> str:
    attrs = " ".join(f'{k}="{v}"' for k, v in element.attrib.items())
    return f"<{element.tag} {attrs}>" if attrs else f"<{element.tag}>"
