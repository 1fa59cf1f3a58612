"""The semi-structured intermediate representation.

The mScopeParsers "enrich" raw monitor logs by wrapping each logical
record in XML tags (Section III-B).  A parsed file becomes an
:class:`XmlDocument` — an ordered list of :class:`LogRecord` entries,
each a mapping of tag name to string value — which can be written to a
real ``.xml`` file and read back, keeping the pipeline's stages honest
(the converter sees only the XML, never the parser's internals).
"""

from __future__ import annotations

import functools
import re
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Iterator, Mapping
from xml.sax.saxutils import escape, quoteattr

from repro.common.errors import ParseError

__all__ = ["LogRecord", "XmlDocument", "is_valid_tag", "sanitize_tag"]

_TAG_CLEAN_RE = re.compile(r"[^A-Za-z0-9_]")
_TAG_OK_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: Tag names that already passed ``_TAG_OK_RE``, so :meth:`LogRecord.set`
#: checks each distinct name once; past the cap, names are checked on
#: every call.
_VALID_TAGS: set[str] = set()
_VALID_TAGS_MAX = 4096

# Code points XML 1.0 cannot carry at all, escaped or not: C0 controls
# (minus tab/newline/CR), surrogates, and the two non-characters.  Raw
# bytes from a damaged log can reach a record value as such code points
# (they are valid UTF-8), so the writer maps them to U+FFFD to keep the
# artifact readable by :meth:`XmlDocument.read`.
_XML_INVALID_RE = re.compile(
    "[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f"
    "\\ud800-\\udfff\\ufffe\\uffff]"
)


def _xml_text(value: str) -> str:
    return escape(_XML_INVALID_RE.sub("\ufffd", value))


def is_valid_tag(tag: str) -> bool:
    """Whether ``tag`` can name an XML element and a SQL column."""
    return _TAG_OK_RE.match(tag) is not None


@functools.lru_cache(maxsize=1024)
def sanitize_tag(raw: str) -> str:
    """Turn an arbitrary column label into a valid XML tag / SQL column.

    ``[CPU]User%`` → ``cpu_user_pct``; ``%util`` → ``util_pct``.
    Memoised: resource logs repeat the same header on every block.
    """
    name = raw.strip()
    name = name.replace("%", "_pct").replace("/", "_per_")
    name = _TAG_CLEAN_RE.sub("_", name)
    name = re.sub(r"_+", "_", name).strip("_").lower()
    if not name:
        raise ParseError(f"cannot derive a tag name from {raw!r}")
    if not _TAG_OK_RE.match(name):
        name = "f_" + name
    return name


class LogRecord:
    """One enriched log record: an ordered tag → value mapping."""

    __slots__ = ("_fields",)

    def __init__(self, fields: Mapping[str, str] | None = None) -> None:
        self._fields: dict[str, str] = {}
        if fields:
            for tag, value in fields.items():
                self.set(tag, value)

    @classmethod
    def of(cls, fields: dict[str, str]) -> "LogRecord":
        """A record that takes ownership of ``fields`` as they are.

        For callers whose tags are valid by construction — the parsers
        use literal or :func:`sanitize_tag` names, and check declared
        regex-token tags when they bind — and whose values are ``str``:
        nothing is checked or copied.
        """
        record = cls.__new__(cls)
        record._fields = fields
        return record

    def set(self, tag: str, value) -> None:
        """Set one field (tag must already be sanitized)."""
        if tag not in _VALID_TAGS:
            if not _TAG_OK_RE.match(tag):
                raise ParseError(f"invalid tag name {tag!r}")
            if len(_VALID_TAGS) < _VALID_TAGS_MAX:
                _VALID_TAGS.add(tag)
        self._fields[tag] = value if isinstance(value, str) else str(value)

    def get(self, tag: str, default: str | None = None) -> str | None:
        """Read one field."""
        return self._fields.get(tag, default)

    @property
    def fields(self) -> Mapping[str, str]:
        """The tag → value mapping, in insertion order (read only)."""
        return self._fields

    def items(self) -> Iterator[tuple[str, str]]:
        return iter(self._fields.items())

    def __contains__(self, tag: str) -> bool:
        return tag in self._fields

    def __len__(self) -> int:
        return len(self._fields)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogRecord):
            return NotImplemented
        return self._fields == other._fields

    def __repr__(self) -> str:
        return f"LogRecord({self._fields!r})"


class XmlDocument:
    """An ordered collection of enriched records from one source log."""

    def __init__(self, monitor: str, source: str) -> None:
        self.monitor = monitor
        self.source = source
        self.records: list[LogRecord] = []

    def append(self, record: LogRecord) -> None:
        """Add one record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    # file round trip

    def write(self, path: Path | str) -> Path:
        """Write the document as a real XML file, one record at a time.

        The writer streams records straight to disk instead of
        building a full element tree first, so the artifact's memory
        cost is one record, not one file.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        monitor_attr = quoteattr(_XML_INVALID_RE.sub("\ufffd", self.monitor))
        source_attr = quoteattr(_XML_INVALID_RE.sub("\ufffd", self.source))
        with path.open("w", encoding="utf-8") as handle:
            handle.write("<?xml version='1.0' encoding='utf-8'?>\n")
            handle.write(
                f"<mscope monitor={monitor_attr} source={source_attr}>"
            )
            for record in self.records:
                parts = ["<log>"]
                for tag, value in record.items():
                    parts.append(f"<{tag}>{_xml_text(value)}</{tag}>")
                parts.append("</log>")
                handle.write("".join(parts))
            handle.write("</mscope>")
        return path

    @classmethod
    def read(cls, path: Path | str) -> "XmlDocument":
        """Read a document previously written with :meth:`write`.

        Uses ``iterparse`` so only the record being assembled is held
        as element objects; processed elements are cleared as the
        parse advances.
        """
        path = Path(path)
        doc: XmlDocument | None = None
        root: ET.Element | None = None
        depth = 0
        try:
            for event, element in ET.iterparse(path, events=("start", "end")):
                if event == "start":
                    if depth == 0:
                        if element.tag != "mscope":
                            raise ParseError(
                                f"expected <mscope> root, got <{element.tag}>",
                                path=str(path),
                            )
                        doc = cls(
                            monitor=element.attrib.get("monitor", "unknown"),
                            source=element.attrib.get("source", str(path)),
                        )
                        root = element
                    elif depth == 1 and element.tag != "log":
                        raise ParseError(
                            f"unexpected element <{element.tag}>", path=str(path)
                        )
                    depth += 1
                    continue
                depth -= 1
                if depth == 1:  # closed one <log> record
                    record = LogRecord()
                    for child in element:
                        record.set(
                            child.tag,
                            child.text if child.text is not None else "",
                        )
                    doc.append(record)  # type: ignore[union-attr]
                    root.clear()  # type: ignore[union-attr]
        except ET.ParseError as exc:
            raise ParseError(f"malformed XML: {exc}", path=str(path)) from exc
        if doc is None:
            raise ParseError("empty XML document", path=str(path))
        return doc
