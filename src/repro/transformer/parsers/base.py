"""mScopeParser base class and registry.

A parser turns one raw monitor log into an
:class:`~repro.transformer.xmlmodel.XmlDocument`.  Its behaviour is
governed by the :class:`~repro.transformer.declaration.ParserBinding`
it was constructed with — in particular the regex-token rules, which
let the declaration stage inject extra semantics (e.g. where the
request ID hides) without touching parser code.

Every parse runs one reader over the file's bytes.  A batch
:meth:`MScopeParser.parse_file` reads from byte 0 to the end of the
file; a live :meth:`MScopeParser.resume` reads from a
:class:`ParseCursor` — the byte offset, line number, counts and
cross-line state where the previous parse of the same file stopped —
and parses only the complete (newline-terminated) lines appended since.
"""

from __future__ import annotations

import dataclasses
import os
import re
import time
from pathlib import Path
from typing import Any, Iterable, Iterator, Type

from repro.common.errors import DeclarationError, ParseError
from repro.transformer.declaration import (
    RULE_REGEX_TOKEN,
    ParserBinding,
    compile_pattern,
)
from repro.transformer.errorpolicy import ErrorSink
from repro.transformer.xmlmodel import XmlDocument, is_valid_tag

__all__ = [
    "MScopeParser",
    "ParseCursor",
    "START",
    "unchanged_since",
    "register_parser",
    "create_parser",
    "registered_parsers",
]

_PARSER_REGISTRY: dict[str, Type["MScopeParser"]] = {}

#: Bytes read per block; lines are cut at the block's last newline.
_BLOCK = 1 << 16

#: Bytes kept before a cursor's offset to recognise a rewritten file.
_TAIL = 64

#: How much older than the moment it was taken a file's mtime and ctime
#: must be before its stat alone can vouch that the file is unchanged:
#: a write within the same tick leaves size and times as they were (the
#: racy-git rule).
_SETTLED_NS = 1_000_000_000


def register_parser(cls: Type["MScopeParser"]) -> Type["MScopeParser"]:
    """Class decorator adding a parser to the registry by its ``name``."""
    if not cls.name:
        raise DeclarationError(f"{cls.__name__} has no parser name")
    if cls.name in _PARSER_REGISTRY:
        raise DeclarationError(f"duplicate parser name {cls.name!r}")
    _PARSER_REGISTRY[cls.name] = cls
    return cls


def registered_parsers() -> list[str]:
    """Names of all registered parsers."""
    return sorted(_PARSER_REGISTRY)


def create_parser(binding: ParserBinding) -> "MScopeParser":
    """Instantiate the parser a binding names."""
    try:
        cls = _PARSER_REGISTRY[binding.parser_name]
    except KeyError:
        raise DeclarationError(
            f"no parser registered under {binding.parser_name!r}"
        ) from None
    return cls(binding)


@dataclasses.dataclass(frozen=True, slots=True)
class ParseCursor:
    """Where a parse of one log file stopped.

    ``offset`` is the bytes consumed — always just after a newline for
    a live parse, which leaves a torn last line for the next one.
    ``line`` is the next line's 1-based number, so damaged lines keep
    the numbers a batch parse gives them; ``records`` and ``damaged``
    count what the file yielded so far (a lenient error budget is per
    file, not per delta); ``carried`` is the parser's cross-line state.
    ``file_id`` (``st_dev``, ``st_ino``) and ``tail`` (up to 64 bytes
    before ``offset``) recognise a file rewritten since.  ``stat`` is
    the file's ``(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)``
    as it was read, kept only when its mtime and ctime were at least
    1 s old then: a file that still stats the same has not changed, and
    is not opened (``utime`` can set an mtime back, never a ctime).  It
    does not take part in equality — a cursor that only learned its
    file's stat has not moved.
    """

    offset: int = 0
    line: int = 1
    records: int = 0
    damaged: int = 0
    carried: Any = None
    file_id: tuple[int, int] | None = None
    tail: bytes = b""
    stat: tuple[int, int, int, int, int] | None = dataclasses.field(
        default=None, compare=False
    )


#: The cursor of a file nothing has been parsed from.
START = ParseCursor()


def _stat_key(stat: os.stat_result) -> tuple[int, int, int, int, int]:
    """What :attr:`ParseCursor.stat` compares of a file's stat."""
    return (
        stat.st_dev, stat.st_ino, stat.st_size,
        stat.st_mtime_ns, stat.st_ctime_ns,
    )


def unchanged_since(path: Path | str, cursor: ParseCursor) -> bool:
    """Whether ``path`` still stats as ``cursor``'s settled ``stat``: a
    file that does has nothing new and need not be opened."""
    if cursor.stat is None:
        return False
    try:
        stat = os.stat(path)
    except OSError:
        return False  # opening it reports it
    return _stat_key(stat) == cursor.stat


def _settled_stat(stat: os.stat_result, taken_ns: int):
    """:attr:`ParseCursor.stat` for a file stat'ed at ``taken_ns``."""
    if taken_ns - max(stat.st_mtime_ns, stat.st_ctime_ns) < _SETTLED_NS:
        return None
    return _stat_key(stat)


class _LineReader:
    """Decoded lines from a file descriptor, counted as they are cut.

    Reads blocks, cuts each at its last newline and yields the lines
    before the cut, translating ``\\r\\n`` and a bare ``\\r`` to line
    breaks as text-mode reading does.  A final unterminated line is
    yielded only when ``final`` (the file is finished); otherwise it
    waits for its newline.  ``consumed``, ``lines`` and ``tail`` account
    for what was yielded.
    """

    __slots__ = ("_fd", "_errors", "_final", "consumed", "lines", "tail")

    def __init__(self, fd: int, errors: str, final: bool, tail: bytes) -> None:
        self._fd = fd
        self._errors = errors
        self._final = final
        self.consumed = 0
        self.lines = 0
        self.tail = tail

    def _cut(self, data: bytes) -> list[str]:
        text = data.decode("utf-8", self._errors)
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        self.consumed += len(data)
        self.lines += len(lines)
        self.tail = (self.tail + data[-_TAIL:])[-_TAIL:]
        return lines

    def __iter__(self) -> Iterator[str]:
        pending = b""
        while block := os.read(self._fd, _BLOCK):
            if pending:
                block = pending + block
            cut = block.rfind(b"\n") + 1
            if not cut:
                pending = block
                continue
            pending = block[cut:]
            yield from self._cut(block[:cut] if pending else block)
        if pending and self._final:
            yield from self._cut(pending)


class MScopeParser:
    """Base class: common file handling plus regex-token rule support.

    A subclass implements :meth:`parse_lines`.  To be resumable from a
    :class:`ParseCursor` it sets ``resumable = True``, numbers its lines
    from :attr:`first_line`, and keeps any state that crosses lines in
    :attr:`carried` — read at the start of :meth:`parse_lines`, written
    back before it returns.  Both are set for one parse and reset
    afterwards, like the error sink: one instance serves every file.
    """

    #: Registry name; subclasses must set it.
    name = ""

    #: Whether :meth:`resume` may continue from a byte cursor.  A parser
    #: that leaves this ``False`` is re-run over the whole file instead
    #: (always correct, never flat-cost).
    resumable = False

    def __init__(self, binding: ParserBinding) -> None:
        self.binding = binding
        self._sink: ErrorSink | None = None
        #: Number of the first line :meth:`parse_lines` receives.
        self.first_line = 1
        #: Cross-line state carried in from the previous parse of the
        #: file (``None`` at its start) and out to the next one.
        self.carried: Any = None
        #: ``(tag, pattern, group)``: the tag is checked here, once, so
        #: the parse writes it into each record's fields unchecked.
        self._token_rules: list[tuple[str, re.Pattern[str], int]] = []
        for rule in binding.rules:
            if rule.kind == RULE_REGEX_TOKEN:
                tag = rule.params.get("tag")
                pattern = rule.params.get("pattern")
                if not tag or not pattern:
                    raise DeclarationError(
                        "regex_token rule needs 'tag' and 'pattern'"
                    )
                if not is_valid_tag(tag):
                    raise DeclarationError(f"invalid regex_token tag {tag!r}")
                compiled = compile_pattern(pattern)
                self._token_rules.append((tag, compiled, min(compiled.groups, 1)))

    # ------------------------------------------------------------------

    def parse_file(
        self,
        path: Path | str,
        sink: ErrorSink | None = None,
        span=None,
    ) -> XmlDocument:
        """Parse a finished log file from disk, streaming it in blocks.

        The file is never materialized whole: the parser consumes a
        lazy line iterator, so memory stays bounded by the output
        records rather than the input file size.  An unterminated last
        line is parsed too — the file is finished.

        ``sink`` threads an ingestion error policy through the parse:
        damaged lines reported via :meth:`bad_line` are recorded there
        instead of raising when the policy is lenient.  Without a sink
        the parser behaves fail-fast, exactly as before.  Lenient
        parses also decode with ``errors="replace"`` so encoding
        garbage surfaces as unparsable text (one recorded error per
        damaged line) rather than a ``UnicodeDecodeError``.

        ``span`` is an optional telemetry stage span; the parser — the
        authority on what it actually consumed and produced — credits
        it with the bytes read and the records parsed.
        """
        source = os.fspath(path)
        try:
            fd = os.open(source, os.O_RDONLY)
            try:
                document, cursor = self._read(fd, START, sink, source, final=True)
            finally:
                os.close(fd)
        except OSError as exc:
            raise ParseError(f"cannot read log: {exc}", path=source) from exc
        if span is not None:
            span.add(records=len(document.records), bytes=cursor.offset)
        return document

    def resume(
        self,
        path: Path | str,
        cursor: ParseCursor,
        sink: ErrorSink | None = None,
        span=None,
    ) -> tuple[XmlDocument, ParseCursor]:
        """Parse what was appended to ``path`` since ``cursor``.

        Returns the records beyond ``cursor.records`` and the advanced
        cursor.  A file whose stat still equals the cursor's settled
        ``stat`` is not even opened.  A file that is still the one
        ``cursor`` stopped in and ends at its offset has nothing new
        either: it yields no records and the same cursor (which learns
        the file's stat once it settles) without being parsed, whatever
        the parser.
        Otherwise a resumable parser reads on from the cursor's offset
        with its carried state and stops at the last newline.  It
        restarts from byte 0 with fresh state when the file was
        rewritten (another inode, shorter than the offset, or different
        bytes just before it); a parser that is not resumable always
        restarts and reads to the end.  A restart that yields fewer
        records than ``cursor.records`` raises :class:`ParseError`
        (truncated or rotated) rather than silently yielding nothing.

        ``span`` is credited with the bytes parsed; the records are the
        caller's to credit (what lands may be sampled).
        """
        source = os.fspath(path)
        if unchanged_since(source, cursor):
            return self.new_document(source), cursor
        try:
            # A bare descriptor: a delta of a few lines costs a few
            # syscalls, not a buffered file object's set-up.
            fd = os.open(source, os.O_RDONLY)
            try:
                taken_ns = time.time_ns()
                stat = os.fstat(fd)
                size = self._size_if_same(fd, stat, cursor)
                if size == cursor.offset:
                    settled = _settled_stat(stat, taken_ns)
                    if settled != cursor.stat:
                        cursor = dataclasses.replace(cursor, stat=settled)
                    return self.new_document(source), cursor
                resumes = size is not None and self.resumable
                start = cursor if resumes else START
                document, after = self._read(
                    fd,
                    start,
                    sink,
                    source,
                    final=not self.resumable,
                    stat=stat,
                    taken_ns=taken_ns,
                )
            finally:
                os.close(fd)
        except OSError as exc:
            raise ParseError(f"cannot read log: {exc}", path=source) from exc
        if start is START and cursor.records:
            if after.records < cursor.records:
                raise ParseError(
                    f"{after.records} records < {cursor.records} already "
                    "imported: truncated or rotated?",
                    path=source,
                )
            del document.records[: cursor.records]
        if span is not None:
            span.add(bytes=after.offset - start.offset)
        return document, after

    @staticmethod
    def _size_if_same(
        fd: int, stat: os.stat_result, cursor: ParseCursor
    ) -> int | None:
        """``fd``'s size (``stat`` is its fstat) when it is the file
        ``cursor`` stopped in, grown or not; ``None`` when it was
        rewritten since."""
        if cursor.file_id is None:
            return None
        replaced = (stat.st_dev, stat.st_ino) != cursor.file_id
        if replaced or stat.st_size < cursor.offset:
            return None
        os.lseek(fd, cursor.offset - len(cursor.tail), os.SEEK_SET)
        if os.read(fd, len(cursor.tail)) != cursor.tail:
            return None
        return stat.st_size

    def _read(
        self,
        fd: int,
        start: ParseCursor,
        sink: ErrorSink | None,
        source: str,
        final: bool,
        stat: os.stat_result | None = None,
        taken_ns: int = 0,
    ) -> tuple[XmlDocument, ParseCursor]:
        """The one parse loop: :meth:`parse_lines` over the lines from
        ``start``, with the sink, line number and carried state set on
        the instance for this parse only.  ``stat`` is ``fd``'s fstat
        taken at ``taken_ns`` before any byte was read (made here when
        not given)."""
        if stat is None:
            taken_ns = time.time_ns()
            stat = os.fstat(fd)
        lenient = sink is not None and sink.policy.lenient
        os.lseek(fd, start.offset, os.SEEK_SET)
        reader = _LineReader(
            fd, "replace" if lenient else "strict", final, start.tail
        )
        self._sink = sink
        self.first_line = start.line
        self.carried = start.carried
        if sink is not None:
            sink.damaged = start.damaged
        try:
            document = self.parse_lines(reader, source=source)
            carried = self.carried
        finally:
            self._sink = None
            self.first_line = 1
            self.carried = None
        return document, ParseCursor(
            offset=start.offset + reader.consumed,
            line=start.line + reader.lines,
            records=start.records + len(document.records),
            damaged=sink.damaged if sink is not None else 0,
            carried=carried,
            file_id=(stat.st_dev, stat.st_ino),
            tail=reader.tail,
            stat=_settled_stat(stat, taken_ns),
        )

    def parse_lines(self, lines: Iterable[str], source: str) -> XmlDocument:
        """Parse already-split log lines."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def bad_line(
        self,
        message: str,
        *,
        source: str,
        line_number: int | None = None,
        raw: str = "",
    ) -> None:
        """Report one damaged line and return so the caller can skip it.

        Under a fail-fast policy (or when parsing outside the pipeline,
        with no sink attached) this raises :class:`ParseError` exactly
        as the parsers historically did; under a lenient policy the
        damage is recorded in the active :class:`ErrorSink` (which
        raises :class:`~repro.transformer.errorpolicy.ErrorBudgetExceeded`
        once the file's budget runs out).
        """
        if self._sink is None:
            raise ParseError(message, path=source, line_number=line_number)
        self._sink.line_error(message, line_number, raw)

    @property
    def lenient(self) -> bool:
        """Whether the active parse records damage instead of raising."""
        return self._sink is not None and self._sink.policy.lenient

    def new_document(self, source: str) -> XmlDocument:
        """An empty document labeled with this binding's monitor."""
        return XmlDocument(monitor=self.binding.monitor, source=source)

    def apply_token_rules(self, line: str, fields: dict[str, str]) -> None:
        """Extract every declared regex token from ``line`` into the
        ``fields`` of the record being built."""
        for tag, pattern, group in self._token_rules:
            match = pattern.search(line)
            if match:
                fields[tag] = match.group(group)
