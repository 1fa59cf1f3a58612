"""Parsing declarations.

The first transformer stage (Section III-B-1): a declarative mapping
from input log files to the mScopeParser that should handle them, plus
instructions for *how* the parser injects semantics — either by the
sequence of lines in the file (``line_sequence`` rules: banners,
repeated headers, trailers) or by specific string tokens expressed as
regular expressions (``regex_token`` rules).
"""

from __future__ import annotations

import dataclasses
import fnmatch
import functools
import os
import re
from pathlib import Path
from typing import Any

from repro.common.errors import DeclarationError

__all__ = [
    "RULE_LINE_SEQUENCE",
    "RULE_REGEX_TOKEN",
    "ParserRule",
    "ParserBinding",
    "ParsingDeclaration",
    "compile_pattern",
    "default_declaration",
]


@functools.lru_cache(maxsize=None)
def compile_pattern(pattern: str) -> "re.Pattern[str]":
    """Compile (and cache) a declaration regex.

    Declarations name the same handful of patterns for every file and
    every parser instance; caching the compiled objects means rule
    validation and parser construction never recompile them.
    """
    return re.compile(pattern)

RULE_LINE_SEQUENCE = "line_sequence"
RULE_REGEX_TOKEN = "regex_token"

_RULE_KINDS = (RULE_LINE_SEQUENCE, RULE_REGEX_TOKEN)


@dataclasses.dataclass(frozen=True)
class ParserRule:
    """One instruction for semantic injection.

    ``kind`` selects the mechanism; ``params`` carries its settings
    (e.g. ``{"pattern": r"ID=(\\w+)", "tag": "request_id"}`` for a
    regex-token rule, or ``{"skip_banner_lines": 2}`` for a
    line-sequence rule).
    """

    kind: str
    params: dict[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _RULE_KINDS:
            raise DeclarationError(f"unknown rule kind {self.kind!r}")
        if self.kind == RULE_REGEX_TOKEN and "pattern" in self.params:
            try:
                compile_pattern(self.params["pattern"])
            except re.error as exc:
                raise DeclarationError(
                    f"invalid regex {self.params['pattern']!r}: {exc}"
                ) from exc


@dataclasses.dataclass(frozen=True)
class ParserBinding:
    """Associates a file-name pattern with a parser and its rules."""

    pattern: str
    parser_name: str
    monitor: str
    rules: tuple[ParserRule, ...] = ()

    def matches(self, path: Path | str) -> bool:
        """Whether this binding covers ``path`` (matched on the name)."""
        return fnmatch.fnmatch(Path(path).name, self.pattern)


class ParsingDeclaration:
    """The full parser-to-log-file mapping for one experiment.

    Bindings are consulted in registration order; the first match
    wins, so more specific patterns should be registered first.
    """

    def __init__(self) -> None:
        self._bindings: list[ParserBinding] = []
        # Bindings match on the file *name*, so resolution is cached
        # per name — a deployment repeats the same dozen log names
        # across every host.
        self._resolve_cache: dict[str, ParserBinding | None] = {}

    def register(self, binding: ParserBinding) -> None:
        """Add one binding."""
        self._bindings.append(binding)
        self._resolve_cache.clear()

    @property
    def bindings(self) -> list[ParserBinding]:
        """All registered bindings, in priority order."""
        return list(self._bindings)

    def resolve(self, path: Path | str) -> ParserBinding:
        """The binding covering ``path``; raises if none matches."""
        binding = self.try_resolve(path)
        if binding is None:
            raise DeclarationError(
                f"no parser declared for {Path(path).name!r}"
            )
        return binding

    def try_resolve(self, path: Path | str) -> ParserBinding | None:
        """Like :meth:`resolve` but returns ``None`` on no match."""
        name = Path(path).name
        try:
            return self._resolve_cache[name]
        except KeyError:
            pass
        found = None
        for binding in self._bindings:
            if binding.matches(name):
                found = binding
                break
        self._resolve_cache[name] = found
        return found

    def declared_files(
        self, root: Path | str
    ) -> list[tuple[str, Path, ParserBinding]]:
        """Every declared log under ``root`` as ``(host, path, binding)``.

        Expects the layout the simulator writes,
        ``<root>/<hostname>/<stream>.log``, and walks it in the
        deterministic (host, file) order every consumer shares — the
        batch transform, a live refresh and the serve daemon's scan all
        agree on what a log tree contains.  Files no binding covers are
        left out (a deployment always has unrelated logs around).

        Not cached — every call lists the tree as it is now — so the
        walk reads each directory once with :func:`os.scandir`.  It
        keeps what ``sorted(root.iterdir())`` / ``glob("*.log")`` keep:
        host directories (symlinks followed) by name, and every entry
        whose name ends in ``.log``, hidden or not, by name.
        """
        root = os.fspath(root)
        try:
            with os.scandir(root) as entries:
                hosts = sorted(entry.name for entry in entries if entry.is_dir())
        except (FileNotFoundError, NotADirectoryError):
            raise DeclarationError(
                f"log directory {Path(root)} does not exist"
            ) from None
        declared: list[tuple[str, Path, ParserBinding]] = []
        for host in hosts:
            host_dir = os.path.join(root, host)
            try:
                with os.scandir(host_dir) as entries:
                    names = sorted(
                        entry.name
                        for entry in entries
                        if entry.name.endswith(".log")
                    )
            except OSError:
                continue  # gone or unreadable since the root was listed
            for name in names:
                binding = self.try_resolve(name)
                if binding is not None:
                    declared.append((host, Path(host_dir, name), binding))
        return declared


def default_declaration() -> ParsingDeclaration:
    """The standard declaration covering every built-in mScopeMonitor."""
    declaration = ParsingDeclaration()
    declaration.register(
        ParserBinding(
            pattern="access_log.log",
            parser_name="apache",
            monitor="apache_events",
            rules=(
                ParserRule(
                    RULE_REGEX_TOKEN,
                    {"pattern": r"\?ID=(R[0-9A-Za-z]{11})", "tag": "request_id"},
                ),
            ),
        )
    )
    declaration.register(
        ParserBinding(
            pattern="catalina_log.log",
            parser_name="tomcat",
            monitor="tomcat_events",
        )
    )
    declaration.register(
        ParserBinding(
            pattern="controller_log.log",
            parser_name="cjdbc",
            monitor="cjdbc_events",
        )
    )
    declaration.register(
        ParserBinding(
            pattern="mysql_log.log",
            parser_name="mysql",
            monitor="mysql_events",
            rules=(
                ParserRule(
                    RULE_REGEX_TOKEN,
                    {"pattern": r"/\*ID=(R[0-9A-Za-z]{11})\*/", "tag": "request_id"},
                ),
            ),
        )
    )
    declaration.register(
        ParserBinding(
            pattern="sar_xml.log",
            parser_name="sar_xml",
            monitor="sar_xml",
        )
    )
    declaration.register(
        ParserBinding(
            pattern="sar.log",
            parser_name="sar_text",
            monitor="sar",
            rules=(
                ParserRule(RULE_LINE_SEQUENCE, {"banner_lines": 1}),
            ),
        )
    )
    declaration.register(
        ParserBinding(
            pattern="iostat.log",
            parser_name="iostat",
            monitor="iostat",
            rules=(
                ParserRule(RULE_LINE_SEQUENCE, {"block_separator": "blank"}),
            ),
        )
    )
    declaration.register(
        ParserBinding(
            pattern="collectl_csv.log",
            parser_name="collectl_csv",
            monitor="collectl",
        )
    )
    declaration.register(
        ParserBinding(
            pattern="collectl.log",
            parser_name="collectl_text",
            monitor="collectl",
        )
    )
    return declaration
