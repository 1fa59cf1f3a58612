"""Deterministic log-corruption fault injection.

Monitor logs are written by live, possibly-crashing components over
shared files, so realistic damage is structured: a component dies mid
``write(2)`` (truncated line or file tail), two writers interleave a
torn line, a log rotates away its banner/header, a retry duplicates a
line, or a binary payload lands in a text stream.  The
:class:`LogCorruptor` applies exactly these damage classes to any
generated log directory, seeded and deterministic — the same seed over
the same tree produces byte-identical corruption — so every format
parser can be exercised against the damage in reproducible tests and
the nightly corruption-fuzz suite (``pytest tests/fuzz -m fuzz``).

Usage::

    corruptor = LogCorruptor(seed=7)
    reports = corruptor.corrupt_directory(log_root)
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import Sequence

__all__ = ["CORRUPTION_KINDS", "Corruption", "LogCorruptor"]

#: The damage classes, in deterministic application order.
CORRUPTION_KINDS = (
    "truncate_line",   # a line torn mid-write
    "truncate_tail",   # the file cut mid-record (writer crashed)
    "interleave",      # two concurrent appends torn into one line
    "garbage",         # invalid-encoding bytes spliced into a line
    "duplicate",       # a line written twice (retried append)
    "strip_header",    # banner/header lines rotated away
)

#: Line prefixes that identify banners/headers across the formats
#: (SAR's uname banner, iostat's Device header, collectl's # header).
_HEADER_PREFIXES = (b"#", b"Linux ", b"Device:")

_GARBAGE = b"\xff\xfe\x00\xc3\x28\xa0\xa1"


@dataclasses.dataclass(frozen=True, slots=True)
class Corruption:
    """One applied corruption, for test expectations and fuzz triage.

    ``line_number`` is the 1-based first damaged line; ``0`` marks
    whole-file damage (tail truncation, stripped headers).
    """

    path: str
    kind: str
    line_number: int
    detail: str


class LogCorruptor:
    """Seeded, deterministic corruption of generated log files."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------
    # precise single-line damage (used by the integration tests)

    def garble_lines(
        self, path: Path | str, line_numbers: Sequence[int]
    ) -> list[Corruption]:
        """Replace specific 1-based lines with deterministic junk text.

        The junk is printable but matches no monitor format, so the
        targeted lines are guaranteed-damaged records with known
        positions — the precise tool for per-format assertions.
        """
        path = Path(path)
        lines = path.read_bytes().split(b"\n")
        reports = []
        for number in line_numbers:
            junk = "".join(
                self.rng.choice("~!@#$^&*(){}<>?") for _ in range(24)
            ).encode("ascii")
            lines[number - 1] = junk
            reports.append(
                Corruption(str(path), "garble", number, junk.decode("ascii"))
            )
        path.write_bytes(b"\n".join(lines))
        return reports

    def truncate_line_at(
        self, path: Path | str, line_number: int, keep_chars: int
    ) -> Corruption:
        """Tear one specific line after ``keep_chars`` bytes."""
        path = Path(path)
        lines = path.read_bytes().split(b"\n")
        lines[line_number - 1] = lines[line_number - 1][:keep_chars]
        path.write_bytes(b"\n".join(lines))
        return Corruption(
            str(path), "truncate_line", line_number, f"kept {keep_chars} chars"
        )

    # ------------------------------------------------------------------
    # randomized damage (the fuzz surface)

    def corrupt_file(
        self,
        path: Path | str,
        kinds: Sequence[str] | None = None,
    ) -> list[Corruption]:
        """Apply one randomly chosen corruption of each requested kind."""
        path = Path(path)
        reports: list[Corruption] = []
        for kind in kinds if kinds is not None else CORRUPTION_KINDS:
            if kind not in CORRUPTION_KINDS:
                raise ValueError(f"unknown corruption kind {kind!r}")
            data = path.read_bytes()
            if not data.strip():
                continue
            damaged, report = getattr(self, f"_{kind}")(data, str(path))
            if report is not None:
                path.write_bytes(damaged)
                reports.append(report)
        return reports

    def corrupt_directory(
        self,
        root: Path | str,
        kinds: Sequence[str] | None = None,
        pattern: str = "*.log",
        probability: float = 1.0,
    ) -> list[Corruption]:
        """Corrupt every matching file under ``root`` (sorted order).

        ``probability`` damages only a fraction of the files —
        corruption in production is sparse, and undamaged files anchor
        the "every undamaged record imports" invariant.
        """
        root = Path(root)
        reports: list[Corruption] = []
        for path in sorted(root.rglob(pattern)):
            if self.rng.random() > probability:
                continue
            reports.extend(self.corrupt_file(path, kinds))
        return reports

    # ------------------------------------------------------------------
    # damage implementations: bytes in, (bytes, report | None) out

    def _pick_line(self, lines: list[bytes]) -> int | None:
        """Index of a random non-empty line, or ``None``."""
        candidates = [i for i, line in enumerate(lines) if line.strip()]
        return self.rng.choice(candidates) if candidates else None

    def _truncate_line(self, data: bytes, path: str):
        lines = data.split(b"\n")
        index = self._pick_line(lines)
        if index is None:
            return data, None
        keep = self.rng.randrange(1, max(2, len(lines[index])))
        lines[index] = lines[index][:keep]
        return b"\n".join(lines), Corruption(
            path, "truncate_line", index + 1, f"kept {keep} bytes"
        )

    def _truncate_tail(self, data: bytes, path: str):
        if len(data) < 2:
            return data, None
        cut = self.rng.randrange(max(1, len(data) * 3 // 5), len(data))
        return data[:cut], Corruption(
            path, "truncate_tail", 0, f"cut at byte {cut} of {len(data)}"
        )

    def _interleave(self, data: bytes, path: str):
        lines = data.split(b"\n")
        full = [i for i, line in enumerate(lines) if line.strip()]
        if len(full) < 2:
            return data, None
        a = self.rng.choice(full[:-1])
        b = full[full.index(a) + 1]
        split = self.rng.randrange(1, max(2, len(lines[a])))
        torn = lines[a][:split] + lines[b] + lines[a][split:]
        merged = lines[:a] + [torn] + lines[a + 1 : b] + lines[b + 1 :]
        return b"\n".join(merged), Corruption(
            path, "interleave", a + 1, f"line {b + 1} spliced at byte {split}"
        )

    def _garbage(self, data: bytes, path: str):
        lines = data.split(b"\n")
        index = self._pick_line(lines)
        if index is None:
            return data, None
        at = self.rng.randrange(0, max(1, len(lines[index])))
        lines[index] = lines[index][:at] + _GARBAGE + lines[index][at:]
        return b"\n".join(lines), Corruption(
            path, "garbage", index + 1, f"{len(_GARBAGE)} raw bytes at {at}"
        )

    def _duplicate(self, data: bytes, path: str):
        lines = data.split(b"\n")
        index = self._pick_line(lines)
        if index is None:
            return data, None
        lines.insert(index, lines[index])
        return b"\n".join(lines), Corruption(
            path, "duplicate", index + 1, "line duplicated"
        )

    def _strip_header(self, data: bytes, path: str):
        lines = data.split(b"\n")
        kept = [
            line
            for line in lines
            if not line.startswith(_HEADER_PREFIXES)
        ]
        if len(kept) == len(lines):
            return data, None
        return b"\n".join(kept), Corruption(
            path, "strip_header", 0, f"removed {len(lines) - len(kept)} lines"
        )

