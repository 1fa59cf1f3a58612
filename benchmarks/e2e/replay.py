"""Replaying a finished log tree as one that is still being written.

``serve_tail`` needs a growing tree with a known final state: every
file of a simulated tree is split into the same number of chunks, on
line ends only, and step *k* appends chunk *k* to every file.
"""

from __future__ import annotations

import shutil
from pathlib import Path

META_FILE = "run_meta.json"


def split_lines(data: bytes, parts: int) -> list[bytes]:
    """``data`` as ``parts`` chunks of whole lines, as even as possible.

    Deterministic, cuts only after a newline, and the chunks
    concatenate back to ``data`` byte for byte.  A file with fewer
    lines than ``parts`` yields some empty chunks.
    """
    if parts < 1:
        raise ValueError("need at least one part")
    lines = data.splitlines(keepends=True)
    count = len(lines)
    return [
        b"".join(lines[count * k // parts : count * (k + 1) // parts])
        for k in range(parts)
    ]


def chunk_tree(logs: Path, parts: int) -> dict[tuple[str, str], list[bytes]]:
    """``(host, file name) -> chunks`` for every log of a tree."""
    return {
        (path.parent.name, path.name): split_lines(path.read_bytes(), parts)
        for path in sorted(logs.glob("*/*.log"))
    }


def lay_out_live_tree(
    source_logs: Path, live: Path, chunks: dict[tuple[str, str], list[bytes]]
) -> Path:
    """An empty copy of the tree, laid out as ``mscope run`` does.

    ``run_meta.json`` sits beside ``logs/``: without it the daemon
    resolves epoch 0 (README, "found while building this", item 2).
    Returns the live log root.
    """
    live_logs = live / "logs"
    for host, name in chunks:
        (live_logs / host).mkdir(parents=True, exist_ok=True)
        (live_logs / host / name).write_bytes(b"")
    shutil.copyfile(source_logs.parent / META_FILE, live / META_FILE)
    return live_logs


def append_step(
    live_logs: Path, chunks: dict[tuple[str, str], list[bytes]], step: int
) -> None:
    """Append chunk ``step`` to every file."""
    for (host, name), parts in chunks.items():
        if parts[step]:
            with (live_logs / host / name).open("ab") as handle:
                handle.write(parts[step])
