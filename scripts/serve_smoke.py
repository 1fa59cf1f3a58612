#!/usr/bin/env python
"""CI smoke test for the ``mscope serve`` daemon.

Boots the daemon as a real subprocess against a simulated log tree
whose files are still growing, exercises every endpoint class, then
sends SIGTERM and verifies the clean-drain guarantee: the warehouse
the daemon leaves behind must be ``iterdump_content``-identical to a
batch ``mscope transform --no-stats`` of the same final tree.

Steps (any failure exits nonzero):

1. ``mscope run`` a short scenario; truncate every log file to its
   first half, keeping the tails for later.
2. ``mscope serve --port 0 --port-file ...`` over the tree; poll the
   port file, then ``/healthz`` until the first half is ingested.
3. Append the withheld tails (live growth) in two writes per file, the
   first ending mid-line, with at least two ingest cycles between them
   (``/healthz`` ``cycles``): a torn line must wait for its newline, so
   no file may be skipped (``skipped_files`` stays 0).  Then wait for
   ``/healthz`` to report the extra rows.
4. Require ``/stats?format=json`` to count every ingested row: the
   ``refresh_file`` stage's records equal the same document's
   ``serve.rows`` (the daemon folds each cycle's spans into lifetime
   totals).
5. Fetch ``/reports``, ``/stats?format=prom``, and one SSE event from
   ``/events``.
6. SIGTERM; require a zero exit within the drain deadline.
7. Batch-transform the final tree and compare content dumps.

``--shard-window-s S`` boots the daemon on the sharded layout (``--db``
is then a shard root); the batch side stays a monolith, so the final
comparison also holds the two layouts to the same content.

Stdlib only — this script runs inside the repo's normal CI image.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60.0


def log(message: str) -> None:
    print(f"serve-smoke: {message}", flush=True)


def fail(message: str) -> None:
    log(f"FAIL: {message}")
    sys.exit(1)


def mscope(*argv: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv], cwd=REPO, check=True
    )


def fetch(port: int, target: str) -> tuple[int, str]:
    url = f"http://127.0.0.1:{port}{target}"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


def wait_for(predicate, what: str, timeout_s: float = TIMEOUT_S):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value is not None:
            return value
        time.sleep(0.1)
    fail(f"timed out after {timeout_s:.0f}s waiting for {what}")


def torn_split(tail: str) -> int:
    """An index that cuts ``tail`` mid-line (about halfway)."""
    split = len(tail) // 2
    while 0 < split < len(tail) and tail[split - 1] == "\n":
        split += 1
    return split


def read_sse_event(port: int) -> dict:
    """Open ``/events`` raw and return the first complete event."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(b"GET /events HTTP/1.1\r\nHost: smoke\r\n\r\n")
        sock.settimeout(10)
        buffer = b""
        while b"\n\n" not in buffer.split(b"\r\n\r\n", 1)[-1]:
            chunk = sock.recv(4096)
            if not chunk:
                fail("SSE stream closed before the first event")
            buffer += chunk
    head, _, stream = buffer.partition(b"\r\n\r\n")
    if b"200" not in head.split(b"\r\n", 1)[0]:
        fail(f"/events returned {head.splitlines()[0]!r}")
    if b"text/event-stream" not in head:
        fail("/events did not declare text/event-stream")
    block = stream.split(b"\n\n", 1)[0].decode()
    fields = dict(
        line.split(": ", 1) for line in block.split("\n") if ": " in line
    )
    return fields


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shard-window-s", type=float, default=None,
        help="serve on a sharded warehouse with this time window",
    )
    args = parser.parse_args()
    layout = []
    if args.shard_window_s is not None:
        layout = ["--shard-window-s", repr(args.shard_window_s)]

    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    out = tmp / "run"
    log("simulating scenario a")
    mscope("run", "--scenario", "a", "--out", str(out), "--duration", "4")
    logs = out / "logs"

    # Hold back the second half of every file to replay as live growth.
    tails: dict[Path, str] = {}
    for host_dir in sorted(logs.iterdir()):
        for log_file in sorted(host_dir.glob("*.log")):
            lines = log_file.read_text().splitlines(keepends=True)
            cut = len(lines) // 2
            tails[log_file] = "".join(lines[cut:])
            log_file.write_text("".join(lines[:cut]))
    log(f"split {len(tails)} log files in half")

    serve_db = tmp / "serve.db"
    port_file = tmp / "port"
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--logs", str(logs),
            "--db", str(serve_db),
            "--port", "0",
            "--port-file", str(port_file),
            "--refresh-interval", "0.1",
            "--diagnose-interval", "0.5",
            "--diagnosis-window", "1.0",
            *layout,
        ],
        cwd=REPO,
    )
    try:
        port = int(
            wait_for(
                lambda: port_file.read_text().strip()
                if port_file.exists()
                else None,
                "the daemon's port file",
            )
        )
        log(f"daemon listening on port {port}")

        def healthy(ready):
            def check():
                if daemon.poll() is not None:
                    fail(f"daemon exited early with {daemon.returncode}")
                status, body = fetch(port, "/healthz")
                if status != 200:
                    return None
                health = json.loads(body)
                if health["status"] != "ok":
                    return None
                return health if ready(health) else None

            return check

        health = wait_for(
            healthy(lambda h: h["rows"] >= 1), "first-half ingest via /healthz"
        )
        first_half_rows = health["rows"]
        log(f"first half ingested: {first_half_rows} rows")

        splits = {log_file: torn_split(tail) for log_file, tail in tails.items()}
        for log_file, tail in tails.items():
            with log_file.open("a") as handle:
                handle.write(tail[: splits[log_file]])
        cycles = health["cycles"]
        health = wait_for(
            healthy(lambda h: h["cycles"] >= cycles + 2),
            "two ingest cycles over torn last lines",
        )
        torn_rows = health["rows"]
        log(f"ingested up to the torn lines: {torn_rows} rows")
        for log_file, tail in tails.items():
            with log_file.open("a") as handle:
                handle.write(tail[splits[log_file] :])
        log("appended the rest of the withheld tails")
        health = wait_for(
            healthy(lambda h: h["rows"] > max(torn_rows, first_half_rows)),
            "live growth via /healthz",
        )
        log(f"growth ingested: {health['rows']} rows total")
        if health["skipped_files"]:
            fail(f"/healthz reports {health['skipped_files']} skipped files")

        def stats_match_rows():
            # The rollup is copied under the cycle lock but the serve
            # state is read after it, so retry until no cycle lands
            # in between.
            status, body = fetch(port, "/stats?format=json")
            if status != 200:
                fail(f"/stats?format=json returned {status}")
            stats = json.loads(body)
            stages = {stage["stage"]: stage for stage in stats["stages"]}
            records = stages.get("refresh_file", {}).get("records")
            if records != stats["serve"]["rows"]:
                return None
            return records

        records = wait_for(
            stats_match_rows, "/stats refresh_file records == serve rows"
        )
        log(f"/stats?format=json: refresh_file records == rows == {records}")

        status, body = fetch(port, "/reports")
        if status != 200:
            fail(f"/reports returned {status}")
        reports = json.loads(body)
        log(f"/reports: {reports['count']} cached windows")

        status, body = fetch(port, "/stats?format=prom")
        if status != 200:
            fail(f"/stats?format=prom returned {status}")
        if "mscope_serve_rows_ingested_total" not in body:
            fail("prometheus stats missing serve metrics")
        log("/stats?format=prom: serve metrics present")

        event = read_sse_event(port)
        if "event" not in event or "data" not in event:
            fail(f"malformed SSE event: {event!r}")
        json.loads(event["data"])
        log(f"SSE event received: {event['event']}")

        log("sending SIGTERM")
        daemon.send_signal(signal.SIGTERM)
        try:
            code = daemon.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("daemon did not drain within the deadline")
        if code != 0:
            fail(f"daemon exited {code} after SIGTERM")
        log("daemon drained and exited 0")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    batch_db = tmp / "batch.db"
    log("batch transform of the final tree")
    mscope(
        "transform", "--logs", str(logs), "--db", str(batch_db), "--no-stats"
    )

    sys.path.insert(0, str(REPO / "src"))
    from repro.warehouse.sharded import open_warehouse

    with open_warehouse(serve_db) as served, open_warehouse(batch_db) as batched:
        serve_dump = list(served.iterdump_content())
        batch_dump = list(batched.iterdump_content())
    if serve_dump != batch_dump:
        only_serve = set(serve_dump) - set(batch_dump)
        only_batch = set(batch_dump) - set(serve_dump)
        log(f"only in serve warehouse: {sorted(only_serve)[:5]}")
        log(f"only in batch warehouse: {sorted(only_batch)[:5]}")
        fail("drained warehouse is not iterdump-identical to batch")
    log(
        f"PASS: warehouses identical ({len(serve_dump)} dump lines, "
        f"{health['rows']} rows, {reports['count']} diagnosis windows)"
    )


if __name__ == "__main__":
    main()
