"""Tests for the serve daemon's HTTP/SSE front end.

Each test boots the full daemon (real sockets, ephemeral port) inside
``asyncio.run`` and speaks raw HTTP/1.1 over ``asyncio.open_connection``
— no client libraries, mirroring how the server itself is built.
"""

import asyncio
import json

import pytest

from repro.serve.daemon import MScopeServeDaemon, ServeConfig

from .test_daemon import EPOCH, append, healthy_spans, make_front_table, mysql_line


def make_daemon(tmp_path, **overrides):
    logs = tmp_path / "logs"
    append(logs / "db1" / "mysql_log.log", [mysql_line(i) for i in range(3)])
    overrides.setdefault("refresh_interval_s", 0.02)
    overrides.setdefault("diagnose_interval_s", 0.05)
    return MScopeServeDaemon(ServeConfig(logs=logs, **overrides))


async def fetch(port, target):
    """One raw GET; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=5.0)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split()[1])
    headers = dict(
        line.split(": ", 1) for line in lines[1:] if ": " in line
    )
    return status, headers, body.decode()


async def with_daemon(daemon, scenario):
    """Run ``scenario(port)`` against a live daemon, then drain it."""
    ready = asyncio.Event()
    runner = asyncio.ensure_future(daemon.run(ready))
    await asyncio.wait_for(ready.wait(), timeout=10.0)
    try:
        await scenario(daemon.bound_port)
    finally:
        daemon.request_shutdown()
        await asyncio.wait_for(runner, timeout=30.0)


def test_healthz_reports_state(tmp_path):
    daemon = make_daemon(tmp_path)

    async def scenario(port):
        await asyncio.sleep(0.1)  # let at least one cycle land
        status, headers, body = await fetch(port, "/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["rows"] == 3
        assert health["skipped_files"] == 0

    asyncio.run(with_daemon(daemon, scenario))


def test_stats_formats(tmp_path):
    daemon = make_daemon(tmp_path)

    async def scenario(port):
        await asyncio.sleep(0.1)
        status, _, body = await fetch(port, "/stats?format=json")
        assert status == 200
        document = json.loads(body)
        assert document["serve"]["rows"] == 3
        assert "stages" in document
        status, headers, body = await fetch(port, "/stats?format=prom")
        assert status == 200
        assert "mscope_serve_rows_ingested_total 3" in body
        assert "version=0.0.4" in headers["Content-Type"]
        status, _, body = await fetch(port, "/stats")
        assert status == 200 and "serve: cycles=" in body
        status, _, body = await fetch(port, "/stats?format=yaml")
        assert status == 400 and "unknown format" in body

    asyncio.run(with_daemon(daemon, scenario))


def test_reports_endpoints(tmp_path):
    daemon = make_daemon(
        tmp_path, epoch_us=EPOCH, diagnosis_window_s=0.5
    )
    make_front_table(daemon.db, healthy_spans())

    async def scenario(port):
        await asyncio.sleep(0.15)  # let a diagnosis cycle run
        status, _, body = await fetch(port, "/reports")
        assert status == 200
        document = json.loads(body)
        assert document["count"] == 3
        keys = [window["window"] for window in document["windows"]]
        assert keys == ["0:0.5", "0.5:1", "1:1.5"]
        status, _, body = await fetch(port, "/reports?window=0.5:1")
        assert json.loads(body)["count"] == 1
        status, _, body = await fetch(port, "/reports?window=5:1")
        assert status == 400
        assert "start must be before stop" in json.loads(body)["error"]
        status, _, body = await fetch(port, "/reports/0:0.5")
        assert status == 200
        assert json.loads(body)["window"] == "0:0.5"
        status, _, _ = await fetch(port, "/reports/7:8")
        assert status == 404

    asyncio.run(with_daemon(daemon, scenario))


def test_paths_endpoint(tmp_path):
    daemon = make_daemon(tmp_path)

    async def scenario(port):
        await asyncio.sleep(0.1)
        status, _, body = await fetch(port, "/paths/R0A000000000")
        assert status == 200
        document = json.loads(body)
        assert document["count"] == 1
        path = document["paths"][0]
        assert path["request_id"] == "R0A000000000"
        assert path["hops"][0]["tier"] == "mysql"
        status, _, body = await fetch(
            port, "/paths/R0A000000000,R0A000000001"
        )
        assert json.loads(body)["count"] == 2
        status, _, _ = await fetch(port, "/paths/NOPE")
        assert status == 404

    asyncio.run(with_daemon(daemon, scenario))


def test_unknown_endpoint_and_method(tmp_path):
    daemon = make_daemon(tmp_path)

    async def scenario(port):
        status, _, _ = await fetch(port, "/nope")
        assert status == 404
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        assert b"405" in raw.split(b"\r\n", 1)[0]

    asyncio.run(with_daemon(daemon, scenario))


def test_sse_stream_heartbeats_then_shutdown(tmp_path):
    daemon = make_daemon(tmp_path)
    seen = []

    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        assert b"text/event-stream" in head
        # Read until one heartbeat arrives, then ask for shutdown and
        # expect the stream to end with the shutdown event.
        while True:
            block = await asyncio.wait_for(
                reader.readuntil(b"\n\n"), timeout=5.0
            )
            fields = dict(
                line.split(": ", 1)
                for line in block.decode().strip().split("\n")
            )
            seen.append(fields["event"])
            if fields["event"] == "heartbeat":
                assert "new_rows" in json.loads(fields["data"])
                break
        daemon.request_shutdown()
        while True:
            block = await asyncio.wait_for(
                reader.readuntil(b"\n\n"), timeout=10.0
            )
            fields = dict(
                line.split(": ", 1)
                for line in block.decode().strip().split("\n")
            )
            seen.append(fields["event"])
            if fields["event"] == "shutdown":
                break
        assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
        writer.close()

    asyncio.run(with_daemon(daemon, scenario))
    assert "heartbeat" in seen and seen[-1] == "shutdown"


def test_sse_replay_delivers_history(tmp_path):
    daemon = make_daemon(tmp_path)

    async def scenario(port):
        await asyncio.sleep(0.1)  # heartbeats already published
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET /events?replay=1 HTTP/1.1\r\nHost: t\r\n\r\n")
        await writer.drain()
        await reader.readuntil(b"\r\n\r\n")
        block = await asyncio.wait_for(
            reader.readuntil(b"\n\n"), timeout=5.0
        )
        fields = dict(
            line.split(": ", 1)
            for line in block.decode().strip().split("\n")
        )
        # Replay starts from the oldest retained event.
        assert fields["id"] == "1"
        writer.close()

    asyncio.run(with_daemon(daemon, scenario))


def test_live_growth_is_ingested_and_served(tmp_path):
    daemon = make_daemon(tmp_path)
    logs = daemon.config.logs

    async def scenario(port):
        await asyncio.sleep(0.1)
        append(logs / "db1" / "mysql_log.log", [mysql_line(3)])
        for _ in range(50):
            await asyncio.sleep(0.05)
            _, _, body = await fetch(port, "/healthz")
            if json.loads(body)["rows"] == 4:
                break
        else:
            pytest.fail("appended row never showed up in /healthz")

    asyncio.run(with_daemon(daemon, scenario))
    assert daemon.db.path == ":memory:" or daemon.state.rows == 4
