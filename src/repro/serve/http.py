"""The serve daemon's HTTP/1.1 + SSE front end (stdlib asyncio only).

A deliberately small hand-rolled server — the API is GET-only, every
response is either a complete body with ``Content-Length`` or a
``text/event-stream`` held open until shutdown, and each connection
closes after one request.  Endpoints:

``GET /healthz``
    Liveness + the full serve-state counter block (JSON).
``GET /stats?format=text|json|prom``
    Pipeline telemetry through the batch formatters plus the serve
    section (ingest counters, event counters).
``GET /reports`` / ``GET /reports?window=START:STOP``
    Cached per-window diagnosis verdicts (window filter uses the same
    ``START:STOP`` grammar as ``mscope diagnose --window``; a bad
    range is a 400, not a silent empty list).
``GET /reports/<window>``
    One verdict by its window key, e.g. ``/reports/10:20``.
``GET /paths/<request_id>[,<request_id>...]``
    Bulk causal-path reconstruction straight from the live warehouse.
``GET /events[?replay=1]``
    The SSE stream — heartbeats, ingest errors, floor breaches, and a
    final shutdown event.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse
from typing import TYPE_CHECKING, Any

from repro.common.windows import WindowParseError, parse_window
import repro.serve.events as ev
from repro.serve.render import render_stats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.daemon import MScopeServeDaemon

__all__ = ["HttpServer"]

_STATS_FORMATS = ("text", "json", "prom")
_MAX_REQUEST_IDS = 256
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    """An error response the request handler should render."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class HttpServer:
    """One daemon's HTTP front end."""

    def __init__(self, daemon: "MScopeServeDaemon") -> None:
        self.daemon = daemon
        self._server: asyncio.AbstractServer | None = None
        self._streams: set[asyncio.Task] = set()

    async def start(self) -> asyncio.AbstractServer:
        """Bind and start serving; records the bound port."""
        config = self.daemon.config
        server = await asyncio.start_server(
            self._handle, host=config.host, port=config.port
        )
        self._server = server
        sockets = server.sockets or []
        if sockets:
            self.daemon.bound_port = sockets[0].getsockname()[1]
        return server

    async def wait_idle(self) -> None:
        """Let open SSE streams observe the shutdown event and finish."""
        if self._streams:
            await asyncio.wait(self._streams, timeout=5.0)
        for task in self._streams:
            task.cancel()

    # -- connection handling -------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(
                self._read_request(reader), timeout=10.0
            )
        except (asyncio.TimeoutError, ValueError, ConnectionError):
            writer.close()
            return
        if request is None:
            writer.close()
            return
        method, path, query = request
        try:
            if method != "GET":
                raise _HttpError(405, f"method {method} not supported")
            if path == "/events":
                await self._serve_events(writer, query)
                return
            status, body, content_type = await self._dispatch(path, query)
        except _HttpError as exc:
            status = exc.status
            body = json.dumps({"error": exc.message}) + "\n"
            content_type = "application/json"
        except Exception as exc:  # noqa: BLE001 - render, don't crash
            status = 500
            body = json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n"
            content_type = "application/json"
        await self._respond(writer, status, body, content_type)

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, dict[str, str]] | None:
        line = await reader.readline()
        if not line.strip():
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise ValueError("malformed request line")
        method, target, _version = parts
        while True:  # drain headers; the API never needs them
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
        parsed = urllib.parse.urlsplit(target)
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(parsed.query).items()
        }
        return method, urllib.parse.unquote(parsed.path), query

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        content_type: str,
    ) -> None:
        payload = body.encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode() + payload)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    # -- routing --------------------------------------------------------

    async def _dispatch(
        self, path: str, query: dict[str, str]
    ) -> tuple[int, str, str]:
        daemon = self.daemon
        if path == "/healthz":
            return 200, _json(daemon.health()), "application/json"
        if path == "/stats":
            fmt = query.get("format", "text")
            if fmt not in _STATS_FORMATS:
                raise _HttpError(
                    400,
                    f"unknown format {fmt!r}; expected one of "
                    f"{', '.join(_STATS_FORMATS)}",
                )
            telemetry = await asyncio.to_thread(daemon.telemetry_snapshot)
            body, content_type = render_stats(
                fmt, telemetry, daemon.state, daemon.broker.counts,
            )
            return 200, body, content_type
        if path == "/reports":
            window = None
            if "window" in query:
                try:
                    window = parse_window(query["window"])
                except WindowParseError as exc:
                    raise _HttpError(400, str(exc)) from exc
            verdicts = daemon.verdicts(window)
            return 200, _json({
                "windows": [verdict.to_dict() for verdict in verdicts],
                "count": len(verdicts),
            }), "application/json"
        if path.startswith("/reports/"):
            key = path[len("/reports/"):]
            verdict = daemon.verdict(key)
            if verdict is None:
                raise _HttpError(
                    404, f"no cached verdict for window {key!r}"
                )
            return 200, _json(verdict.to_dict()), "application/json"
        if path.startswith("/paths/"):
            raw = path[len("/paths/"):]
            request_ids = [part for part in raw.split(",") if part]
            if not request_ids:
                raise _HttpError(400, "no request ids given")
            if len(request_ids) > _MAX_REQUEST_IDS:
                raise _HttpError(
                    400,
                    f"at most {_MAX_REQUEST_IDS} request ids per call "
                    f"(got {len(request_ids)})",
                )
            paths = await asyncio.to_thread(daemon.causal_paths, request_ids)
            if not paths:
                raise _HttpError(
                    404, f"no events found for request ids {raw!r}"
                )
            return 200, _json({
                "paths": paths, "count": len(paths),
            }), "application/json"
        raise _HttpError(404, f"no such endpoint {path!r}")

    # -- SSE ------------------------------------------------------------

    async def _serve_events(
        self, writer: asyncio.StreamWriter, query: dict[str, str]
    ) -> None:
        replay = query.get("replay", "0") not in ("0", "", "false")
        task = asyncio.current_task()
        if task is not None:
            self._streams.add(task)
            task.add_done_callback(self._streams.discard)
        queue = self.daemon.broker.subscribe(replay=replay)
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            while True:
                event = await queue.get()
                writer.write(event.to_sse())
                await writer.drain()
                if event.kind == ev.SHUTDOWN:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.daemon.broker.unsubscribe(queue)
            writer.close()


def _json(document: Any) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
