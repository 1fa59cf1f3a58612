"""Base class for event mScopeMonitors.

An event monitor instruments one tier server (Section IV): it swaps
the server's native log formatter for the mScope format (request ID +
four boundary timestamps) and attaches hooks whose inline CPU cost
models the instrumentation overhead.  Attaching and detaching are
symmetric, so overhead experiments can run the same system with
monitors on or off.
"""

from __future__ import annotations

from repro.common.errors import MonitorError
from repro.common.records import BoundaryRecord
from repro.common.timebase import Micros
from repro.ntier.hooks import TierHook
from repro.ntier.request import Request
from repro.ntier.server import TierServer

__all__ = ["EventMonitor"]


class EventMonitor(TierHook):
    """Instrumentation for one tier server.

    Parameters
    ----------
    per_event_cpu_us:
        CPU consumed inline at each of the four hook points — the cost
        of reading the clock, formatting, and handing the line to the
        logging facility.  This is what Figure 10's 1–3% comes from.
    per_event_wait_us:
        Non-CPU inline latency per hook point: log-buffer lock
        contention and write-path synchronization.  It burns no CPU
        but lengthens the request path — the source of Figure 11's
        ~+2 ms response-time cost.

    Subclasses set :attr:`tier` and implement :meth:`format_line`.
    """

    #: The tier this monitor instruments (e.g. ``"apache"``).
    tier: str = ""
    #: Monitor name recorded in warehouse metadata.
    monitor_name: str = "event_mscope"

    def __init__(
        self,
        per_event_cpu_us: Micros = 10,
        per_event_wait_us: Micros = 60,
    ) -> None:
        if per_event_cpu_us < 0 or per_event_wait_us < 0:
            raise MonitorError("per-event costs must be non-negative")
        self.per_event_cpu_us = per_event_cpu_us
        self.per_event_wait_us = per_event_wait_us
        self.server: TierServer | None = None

    # ------------------------------------------------------------------
    # lifecycle

    def attach(self, server: TierServer) -> None:
        """Instrument ``server``: swap the log format, hook the events."""
        if self.server is not None:
            raise MonitorError(f"{self.monitor_name} is already attached")
        if self.tier and server.tier != self.tier:
            raise MonitorError(
                f"{self.monitor_name} instruments {self.tier!r}, "
                f"got server {server.tier!r}"
            )
        self.server = server
        server.hooks.attach(self)
        server.set_line_formatter(self._formatter)

    def detach(self) -> None:
        """Remove the instrumentation and restore the stock log format."""
        if self.server is None:
            raise MonitorError(f"{self.monitor_name} is not attached")
        self.server.hooks.detach(self)
        self.server.reset_line_formatter()
        self.server = None

    # ------------------------------------------------------------------
    # instrumentation cost

    def _instrumentation_cost(self, server: TierServer):
        # One event per boundary: the CPU slice and the stall after it
        # are one consume() chain, so the request resumes once.  The
        # hooks return the chain's generator itself rather than wrap it.
        return server.node.cpu.consume(
            self.per_event_cpu_us,
            category="system",
            wait=self.per_event_wait_us,
        )

    def on_upstream_arrival(self, server, request, boundary):
        return self._instrumentation_cost(server)

    def on_downstream_sending(self, server, request, target):
        return self._instrumentation_cost(server)

    def on_downstream_receiving(self, server, request, target):
        return self._instrumentation_cost(server)

    def on_upstream_departure(self, server, request, boundary):
        return self._instrumentation_cost(server)

    # ------------------------------------------------------------------
    # log formatting

    def _formatter(
        self, server: TierServer, request: Request, boundary: BoundaryRecord, payload
    ) -> str | None:
        return self.format_line(server, request, boundary, payload)

    def format_line(
        self, server: TierServer, request: Request, boundary: BoundaryRecord, payload
    ) -> str | None:
        """Render the instrumented (mScope) native log line."""
        raise NotImplementedError
