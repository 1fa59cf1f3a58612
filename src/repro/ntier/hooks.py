"""Instrumentation hook points on tier servers.

Event mScopeMonitors attach to servers through these hooks.  A hook
returns the simulation events it costs (a generator, a tuple, or any
iterable of events): an attached monitor may consume CPU inline (its
instrumentation cost) and the server's handler ``yield from``s it, so
monitor overhead shows up in request latency and CPU accounting exactly
as real instrumentation would.  The event monitors' cost is what
:meth:`~repro.ntier.hardware.Cpu.consume` returns, one event per hook
point, so a request resumes once per instrumented boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.records import BoundaryRecord

if TYPE_CHECKING:
    from repro.ntier.request import Request
    from repro.ntier.server import TierServer

__all__ = ["TierHook", "HookDispatcher"]


class TierHook:
    """Base class for server instrumentation; every method is a no-op.

    Subclasses override the hook points they care about.  Each hook
    returns an iterable of simulation events (a generator, or the
    tuple :meth:`~repro.ntier.hardware.Cpu.consume` returns) modelling
    the cost of the instrumentation itself.
    """

    def on_upstream_arrival(
        self, server: "TierServer", request: "Request", boundary: BoundaryRecord
    ):
        """The request arrived at the server from upstream."""
        yield from ()

    def on_downstream_sending(
        self, server: "TierServer", request: "Request", target: str
    ):
        """The server is about to forward the request downstream."""
        yield from ()

    def on_downstream_receiving(
        self, server: "TierServer", request: "Request", target: str
    ):
        """The downstream reply just came back."""
        yield from ()

    def on_upstream_departure(
        self, server: "TierServer", request: "Request", boundary: BoundaryRecord
    ):
        """The server is returning the response upstream."""
        yield from ()


class HookDispatcher:
    """Fans hook invocations out to every attached hook, in order."""

    def __init__(self) -> None:
        self._hooks: list[TierHook] = []

    def attach(self, hook: TierHook) -> None:
        """Attach one hook; hooks run in attach order."""
        self._hooks.append(hook)

    def detach(self, hook: TierHook) -> None:
        """Remove a previously attached hook."""
        self._hooks.remove(hook)

    @property
    def attached(self) -> list[TierHook]:
        """The hooks currently attached."""
        return list(self._hooks)

    def upstream_arrival(self, server, request, boundary):
        for hook in self._hooks:
            yield from hook.on_upstream_arrival(server, request, boundary)

    def downstream_sending(self, server, request, target):
        for hook in self._hooks:
            yield from hook.on_downstream_sending(server, request, target)

    def downstream_receiving(self, server, request, target):
        for hook in self._hooks:
            yield from hook.on_downstream_receiving(server, request, target)

    def upstream_departure(self, server, request, boundary):
        for hook in self._hooks:
            yield from hook.on_upstream_departure(server, request, boundary)
