"""The tier-server base class.

A :class:`TierServer` is one component server in the n-tier pipeline:
it owns a worker pool on a node, listens on its bus inbox, and serves
each message with a tier-specific :meth:`work` generator.  The base
class is responsible for everything the paper's event mScopeMonitors
observe — recording the four boundary timestamps, maintaining the
ground-truth concurrency series, dispatching instrumentation hooks, and
writing the component's native log line for every served request.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.common.errors import SimulationError
from repro.common.records import BoundaryRecord, DownstreamCall
from repro.common.timebase import WallClock
from repro.ntier.balancer import LoadBalancer
from repro.ntier.hooks import HookDispatcher
from repro.ntier.messages import Message, NetworkBus
from repro.ntier.node import Node
from repro.ntier.request import Request
from repro.sim.engine import Engine
from repro.sim.tracking import StepSeries

__all__ = ["TierServer", "LineFormatter"]

#: Renders the native log line for one served request (``None`` = no line).
LineFormatter = Callable[["TierServer", Request, BoundaryRecord, Any], "str | None"]


class TierServer:
    """One component server (Apache, Tomcat, C-JDBC, or MySQL).

    Parameters
    ----------
    engine:
        The simulation engine.
    tier:
        Tier name, also the bus address (e.g. ``"apache"``).
    node:
        The node this server runs on.
    bus:
        The inter-tier network.
    workers:
        Worker-pool size (threads / connections).
    downstream:
        Bus address(es) of the next tier — a single address, a list of
        replica addresses (balanced round-robin, the way ModJK spreads
        Tomcats and C-JDBC spreads database backends), or ``None`` for
        the last tier.
    wall_clock:
        Wall-clock mapping used when rendering native log lines.
    rng:
        Stream for server-local randomness (e.g. buffer-pool misses).
    address:
        Bus address of *this* server; defaults to the tier name.
        Replicas use ``"<tier>#<n>"``.
    balancer:
        Replica dispatch policy over ``downstream``; defaults to a
        sticky round-robin :class:`~repro.ntier.balancer.LoadBalancer`.
    """

    #: Name of the native log stream this tier writes to.
    log_stream = "server_log"

    def __init__(
        self,
        engine: Engine,
        tier: str,
        node: Node,
        bus: NetworkBus,
        workers: int,
        downstream: "str | list[str] | None",
        wall_clock: WallClock,
        rng: random.Random,
        address: str | None = None,
        balancer: LoadBalancer | None = None,
    ) -> None:
        self.engine = engine
        self.tier = tier
        self.address = address if address is not None else tier
        self.node = node
        self.bus = bus
        if downstream is None:
            self.downstream_targets: list[str] = []
        elif isinstance(downstream, str):
            self.downstream_targets = [downstream]
        else:
            self.downstream_targets = list(downstream)
        self.balancer = (
            balancer
            if balancer is not None
            else LoadBalancer("round-robin", self.downstream_targets)
        )
        self.wall_clock = wall_clock
        self.rng = rng
        self.inbox = bus.register(self.address)
        from repro.sim.resources import Resource

        self.workers = Resource(engine, workers, name=f"{self.address}.workers")
        self.hooks = HookDispatcher()
        self.concurrency = StepSeries(initial=0)
        #: Requests served and requests whose handler raised (totals).
        self.completed = 0
        self.errors = 0
        self._line_formatter: LineFormatter = type(self).default_line_formatter
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Begin accepting messages (idempotent)."""
        if self._started:
            return
        self._started = True
        self.engine.process(self._listen())

    def _listen(self):
        while True:
            message: Message = yield self.inbox.get()
            boundary = BoundaryRecord(
                request_id=message.request.request_id,
                tier=self.tier,
                node=self.node.name,
                upstream_arrival=self.engine.now,
            )
            message.request.trace.add_visit(boundary)
            self.concurrency.adjust(self.engine.now, +1)
            self.engine.process(self._serve(message, boundary))

    def _serve(self, message: Message, boundary: BoundaryRecord):
        claim = self.workers.acquire()
        yield claim
        try:
            try:
                yield from self.hooks.upstream_arrival(
                    self, message.request, boundary
                )
                payload = yield from self.work(message, boundary)
                yield from self.hooks.upstream_departure(
                    self, message.request, boundary
                )
            except SimulationError:
                raise  # kernel-level inconsistencies must not be masked
            except Exception as exc:
                # A crashing handler answers like a real server: the
                # request errors out, the worker survives, and the
                # upstream caller is unblocked instead of hanging.
                payload = {"error": f"{type(exc).__name__}: {exc}"}
                self.errors += 1
            boundary.upstream_departure = self.engine.now
            self.concurrency.adjust(self.engine.now, -1)
            self._write_log_line(message.request, boundary, message.payload)
            self.bus.reply(message, payload)
            self.completed += 1
        finally:
            self.workers.release(claim)

    # ------------------------------------------------------------------
    # tier-specific behaviour

    def work(self, message: Message, boundary: BoundaryRecord):
        """Serve one message; returns the reply payload (generator)."""
        raise NotImplementedError
        yield  # pragma: no cover

    @property
    def downstream(self) -> str | None:
        """First downstream address (``None`` on the last tier)."""
        return self.downstream_targets[0] if self.downstream_targets else None

    def _pick_downstream(self, request: Request, branch: int = 0) -> str:
        """The dispatch policy's sticky replica choice for ``request``."""
        return self.balancer.pick(request.request_id, branch)

    def call_downstream(
        self, request: Request, boundary: BoundaryRecord, payload: Any = None
    ):
        """Forward to the downstream tier and wait for its reply.

        Records the downstream sending/receiving pair on ``boundary``
        and fires the corresponding hooks.
        """
        if not self.downstream_targets:
            raise SimulationError(f"tier {self.tier!r} has no downstream")
        target = self._pick_downstream(request)
        return (
            yield from self._call_target(request, boundary, payload, target)
        )

    def call_fanout(
        self, request: Request, boundary: BoundaryRecord, payloads: list
    ):
        """Issue one downstream call per payload *concurrently* and join.

        The fan-out half of a fan-out/fan-in call graph: every branch
        is its own process, branch *i* dispatched by the balancer under
        branch key *i* (so round-robin spreads the branches over the
        replicas), and the caller resumes only after every branch's
        reply — the join.  Returns the replies in payload order.
        """
        if not self.downstream_targets:
            raise SimulationError(f"tier {self.tier!r} has no downstream")
        results: list[Any] = [None] * len(payloads)
        branches = [
            self.engine.process(
                self._fanout_branch(
                    request,
                    boundary,
                    payload,
                    self._pick_downstream(request, branch=index),
                    results,
                    index,
                )
            )
            for index, payload in enumerate(payloads)
        ]
        for branch in branches:
            yield branch
        return results

    def _fanout_branch(
        self,
        request: Request,
        boundary: BoundaryRecord,
        payload: Any,
        target: str,
        results: list,
        index: int,
    ):
        results[index] = yield from self._call_target(
            request, boundary, payload, target
        )

    def _call_target(
        self, request: Request, boundary: BoundaryRecord, payload: Any, target: str
    ):
        yield from self.hooks.downstream_sending(self, request, target)
        sending = self.engine.now
        reply_event = self.bus.send(request, self.address, target, payload)
        result = yield reply_event
        boundary.record_call(DownstreamCall(target, sending, self.engine.now))
        yield from self.hooks.downstream_receiving(self, request, target)
        return result

    # ------------------------------------------------------------------
    # native logging

    def default_line_formatter(
        self, request: Request, boundary: BoundaryRecord, payload: Any
    ) -> str | None:
        """The unmodified component's log line (overridden per tier)."""
        return None

    def set_line_formatter(self, formatter: LineFormatter) -> None:
        """Replace the native log formatter (how event monitors instrument)."""
        self._line_formatter = formatter

    def reset_line_formatter(self) -> None:
        """Restore the unmodified component's formatter."""
        self._line_formatter = type(self).default_line_formatter

    def _write_log_line(
        self, request: Request, boundary: BoundaryRecord, payload: Any
    ) -> None:
        line = self._line_formatter(self, request, boundary, payload)
        if line is not None:
            self.node.facility(self.log_stream).write_line(line)
