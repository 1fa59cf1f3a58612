"""The vector kernel's client: flat callbacks over calendar rows.

:class:`VectorClientEmulator` drives the same user population as the
scalar :class:`~repro.ntier.client.ClientEmulator`, but each user's
session is a state machine over typed :class:`~repro.sim.vector.EventCalendar`
rows instead of a generator :class:`~repro.sim.process.Process` — no
per-user generator frame, no per-sleep ``Timeout`` object, no heap
churn for the client's timer traffic (the dominant event class at
scale).

Dump identity with the scalar client is engineered, not hoped for:

* every calendar row is scheduled exactly where the scalar client
  would allocate a sequence number (process bootstrap → BOOT row,
  ramp timeout → WAKE row, think timeout → ISSUE row), drawn from the
  engine's one shared counter;
* randomness comes from the *same* :class:`random.Random` substreams
  (``client.think`` / ``client.mix`` / ``client.ramp``), consumed in
  the same order, so every think time, ramp offset, and interaction
  choice is bit-identical.

Servers, monitors, faults, and the bus are untouched scalar code, so a
``kernel="vector"`` run produces byte-identical monitor logs — and an
``iterdump_content()``-identical warehouse — to ``kernel="scalar"``.
The timeline pins (``tests/sim/test_timeline_identity.py``) check it
on every fault scenario.
"""

from __future__ import annotations

from repro.common.ids import RequestIdGenerator
from repro.common.records import RequestTrace
from repro.common.rng import RngStreams
from repro.ntier.client import ClientEmulator
from repro.ntier.messages import NetworkBus
from repro.ntier.request import Request
from repro.rubbos.workload import WorkloadSpec
from repro.sim.vector import VectorEngine

__all__ = ["VectorClientEmulator"]

#: Calendar channel codes (slot = user index).
BOOT = 1  # mirrors the scalar process-bootstrap event
WAKE = 2  # mirrors the ramp-up timeout
ISSUE = 3  # mirrors the think timeout


class VectorClientEmulator(ClientEmulator):
    """Client emulator running on the vector kernel's event calendar.

    Accepts the same constructor arguments as the scalar emulator but
    requires a :class:`~repro.sim.vector.VectorEngine`.  The public
    surface (``collector``, ``start()``) is inherited unchanged.
    """

    def __init__(
        self,
        engine: VectorEngine,
        bus: NetworkBus,
        workload: WorkloadSpec,
        streams: RngStreams,
        id_generator: RequestIdGenerator,
        first_tier: "str | list[str]" = "apache",
    ) -> None:
        if not isinstance(engine, VectorEngine):
            raise TypeError(
                "VectorClientEmulator requires a VectorEngine "
                f"(got {type(engine).__name__})"
            )
        super().__init__(engine, bus, workload, streams, id_generator, first_tier)
        self._sessions: list = []
        engine.register_channel(BOOT, self._on_boot)
        engine.register_channel(WAKE, self._on_wake)
        engine.register_channel(ISSUE, self._on_issue)

    def start(self) -> None:
        """Launch every emulated user as one BOOT calendar row each.

        The scalar client allocates one agenda sequence per user for
        the process-bootstrap event; the BOOT row claims exactly that
        position.
        """
        if self._started:
            return
        self._started = True
        engine: VectorEngine = self.engine
        for slot in range(self.workload.users):
            self._sessions.append(
                self._transitions.new_session()
                if self._transitions is not None
                else None
            )
            engine.schedule_row(BOOT, slot)

    # ------------------------------------------------------------------
    # state machine (each handler mirrors one scalar generator resume)

    def _on_boot(self, time: int, slot: int) -> None:
        # Scalar: first resume draws the ramp offset and sleeps, or
        # falls straight into the think loop when there is no ramp.
        if self.workload.ramp_up_us > 0:
            offset = int(self._ramp_rng.random() * self.workload.ramp_up_us)
            self.engine.schedule_row(WAKE, slot, offset)
        else:
            self._cycle(slot)

    def _on_wake(self, time: int, slot: int) -> None:
        self._cycle(slot)

    def _on_issue(self, time: int, slot: int) -> None:
        self._issue(slot)

    def _cycle(self, slot: int) -> None:
        # Scalar: top of the while-loop — think draw, then the think
        # timeout (skipped when the draw rounds to zero).
        think = self._sample_think()
        if think > 0:
            self.engine.schedule_row(ISSUE, slot, think)
        else:
            self._issue(slot)

    def _issue(self, slot: int) -> None:
        # Mirrors ClientEmulator._one_request draw for draw.
        session = self._sessions[slot]
        if self._transitions is not None and session is not None:
            interaction = self._transitions.advance(session, self._mix_rng)
        else:
            interaction = self.mix.sample(self._mix_rng)
        request_id = self.id_generator.next_id()
        now = self.engine.now
        trace = RequestTrace(request_id, interaction.name, client_send=now)
        request = Request(request_id, interaction, trace, created_at=now)
        target = self.first_tier_addresses[
            self._balance_counter % len(self.first_tier_addresses)
        ]
        self._balance_counter += 1
        reply_event = self.bus.send(request, "client", target)
        # The scalar process yields the reply event (a callback, no
        # sequence allocation); this callback is the same hook.
        reply_event.callbacks.append(
            lambda event, trace=trace, slot=slot: self._on_reply(trace, slot)
        )

    def _on_reply(self, trace: RequestTrace, slot: int) -> None:
        trace.client_receive = self.engine.now
        self.collector.add(trace)
        self._cycle(slot)
