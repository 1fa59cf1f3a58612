"""Record types shared across the simulator, monitors, and analysis.

The central concept is the paper's *event of interest* (Section IV-B):
for every request, on every component server it touches, exactly four
timestamps describe the request's execution boundary on that server:

* **upstream arrival** — the request arrives from the upstream tier;
* **downstream sending** — the request is forwarded to a downstream tier;
* **downstream receiving** — the downstream reply comes back;
* **upstream departure** — the reply is returned upstream.

A server that never calls downstream (the last tier) has no downstream
pair.  A tier may be visited several times by one request (Tomcat
issuing three SQL queries produces three C-JDBC and three MySQL
visits); each visit is its own :class:`BoundaryRecord`.
"""

from __future__ import annotations

import dataclasses

from repro.common.timebase import Micros, to_ms

__all__ = [
    "DownstreamCall",
    "BoundaryRecord",
    "RequestTrace",
    "ResourceSample",
    "RUN_META_FILE",
]

#: The run description ``mscope run`` writes beside its log tree.
RUN_META_FILE = "run_meta.json"


@dataclasses.dataclass(frozen=True, slots=True)
class DownstreamCall:
    """One downstream round trip issued while serving a request."""

    target_tier: str
    sending: Micros
    receiving: Micros

    def latency(self) -> Micros:
        """Round-trip time of this downstream call."""
        return self.receiving - self.sending


@dataclasses.dataclass(slots=True)
class BoundaryRecord:
    """The four execution-boundary timestamps of one tier visit.

    ``downstream_sending`` / ``downstream_receiving`` are ``None`` for
    visits that issued no downstream call.
    """

    request_id: str
    tier: str
    node: str
    upstream_arrival: Micros
    upstream_departure: Micros | None = None
    downstream_sending: Micros | None = None
    downstream_receiving: Micros | None = None
    downstream_calls: list[DownstreamCall] = dataclasses.field(default_factory=list)

    def record_call(self, call: DownstreamCall) -> None:
        """Fold one downstream round trip into the boundary record."""
        self.downstream_calls.append(call)
        if self.downstream_sending is None or call.sending < self.downstream_sending:
            self.downstream_sending = call.sending
        if (
            self.downstream_receiving is None
            or call.receiving > self.downstream_receiving
        ):
            self.downstream_receiving = call.receiving

    def server_time(self) -> Micros:
        """Total time the request spent on this tier visit."""
        if self.upstream_departure is None:
            raise ValueError(
                f"request {self.request_id} never departed tier {self.tier}"
            )
        return self.upstream_departure - self.upstream_arrival

    def local_time(self) -> Micros:
        """Time attributable to this tier alone (server time minus downstream)."""
        total = self.server_time()
        downstream = sum(call.latency() for call in self.downstream_calls)
        return total - downstream

    def is_complete(self) -> bool:
        """Whether the visit both arrived and departed."""
        return self.upstream_departure is not None


@dataclasses.dataclass(slots=True)
class RequestTrace:
    """End-to-end trace of one request across every tier visit."""

    request_id: str
    interaction: str
    client_send: Micros
    client_receive: Micros | None = None
    visits: list[BoundaryRecord] = dataclasses.field(default_factory=list)

    def add_visit(self, visit: BoundaryRecord) -> None:
        """Append one tier visit to the trace."""
        self.visits.append(visit)

    def response_time(self) -> Micros:
        """Client-observed response time."""
        if self.client_receive is None:
            raise ValueError(f"request {self.request_id} never completed")
        return self.client_receive - self.client_send

    def response_time_ms(self) -> float:
        """Client-observed response time in milliseconds."""
        return to_ms(self.response_time())

    def is_complete(self) -> bool:
        """Whether the client received the response."""
        return self.client_receive is not None

    def tiers(self) -> list[str]:
        """Distinct tiers touched, ordered by first arrival."""
        seen: dict[str, Micros] = {}
        for visit in self.visits:
            if visit.tier not in seen or visit.upstream_arrival < seen[visit.tier]:
                seen[visit.tier] = visit.upstream_arrival
        return sorted(seen, key=seen.__getitem__)

    def visits_for(self, tier: str) -> list[BoundaryRecord]:
        """All visits to ``tier``, ordered by arrival."""
        matching = [v for v in self.visits if v.tier == tier]
        matching.sort(key=lambda v: v.upstream_arrival)
        return matching

    def tier_time(self, tier: str) -> Micros:
        """Total time spent across every visit to ``tier``."""
        return sum(v.server_time() for v in self.visits_for(tier))


@dataclasses.dataclass(frozen=True, slots=True)
class ResourceSample:
    """One sample emitted by a resource mScopeMonitor.

    ``metrics`` maps metric names (e.g. ``"cpu_user_pct"``) to values
    observed over the window ``(timestamp - interval, timestamp]``.
    """

    node: str
    monitor: str
    timestamp: Micros
    interval: Micros
    metrics: dict[str, float]
