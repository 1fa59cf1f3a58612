"""Point-in-time response time analysis (the paper's Figure 2 metric).

The *point-in-time* response time of a window is the maximum response
time among requests completing in that window; the VLRT phenomenon is
a window whose maximum exceeds the period average by an order of
magnitude or more, even though wider averages look flat.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, NamedTuple

from repro.common.errors import AnalysisError
from repro.common.records import RequestTrace
from repro.common.timebase import Micros, to_ms
from repro.warehouse.db import MScopeDB, merge_sorted, quote_identifier

__all__ = [
    "CompletionSample",
    "IN_FLIGHT_SLACK_US",
    "PointInTimeWindow",
    "completions_from_traces",
    "completions_from_warehouse",
    "point_in_time_response_times",
]

#: How far before a query window a request may have *arrived* (or been
#: stored, on a sharded warehouse that partitions by arrival time) and
#: still matter to it — the assumed bound on request duration.
#: Windowed reads widen their partition-pruning hint by this much so a
#: request spanning a shard boundary is never missed; 30 s is orders
#: of magnitude above any response time the n-tier scenarios produce.
IN_FLIGHT_SLACK_US: Micros = 30_000_000


class CompletionSample(NamedTuple):
    """One completed request: completion time and response time.

    A ``NamedTuple`` (like :class:`~repro.analysis.causal.CausalHop`):
    every diagnosis materializes one sample per completed request, and
    tuple construction is several times cheaper than a frozen
    dataclass's per-field ``object.__setattr__``.
    """

    completed_at: Micros
    response_time_us: Micros
    request_id: str = ""
    interaction: str = ""


@dataclasses.dataclass(frozen=True, slots=True)
class PointInTimeWindow:
    """One analysis window's response-time profile."""

    start: Micros
    stop: Micros
    count: int
    max_ms: float
    mean_ms: float


def completions_from_traces(
    traces: Iterable[RequestTrace],
) -> list[CompletionSample]:
    """Completion samples from simulator ground-truth traces."""
    samples = []
    for trace in traces:
        if trace.client_receive is None:
            continue
        samples.append(
            CompletionSample(
                completed_at=trace.client_receive,
                response_time_us=trace.response_time(),
                request_id=trace.request_id,
                interaction=trace.interaction,
            )
        )
    samples.sort(key=lambda s: s.completed_at)
    return samples


def completions_from_warehouse(
    db: MScopeDB,
    table: str = "apache_events_web1",
    epoch_us: int = 0,
    start: Micros | None = None,
    stop: Micros | None = None,
) -> list[CompletionSample]:
    """Completion samples from a first-tier event table in mScopeDB.

    The first tier's upstream pair brackets the whole request, so
    ``departure - arrival`` is the server-side response time.
    ``epoch_us`` rebases warehouse epoch timestamps onto simulation
    time (pass the experiment's epoch).

    ``start``/``stop`` (simulation time) restrict the load to requests
    *completing* in ``[start, stop)`` — the windowed-diagnosis path.
    On a sharded warehouse the read is partition-pruned: only shards
    overlapping the window (widened by :data:`IN_FLIGHT_SLACK_US`, so
    boundary-spanning requests are kept) are opened.
    """
    # Rebase/derive in SQL and build tuples via ``_make``: one sample
    # per warehouse request makes the per-row Python work visible in
    # whole-run profiles.
    sql = (
        f"SELECT upstream_departure_us - ?, "
        f"upstream_departure_us - upstream_arrival_us, "
        f"COALESCE(request_id, ''), COALESCE(interaction, '') "
        f"FROM {quote_identifier(table)} "
        f"WHERE upstream_departure_us IS NOT NULL"
    )
    params: list = [epoch_us]
    if start is not None:
        sql += " AND upstream_departure_us >= ?"
        params.append(start + epoch_us)
    if stop is not None:
        sql += " AND upstream_departure_us < ?"
        params.append(stop + epoch_us)
    sql += " ORDER BY upstream_departure_us"
    hint_start = (
        start + epoch_us - IN_FLIGHT_SLACK_US if start is not None else None
    )
    hint_stop = stop + epoch_us if stop is not None else None
    rows = db.query_table(
        table, sql, params, window=(hint_start, hint_stop), merge=merge_sorted(0)
    )
    return list(map(CompletionSample._make, rows))


def point_in_time_response_times(
    samples: list[CompletionSample],
    window_us: Micros,
    start: Micros,
    stop: Micros,
) -> list[PointInTimeWindow]:
    """Max/mean response time per window over ``[start, stop)``."""
    if window_us <= 0:
        raise AnalysisError(f"window must be positive: {window_us}")
    if stop <= start:
        raise AnalysisError(f"analysis span empty: [{start}, {stop})")
    windows: list[PointInTimeWindow] = []
    t = start
    index = 0
    ordered = sorted(samples, key=lambda s: s.completed_at)
    while t < stop:
        end = min(t + window_us, stop)
        bucket: list[Micros] = []
        while index < len(ordered) and ordered[index].completed_at < end:
            if ordered[index].completed_at >= t:
                bucket.append(ordered[index].response_time_us)
            index += 1
        if bucket:
            windows.append(
                PointInTimeWindow(
                    start=t,
                    stop=end,
                    count=len(bucket),
                    max_ms=to_ms(max(bucket)),
                    mean_ms=to_ms(sum(bucket) / len(bucket)),
                )
            )
        else:
            windows.append(PointInTimeWindow(t, end, 0, 0.0, 0.0))
        t = end
    return windows

