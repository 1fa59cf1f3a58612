"""Per-tier instantaneous queue lengths from boundary timestamps.

The paper derives each tier's *queue length* — the number of requests
that have arrived but not yet departed — purely from the event
mScopeMonitors' four timestamps (Figures 6, 8b, 9).  Because the
monitors trace **every** request, the count is exact, not a sampled
estimate; that exactness is milliScope's argument against
sampling-based tracers.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import AnalysisError
from repro.common.records import RequestTrace
from repro.common.timebase import Micros
from repro.analysis.series import Series
from repro.warehouse.db import MScopeDB, quote_identifier

__all__ = [
    "spans_from_warehouse",
    "spans_from_traces",
    "concurrency_from_sorted",
    "concurrency_series",
    "tier_queue_lengths",
]

Span = tuple[Micros, Micros]


def spans_from_warehouse(
    db: MScopeDB, table: str, epoch_us: int = 0
) -> list[Span]:
    """``(arrival, departure)`` spans from one tier's event table."""
    rows = db.query_table(
        table,
        f"SELECT upstream_arrival_us, upstream_departure_us "
        f"FROM {quote_identifier(table)} "
        f"WHERE upstream_departure_us IS NOT NULL",
    )
    return [(a - epoch_us, d - epoch_us) for a, d in rows]


def spans_from_traces(traces: list[RequestTrace], tier: str) -> list[Span]:
    """``(arrival, departure)`` spans for one tier from ground truth."""
    spans: list[Span] = []
    for trace in traces:
        for visit in trace.visits_for(tier):
            if visit.upstream_departure is not None:
                spans.append((visit.upstream_arrival, visit.upstream_departure))
    return spans


def concurrency_from_sorted(
    arrivals: np.ndarray,
    departures: np.ndarray,
    start: Micros,
    stop: Micros,
    step: Micros,
) -> Series:
    """Concurrency at each grid point, from pre-sorted boundary arrays.

    The kernel behind :func:`concurrency_series`, split out so the
    :class:`~repro.analysis.cache.SeriesCache` can sort each tier's
    boundary arrays once per diagnosis run and re-grid every anomaly
    window against them with two ``searchsorted`` calls.
    """
    if step <= 0:
        raise AnalysisError(f"grid step must be positive: {step}")
    if stop <= start:
        raise AnalysisError(f"grid span empty: [{start}, {stop})")
    grid = np.arange(start, stop, step, dtype=np.int64)
    if not len(arrivals):
        return Series(grid, np.zeros(len(grid)))
    arrived = np.searchsorted(arrivals, grid, side="right")
    departed = np.searchsorted(departures, grid, side="right")
    return Series(grid, (arrived - departed).astype(float))


def concurrency_series(
    spans: list[Span],
    start: Micros,
    stop: Micros,
    step: Micros,
) -> Series:
    """Number of concurrent spans at each grid point in ``[start, stop)``.

    A span covers grid point ``t`` when ``arrival <= t < departure``.
    """
    if not spans:
        arrivals = np.array([], dtype=np.int64)
        departures = np.array([], dtype=np.int64)
    else:
        arrivals = np.sort(np.array([s[0] for s in spans], dtype=np.int64))
        departures = np.sort(np.array([s[1] for s in spans], dtype=np.int64))
    return concurrency_from_sorted(arrivals, departures, start, stop, step)


def tier_queue_lengths(
    db: MScopeDB,
    tier_tables: "dict[str, str | list[str]]",
    start: Micros,
    stop: Micros,
    step: Micros,
    epoch_us: int = 0,
) -> dict[str, Series]:
    """Queue-length series for several tiers from warehouse tables.

    ``tier_tables`` maps tier name → event table name(s).  A list of
    tables (a replicated tier's per-host tables, e.g.
    ``["tomcat_events_app1", "tomcat_events_app2"]``) aggregates into
    one logical-tier series.
    """
    result: dict[str, Series] = {}
    for tier, tables in tier_tables.items():
        if isinstance(tables, str):
            tables = [tables]
        spans: list[Span] = []
        for table in tables:
            spans.extend(spans_from_warehouse(db, table, epoch_us))
        result[tier] = concurrency_series(spans, start, stop, step)
    return result
