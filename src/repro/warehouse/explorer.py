"""High-level exploration of a populated mScopeDB.

The paper's §III-C motivation: "researchers might wonder if any disk
activities happen during the period when Point-In-Time response time
fluctuates heavily ... with mScopeDB, researchers are able to explore
the disk utilization scenario across different component nodes".  The
:class:`WarehouseExplorer` is that interface — the handful of queries
an investigation actually needs, without writing SQL.
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import QueryError
from repro.common.timebase import Micros
from repro.warehouse.db import MScopeDB, merge_sorted, quote_identifier

__all__ = [
    "WarehouseExplorer",
    "InteractionStats",
    "SlowRequest",
    "slowest_requests_sql",
    "interaction_stats_sql",
]

#: A front-tier request's server-side response time.
RESPONSE_TIME_SQL = "upstream_departure_us - upstream_arrival_us"


def slowest_requests_sql(front_table: str) -> str:
    """The ``slowest_requests`` SQL (shared with the query-plan tests).

    A scan with a top-``n`` sort, ties in ``rowid`` order: it runs
    once per ``mscope report``, which reads the whole front table
    anyway, so no index (which every live insert would pay for) is
    kept for it.
    """
    return (
        f"SELECT request_id, interaction, "
        f"{RESPONSE_TIME_SQL} AS rt, "
        f"upstream_departure_us "
        f"FROM {quote_identifier(front_table)} "
        f"WHERE upstream_departure_us IS NOT NULL "
        f"ORDER BY rt DESC, rowid LIMIT ?"
    )


def interaction_stats_sql(front_table: str) -> str:
    """The ``interaction_stats`` SQL (shared with the query-plan tests).

    A scan, as :func:`slowest_requests_sql` says.  ``SUM``, not
    ``AVG``: per-shard partials must combine
    (:func:`_combine_interaction_partials`), and an average of
    averages is not the average.
    """
    return (
        f"SELECT interaction, COUNT(*), "
        f"SUM({RESPONSE_TIME_SQL}), "
        f"MAX({RESPONSE_TIME_SQL}) "
        f"FROM {quote_identifier(front_table)} "
        f"WHERE upstream_departure_us IS NOT NULL "
        f"GROUP BY interaction"
    )


def _combine_interaction_partials(parts: list[list[tuple]]) -> list[tuple]:
    """The ``merge`` of :func:`interaction_stats_sql`: one ``(group,
    count, sum, max)`` row per group out of every shard's."""
    combined: dict[str | None, tuple] = {}
    for part in parts:
        for group, count, total, peak in part:
            seen = combined.get(group)
            if seen is not None:
                count += seen[1]
                total += seen[2]
                peak = max(peak, seen[3])
            combined[group] = (group, count, total, peak)
    return list(combined.values())


@dataclasses.dataclass(frozen=True, slots=True)
class InteractionStats:
    """Aggregate response-time statistics of one interaction type."""

    interaction: str
    count: int
    mean_ms: float
    max_ms: float


@dataclasses.dataclass(frozen=True, slots=True)
class SlowRequest:
    """One of the slowest requests in the warehouse."""

    request_id: str
    interaction: str
    response_ms: float
    completed_at_us: Micros


class WarehouseExplorer:
    """Convenience queries over event and resource tables.

    Parameters
    ----------
    db:
        The populated warehouse.
    front_table:
        The first tier's event table (response times come from its
        upstream pair).
    epoch_us:
        Offset rebasing warehouse wall timestamps to simulation time.
    """

    def __init__(
        self,
        db: MScopeDB,
        front_table: str = "apache_events_web1",
        epoch_us: int = 0,
    ) -> None:
        self.db = db
        self.front_table = front_table
        self.epoch_us = epoch_us
        if front_table not in db.tables():
            raise QueryError(f"front table {front_table!r} not in the warehouse")

    # ------------------------------------------------------------------
    # requests

    def slowest_requests(self, n: int = 10) -> list[SlowRequest]:
        """The ``n`` slowest requests, slowest first."""
        rows = self.db.query_table(
            self.front_table,
            slowest_requests_sql(self.front_table),
            (n,),
            merge=merge_sorted(2, descending=True, limit=n),
        )
        return [
            SlowRequest(
                request_id=request_id or "",
                interaction=interaction or "",
                response_ms=rt / 1000.0,
                completed_at_us=departure - self.epoch_us,
            )
            for request_id, interaction, rt, departure in rows
        ]

    def interaction_stats(self) -> list[InteractionStats]:
        """Per-interaction response-time aggregates, slowest mean first."""
        rows = self.db.query_table(
            self.front_table,
            interaction_stats_sql(self.front_table),
            merge=_combine_interaction_partials,
        )
        stats = [
            InteractionStats(
                interaction=interaction or "",
                count=count,
                mean_ms=total / count / 1000.0,
                max_ms=peak / 1000.0,
            )
            for interaction, count, total, peak in rows
        ]
        # Ordered here, for both layouts: the mean does not exist
        # until the per-shard sums are combined.
        stats.sort(key=lambda s: (-s.mean_ms, s.interaction))
        return stats

    def request_flow(self, request_id: str) -> list[tuple]:
        """Every event record of one request, across all event tables.

        Returns ``(table, arrival_us, departure_us)`` rows ordered by
        arrival — the raw material of the paper's Figure 5.
        """
        flows: list[tuple] = []
        for table in self.event_tables():
            columns = {name for name, _ in self.db.table_schema(table)}
            if "request_id" not in columns:
                continue
            rows = self.db.query_table(
                table,
                f"SELECT upstream_arrival_us, upstream_departure_us "
                f"FROM {quote_identifier(table)} WHERE request_id = ?",
                (request_id,),
            )
            flows.extend(
                (table, arrival - self.epoch_us, departure - self.epoch_us)
                for arrival, departure in rows
            )
        flows.sort(key=lambda row: row[1])
        return flows

    # ------------------------------------------------------------------
    # catalog

    def event_tables(self) -> list[str]:
        """Dynamic tables holding event-monitor records."""
        return [
            table
            for table in self.db.dynamic_tables()
            if "upstream_arrival_us"
            in {name for name, _ in self.db.table_schema(table)}
        ]

    def resource_tables(self) -> list[str]:
        """Dynamic tables holding resource-monitor samples."""
        event = set(self.event_tables())
        return [
            table
            for table in self.db.dynamic_tables()
            if table not in event
            and "timestamp_us" in {name for name, _ in self.db.table_schema(table)}
        ]

    def hosts(self) -> list[str]:
        """Hosts registered in the static configuration table."""
        return [row[0] for row in self.db.query(
            "SELECT hostname FROM host_config ORDER BY hostname"
        )]

    # ------------------------------------------------------------------
    # pipeline telemetry

    def pipeline_metrics(self):
        """The telemetry the loading pipeline persisted, aggregated.

        Returns a :class:`~repro.telemetry.aggregate.RunTelemetry`
        (per-stage latency histograms, per-worker utilization) rebuilt
        from the ``pipeline_metrics`` / ``pipeline_workers`` tables,
        or ``None`` when the transform ran with telemetry off.  Render
        it with :func:`repro.telemetry.export.render_json` /
        ``render_prometheus`` / ``render_text``.
        """
        from repro.telemetry.aggregate import RunTelemetry

        return RunTelemetry.from_db(self.db)

    # ------------------------------------------------------------------
    # metrics

    def metric_timeline(
        self,
        table: str,
        column: str,
        start: Micros | None = None,
        stop: Micros | None = None,
    ) -> list[tuple[Micros, float]]:
        """A rebased ``(time, value)`` series from one resource table."""
        shifted_start = None if start is None else start + self.epoch_us
        shifted_stop = None if stop is None else stop + self.epoch_us
        rows = self.db.fetch_series(
            table, "timestamp_us", column, shifted_start, shifted_stop
        )
        return [(t - self.epoch_us, v) for t, v in rows]

    def busiest_window(
        self, table: str, column: str, window_us: Micros
    ) -> tuple[Micros, float]:
        """The window start with the highest mean of ``column``."""
        series = self.metric_timeline(table, column)
        if not series:
            raise QueryError(f"{table}.{column} has no samples")
        best_start: Micros = series[0][0]
        best_mean = float("-inf")
        for start_index, (start_time, _) in enumerate(series):
            values = []
            j = start_index
            while j < len(series) and series[j][0] < start_time + window_us:
                values.append(series[j][1])
                j += 1
            mean = sum(values) / len(values)
            if mean > best_mean:
                best_mean = mean
                best_start = start_time
        return best_start, best_mean
