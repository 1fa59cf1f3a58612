"""Resource-metric access over mScopeDB.

Builds metric series from the warehouse's dynamically created resource
tables and enumerates root-cause *candidates* from the monitor
registry — the same discovery path a researcher follows interactively
("what did Collectl see on db1 during this window?").
"""

from __future__ import annotations

import dataclasses

from repro.analysis.series import Series
from repro.common.errors import AnalysisError
from repro.warehouse.db import MScopeDB, merge_sorted, quote_identifier

__all__ = ["MetricCandidate", "metric_series", "discover_candidates"]


@dataclasses.dataclass(frozen=True, slots=True)
class MetricCandidate:
    """One potential root-cause metric on one host."""

    hostname: str
    table: str
    columns: tuple[str, ...]
    kind: str  # "disk_util" | "cpu_busy" | "dirty_pages"
    label: str


def metric_series(
    db: MScopeDB,
    table: str,
    columns: tuple[str, ...],
    epoch_us: int = 0,
    start: int | None = None,
    stop: int | None = None,
) -> Series:
    """A series summing one or more numeric columns of a resource table.

    ``start``/``stop`` are simulation-time bounds on the load.  Metric
    tables partition on ``timestamp_us``, the very column bounded
    here, so on a sharded warehouse the read prunes exactly to the
    overlapping shards.
    """
    if not columns:
        raise AnalysisError("metric_series needs at least one column")
    wh_start = start + epoch_us if start is not None else None
    wh_stop = stop + epoch_us if stop is not None else None
    summed = " + ".join(
        f"COALESCE({quote_identifier(c)}, 0)" for c in columns
    )
    sql = f"SELECT timestamp_us, {summed} FROM {quote_identifier(table)}"
    conditions = []
    params: list = []
    if wh_start is not None:
        conditions.append("timestamp_us >= ?")
        params.append(wh_start)
    if wh_stop is not None:
        conditions.append("timestamp_us < ?")
        params.append(wh_stop)
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    sql += " ORDER BY timestamp_us"
    rows = db.query_table(
        table, sql, params, window=(wh_start, wh_stop), merge=merge_sorted(0)
    )
    return Series.from_pairs((t - epoch_us, float(v)) for t, v in rows)


#: Metric kinds recognized per monitor table, by column availability.
_KIND_RULES: list[tuple[str, tuple[str, ...], str]] = [
    ("disk_util", ("dsk_pctutil",), "disk utilization (collectl)"),
    ("disk_util", ("util_pct",), "disk utilization (iostat)"),
    ("cpu_busy", ("cpu_user_pct", "cpu_sys_pct", "cpu_wait_pct"), "CPU busy (collectl)"),
    ("cpu_busy", ("user_pct", "system_pct", "iowait_pct"), "CPU busy (sar)"),
    ("cpu_steal", ("steal_pct",), "CPU steal (sar)"),
    ("dirty_pages", ("mem_dirty",), "dirty page cache (collectl)"),
]


def discover_candidates(db: MScopeDB) -> list[MetricCandidate]:
    """Enumerate root-cause candidates from the monitor registry.

    For every (resource-monitor table, host) pair, each metric kind
    whose columns the table actually has becomes one candidate.
    """
    rows = db.query(
        "SELECT DISTINCT hostname, table_name FROM monitor_registry"
    )
    candidates: list[MetricCandidate] = []
    seen: set[tuple[str, str, str]] = set()
    for hostname, table in rows:
        columns = {name for name, _ in db.table_schema(table)}
        if "timestamp_us" not in columns:
            continue
        for kind, needed, label in _KIND_RULES:
            if not all(c in columns for c in needed):
                continue
            key = (hostname, kind, table)
            if key in seen:
                continue
            seen.add(key)
            candidates.append(
                MetricCandidate(
                    hostname=hostname,
                    table=table,
                    columns=needed,
                    kind=kind,
                    label=f"{hostname}: {label}",
                )
            )
    return candidates
