"""Causal-path reconstruction (the paper's Figure 5).

Joining the event records that share one request ID across every
tier's table reconstructs the request's execution path explicitly —
establishing happens-before relationships among component servers
*without assumptions about how servers interact*.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.common.errors import AnalysisError, QueryError
from repro.common.timebase import Micros, to_ms
from repro.warehouse.db import MScopeDB, merge_sorted, quote_identifier

__all__ = [
    "CausalHop",
    "CausalPath",
    "reconstruct_path",
    "reconstruct_paths_bulk",
    "discover_tier_tables",
    "DEFAULT_EVENT_TABLES",
]

#: :func:`reconstruct_paths_bulk` switches a tier table from chunked
#: ``IN (...)`` probes to one full columnar scan when the requested id
#: set exceeds this fraction of the table's rows — at that density the
#: scan touches barely more rows than the probes would, without the
#: per-chunk query overhead.
FULL_SCAN_FRACTION = 0.2

_BY_ARRIVAL = attrgetter("upstream_arrival_us")

#: The standard deployment's tier → event table mapping.  A replicated
#: deployment maps a tier to a *list* of per-replica tables instead
#: (see :func:`discover_tier_tables`).
DEFAULT_EVENT_TABLES = {
    "apache": "apache_events_web1",
    "tomcat": "tomcat_events_app1",
    "cjdbc": "cjdbc_events_mid1",
    "mysql": "mysql_events_db1",
}


def _host_of(table: str) -> str | None:
    """The host a ``{tier}_events_{host}`` table belongs to."""
    _, _, host = table.partition("_events_")
    return host or None


def _host_sort_key(table: str) -> tuple[str, int, str]:
    """Order replica tables host-number-aware (db2 before db10)."""
    host = _host_of(table) or table
    prefix = host.rstrip("0123456789")
    digits = host[len(prefix):]
    return (prefix, int(digits) if digits else 0, table)


def _tier_table_pairs(
    tables: "dict[str, str | Sequence[str]]",
) -> list[tuple[str, str]]:
    """Flatten a tier mapping's single-or-list values to (tier, table)."""
    pairs: list[tuple[str, str]] = []
    for tier, value in tables.items():
        if isinstance(value, str):
            pairs.append((tier, value))
        else:
            pairs.extend((tier, table) for table in value)
    return pairs


def discover_tier_tables(db: MScopeDB) -> dict[str, list[str]]:
    """Every tier's event tables actually present in a warehouse.

    A replicated deployment writes one ``{tier}_events_{host}`` table
    per replica; this inspects the catalog so reconstruction and
    diagnosis cover whatever replicas a run actually had (and skip
    tables a sampling policy kept no rows for).
    """
    found: dict[str, list[str]] = {}
    for table in db.tables():
        tier, sep, host = table.partition("_events_")
        if sep and host:
            found.setdefault(tier, []).append(table)
    return {
        tier: sorted(tables, key=_host_sort_key)
        for tier, tables in found.items()
    }


class CausalHop(NamedTuple):
    """One tier visit on a request's path.

    A ``NamedTuple`` rather than a frozen dataclass: a bulk
    reconstruction materializes one hop per event row (150k+ on a 50k
    request warehouse), and tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays.  Same immutability,
    field names, and value equality either way.
    """

    tier: str
    upstream_arrival_us: Micros
    upstream_departure_us: Micros
    downstream_sending_us: Micros | None
    downstream_receiving_us: Micros | None
    #: Host whose event table recorded this visit (``None`` when the
    #: table name has no ``_events_{host}`` suffix) — what lets blame
    #: name a replica.
    host: str | None = None

    def server_time_ms(self) -> float:
        """Total time on this tier visit (ms)."""
        return to_ms(self.upstream_departure_us - self.upstream_arrival_us)

    def local_time_ms(self) -> float:
        """Time on this tier excluding the downstream wait (ms)."""
        total = self.upstream_departure_us - self.upstream_arrival_us
        if (
            self.downstream_sending_us is not None
            and self.downstream_receiving_us is not None
        ):
            total -= self.downstream_receiving_us - self.downstream_sending_us
        return to_ms(total)


@dataclasses.dataclass(slots=True)
class CausalPath:
    """A request's reconstructed execution path."""

    request_id: str
    hops: list[CausalHop]

    def response_time_ms(self) -> float:
        """First-tier server time — the client-visible response time."""
        first = self.hops[0]
        return first.server_time_ms()

    def tier_breakdown_ms(self) -> dict[str, float]:
        """Local (exclusive) time per tier, summed over visits."""
        breakdown: dict[str, float] = {}
        for hop in self.hops:
            breakdown[hop.tier] = breakdown.get(hop.tier, 0.0) + hop.local_time_ms()
        return breakdown

    def dominant_tier(self) -> str:
        """The tier contributing the most exclusive time."""
        breakdown = self.tier_breakdown_ms()
        return max(breakdown, key=breakdown.__getitem__)

    def hosts_per_tier(self) -> dict[str, set[str]]:
        """Distinct hosts visited per logical tier (``None`` excluded)."""
        visited: dict[str, set[str]] = {}
        for hop in self.hops:
            if hop.host is not None:
                visited.setdefault(hop.tier, set()).add(hop.host)
        return visited

    def validate_happens_before(self) -> None:
        """Check every hop lies inside the first hop's span.

        A flat check of global ordering: no hop arrives before the
        first hop arrives or departs after it departs.  It does not
        check that each hop nests inside its own caller's downstream
        window.
        """
        if not self.hops:
            raise AnalysisError(f"request {self.request_id} has no hops")
        first = self.hops[0]
        for hop in self.hops[1:]:
            if hop.upstream_arrival_us < first.upstream_arrival_us:
                raise AnalysisError(
                    f"hop {hop.tier} arrives before the first tier "
                    f"({self.request_id})"
                )
            if hop.upstream_departure_us > first.upstream_departure_us:
                raise AnalysisError(
                    f"hop {hop.tier} departs after the first tier "
                    f"({self.request_id})"
                )


def _hop_selects(db: MScopeDB, table: str) -> tuple[str, str] | None:
    """The downstream-column select fragments for one tier table.

    ``None`` when the table has no ``request_id`` column (resource
    tables share directories with event tables; skip them) or does not
    exist at all — a head-sampling policy that kept zero rows for a
    low-traffic replica never creates its table, and a missing branch
    must degrade to a partial path, not crash the join.  Schema
    lookups hit :meth:`MScopeDB.table_schema`'s cache, so repeated
    reconstructions do not re-read the catalog.
    """
    try:
        columns = {name for name, _ in db.table_schema(table)}
    except QueryError:
        return None
    if "request_id" not in columns:
        return None
    select_ds = (
        "downstream_sending_us" if "downstream_sending_us" in columns else "NULL"
    )
    select_dr = (
        "downstream_receiving_us"
        if "downstream_receiving_us" in columns
        else "NULL"
    )
    return select_ds, select_dr


def reconstruct_path(
    db: MScopeDB,
    request_id: str,
    tier_tables: "dict[str, str | Sequence[str]] | None" = None,
) -> CausalPath:
    """Join one request's records across every tier (and replica) table.

    The one-id call of :func:`reconstruct_paths_bulk`; raises
    :class:`AnalysisError` when no tier table holds ``request_id``.
    """
    (path,) = reconstruct_paths_bulk(db, [request_id], tier_tables, strict=True)
    return path


def reconstruct_paths_bulk(
    db: MScopeDB,
    request_ids: Iterable[str],
    tier_tables: "dict[str, str | Sequence[str]] | None" = None,
    *,
    strict: bool = False,
    full_scan_fraction: float = FULL_SCAN_FRACTION,
) -> Iterator[CausalPath]:
    """Reconstruct many requests' paths with one read per tier table.

    Instead of N×T point queries (N requests, T tiers), each tier table
    is fetched **once** — chunked ``WHERE request_id IN (...)`` probes
    against the importer's ``request_id`` index, or a single full
    columnar scan when the id set covers more than
    ``full_scan_fraction`` of the table — and hops are grouped in dicts.
    Yields paths in first-seen ``request_ids`` order (duplicates
    collapse); each path's hops are sorted by arrival, ties kept in
    tier-table then rowid order, whichever read strategy ran.

    Ids found in no tier table are skipped, unless ``strict`` — then
    the first missing id raises :class:`AnalysisError`.
    """
    tables = tier_tables or DEFAULT_EVENT_TABLES
    ids = list(dict.fromkeys(request_ids))
    if not ids:
        return
    wanted = set(ids)
    hops_by_id: dict[str, list[CausalHop]] = {rid: [] for rid in ids}
    # Both reads select (request_id, arrival, ...); the stable merge
    # keeps rowid order among equal arrivals.
    by_arrival = merge_sorted(1)
    for tier, table in _tier_table_pairs(tables):
        selects = _hop_selects(db, table)
        if selects is None:
            continue
        select_ds, select_dr = selects
        host = _host_of(table)
        select = (
            f"SELECT request_id, upstream_arrival_us, upstream_departure_us, "
            f"{select_ds}, {select_dr} FROM {quote_identifier(table)}"
        )
        if len(ids) >= full_scan_fraction * db.row_count(table):
            # Dense id set: one sequential scan beats thousands of
            # index probes.  ORDER BY (arrival, rowid) matches the
            # probe path, so per-id hop order is identical either way.
            rows = db.query_table(
                table,
                f"{select} ORDER BY upstream_arrival_us, rowid",
                merge=by_arrival,
            )
            rows = (row for row in rows if row[0] in wanted)
        else:
            rows = db.query_in_chunks(
                table,
                f"{select} WHERE request_id IN ({{placeholders}}) "
                f"ORDER BY upstream_arrival_us, rowid",
                ids,
                merge=by_arrival,
            )
        for request_id, arrival, departure, sending, receiving in rows:
            hops_by_id[request_id].append(
                CausalHop(tier, arrival, departure, sending, receiving, host)
            )
    for request_id in ids:
        hops = hops_by_id[request_id]
        if not hops:
            if strict:
                raise AnalysisError(
                    f"request {request_id!r} not found in any tier table"
                )
            continue
        # Stable sort over per-tier runs already in (arrival, rowid)
        # order: ties keep tier-table order, then rowid order.
        hops.sort(key=_BY_ARRIVAL)
        yield CausalPath(request_id=request_id, hops=hops)
