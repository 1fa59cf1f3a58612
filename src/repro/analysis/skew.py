"""Clock-skew estimation and correction from event logs.

milliScope joins timestamps written by *different machines*; the
paper's testbed was NTP-disciplined, but in the wild per-node clock
offsets corrupt cross-node happens-before relations and latency
attribution.  The event monitors' four timestamps fortunately contain
enough redundancy to estimate the offsets back out:

For one downstream call, the caller logs ``DS`` (sending) and ``DR``
(receiving) on its clock while the callee logs ``UA`` (arrival) and
``UD`` (departure) on its own.  With symmetric network legs, the NTP
offset equation gives the callee clock's offset relative to the
caller's::

    theta = ((UA - DS) - (DR - UD)) / 2

Each matching (caller visit, callee visit) pair yields one ``theta``
sample; the median over thousands of requests is a robust estimate.
Chaining the pairwise estimates down the tier pipeline yields every
tier's offset relative to the front tier.
"""

from __future__ import annotations

import dataclasses
import statistics

from repro.common.errors import AnalysisError
from repro.warehouse.db import MScopeDB, merge_sorted, quote_identifier

__all__ = ["SkewEstimate", "estimate_pairwise_offset", "estimate_tier_offsets"]


@dataclasses.dataclass(frozen=True, slots=True)
class SkewEstimate:
    """Estimated clock offsets relative to the front tier (µs)."""

    offsets_us: dict[str, int]
    sample_counts: dict[str, int]

    def offset_of(self, tier: str) -> int:
        """The tier's estimated offset (0 for the front tier)."""
        try:
            return self.offsets_us[tier]
        except KeyError:
            raise AnalysisError(f"no offset estimated for tier {tier!r}") from None

    def to_text(self) -> str:
        lines = ["Estimated clock offsets (relative to the front tier):"]
        for tier, offset in self.offsets_us.items():
            count = self.sample_counts.get(tier, 0)
            lines.append(
                f"  {tier:8s} {offset / 1000.0:+8.3f} ms "
                f"({count} request pairs)"
            )
        return "\n".join(lines)


def _visits(db: MScopeDB, table: str) -> dict[str, list[tuple]]:
    """request_id → [(ua, ud, ds, dr), ...] ordered by arrival."""
    columns = {name for name, _ in db.table_schema(table)}
    if "request_id" not in columns:
        raise AnalysisError(f"table {table!r} has no request_id column")
    select_ds = (
        "downstream_sending_us" if "downstream_sending_us" in columns else "NULL"
    )
    select_dr = (
        "downstream_receiving_us"
        if "downstream_receiving_us" in columns
        else "NULL"
    )
    rows = db.query_table(
        table,
        f"SELECT request_id, upstream_arrival_us, upstream_departure_us, "
        f"{select_ds}, {select_dr} FROM {quote_identifier(table)} "
        f"WHERE upstream_departure_us IS NOT NULL "
        f"ORDER BY request_id, upstream_arrival_us",
        merge=merge_sorted(0, 1),
    )
    grouped: dict[str, list[tuple]] = {}
    for request_id, ua, ud, ds, dr in rows:
        grouped.setdefault(request_id, []).append((ua, ud, ds, dr))
    return grouped


def estimate_pairwise_offset(
    db: MScopeDB,
    caller_table: str,
    callee_table: str,
    max_pairs: int = 5_000,
) -> tuple[float, int]:
    """Callee clock offset relative to the caller (µs), plus sample count.

    Matches caller visits to callee visits per request by order (the
    k-th downstream call lands as the k-th callee visit — calls are
    sequential) and applies the NTP offset equation to each pair.
    """
    caller_visits = _visits(db, caller_table)
    callee_visits = _visits(db, callee_table)
    thetas: list[float] = []
    for request_id, caller_list in caller_visits.items():
        callee_list = callee_visits.get(request_id)
        if not callee_list:
            continue
        # Only the unambiguous case: equal visit counts pair by order.
        callers_with_calls = [
            v for v in caller_list if v[2] is not None and v[3] is not None
        ]
        if len(callers_with_calls) != len(callee_list):
            continue
        for (c_ua, c_ud, ds, dr), (e_ua, e_ud, _, _) in zip(
            callers_with_calls, callee_list
        ):
            theta = ((e_ua - ds) - (dr - e_ud)) / 2.0
            thetas.append(theta)
            if len(thetas) >= max_pairs:
                break
        if len(thetas) >= max_pairs:
            break
    if len(thetas) < 10:
        raise AnalysisError(
            f"too few caller/callee pairs between {caller_table!r} and "
            f"{callee_table!r} ({len(thetas)})"
        )
    return statistics.median(thetas), len(thetas)


def estimate_tier_offsets(
    db: MScopeDB,
    tier_tables: dict[str, str] | None = None,
) -> SkewEstimate:
    """Offsets of every tier relative to the first, chained pairwise.

    ``tier_tables`` must be in upstream-to-downstream order (the
    default four-tier mapping is).
    """
    from repro.analysis.causal import DEFAULT_EVENT_TABLES

    tables = tier_tables or dict(DEFAULT_EVENT_TABLES)
    present = set(db.tables())
    ordered = [(t, tab) for t, tab in tables.items() if tab in present]
    if len(ordered) < 2:
        raise AnalysisError("need at least two tier tables to estimate skew")
    offsets: dict[str, int] = {ordered[0][0]: 0}
    counts: dict[str, int] = {ordered[0][0]: 0}
    running = 0.0
    for (caller_tier, caller_table), (callee_tier, callee_table) in zip(
        ordered, ordered[1:]
    ):
        pairwise, count = estimate_pairwise_offset(db, caller_table, callee_table)
        running += pairwise
        offsets[callee_tier] = round(running)
        counts[callee_tier] = count
    return SkewEstimate(offsets_us=offsets, sample_counts=counts)
