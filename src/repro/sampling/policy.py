"""Pluggable log-volume-reduction policies.

Three policies, all operating on converted :class:`CsvTable` batches.
One caller applies them: the write stage,
:class:`~repro.transformer.importer.MScopeDataImporter`, which batch,
live, sharded and serve ingest all load through — it calls ``apply``
on every table, ledgers ``counts`` beside the rows it loads, and loads
what ``flush`` releases:

* :class:`HeadSamplingPolicy` — keep a request iff a *coherent* hash of
  its request id falls under the rate.  The hash is process- and
  host-independent, so every tier keeps the same request set and each
  sampled-in causal path survives intact.
* :class:`TailSamplingPolicy` — defer each request's records in a
  bounded buffer; the moment any record shows an end-to-end span over
  the VLRT threshold the whole request is committed (retroactively,
  across every tier), while non-VLRT requests fall back to a coherent
  base rate at flush/eviction time.
* :class:`ConflationPolicy` — keep a coherent exemplar fraction per
  request class (the RUBBoS interaction mix gives the classes) and fold
  the rest into per-class count/latency aggregates destined for the
  ``conflated_requests`` table.

Every policy *counts* what it drops — per ``(table, source)`` rows and
bytes seen/kept — so the warehouse's ``sampling_ledger`` measures the
volume reduction instead of estimating it.  Decisions are pure
functions of the request id (plus explicit policy state), never of
Python's salted ``hash()``, so a policy applied in a worker process
agrees with the same policy applied in the parent.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.common.errors import AnalysisError
from repro.transformer.xml_to_csv import CsvTable

__all__ = [
    "ConflationPolicy",
    "HeadSamplingPolicy",
    "SampleCounts",
    "SamplingPolicy",
    "TailSamplingPolicy",
    "coherent_keep",
    "parse_policy",
    "row_bytes",
]

_HASH_SPAN = float(2**64)

_REQUEST_ID = "request_id"
_ARRIVAL = "upstream_arrival_us"
_DEPARTURE = "upstream_departure_us"
_INTERACTION = "interaction"


def coherent_keep(request_id: str, rate: float) -> bool:
    """Keep decision for ``request_id`` at ``rate``, coherent everywhere.

    blake2b of the id mapped onto [0, 1): stable across processes,
    hosts, and Python invocations (unlike the salted builtin ``hash``),
    so all tiers of one request make the same decision.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = hashlib.blake2b(
        request_id.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / _HASH_SPAN < rate


def row_bytes(row: tuple) -> int:
    """Deterministic encoded size of one record (value text + separators).

    A pure function of the row, so ledgers agree byte for byte
    whichever layout or split loaded the rows.
    """
    return sum(len(str(value)) for value in row) + len(row)


@dataclasses.dataclass(slots=True)
class SampleCounts:
    """Cumulative ledger counts for one ``(table, source)`` stream."""

    rows_seen: int = 0
    rows_kept: int = 0
    bytes_seen: int = 0
    bytes_kept: int = 0


class SamplingPolicy:
    """Base class: shared counting plus the policy protocol.

    ``apply`` filters one converted table and returns it (rows may be
    withheld into policy state); ``flush`` releases whatever a stateful
    policy still buffers.  Policies run in the importer, the
    pipeline's one writer, so a stateful policy sees every tier.
    """

    #: Canonical spec string (``parse_policy`` round-trips it).
    spec: str = "none"

    def __init__(self) -> None:
        #: Cumulative counts keyed by ``(table_name, source_path)``.
        self.counts: dict[tuple[str, str], SampleCounts] = {}

    def _counts_for(self, table: CsvTable) -> SampleCounts:
        key = (table.name, table.source)
        entry = self.counts.get(key)
        if entry is None:
            entry = self.counts[key] = SampleCounts()
        return entry

    def apply(self, table: CsvTable) -> CsvTable:
        raise NotImplementedError

    def flush(self) -> list[CsvTable]:
        """Release buffered rows, one table per ``(table, source)``
        stream (stateless policies return nothing)."""
        return []

    def conflated_rows(self) -> list[tuple[str, str, int, int, int, int, int]]:
        """Cumulative ``conflated_requests`` rows (conflation only)."""
        return []

    @property
    def sampled_keys(self) -> list[tuple[str, str]]:
        """Every ``(table, source)`` this policy made decisions for."""
        return sorted(self.counts)


def _column_index(table: CsvTable, name: str) -> int | None:
    try:
        return table.column_names.index(name)
    except ValueError:
        return None


def _span_us(row: tuple, arrival: int | None, departure: int | None) -> int:
    if arrival is None or departure is None:
        return 0
    try:
        return int(row[departure]) - int(row[arrival])
    except (TypeError, ValueError):
        return 0


class HeadSamplingPolicy(SamplingPolicy):
    """Keep each request with probability ``rate``, decided at the head.

    The decision is a pure function of the request id, so it is
    trivially split-invariant for live ingest: however the byte stream
    is partitioned into refreshes, the kept set is identical.
    """

    def __init__(self, rate: float) -> None:
        super().__init__()
        if not 0.0 < rate <= 1.0:
            raise AnalysisError(f"head sampling rate out of (0, 1]: {rate}")
        self.rate = rate
        self.spec = f"head:{rate:g}"

    def apply(self, table: CsvTable) -> CsvTable:
        rid = _column_index(table, _REQUEST_ID)
        if rid is None:
            return table
        entry = self._counts_for(table)
        kept: list[tuple] = []
        for row in table.rows:
            size = row_bytes(row)
            entry.rows_seen += 1
            entry.bytes_seen += size
            if coherent_keep(str(row[rid]), self.rate):
                entry.rows_kept += 1
                entry.bytes_kept += size
                kept.append(row)
        return dataclasses.replace(table, rows=kept)


class TailSamplingPolicy(SamplingPolicy):
    """Always-keep-VLRT tail sampling with a bounded deferral buffer.

    Records are withheld per request until the request's fate is known:
    any record whose upstream span crosses ``threshold_us`` marks the
    request VLRT and every buffered record of that request — on every
    tier — is retroactively committed at flush, as are all its later
    records immediately.  Requests that never cross the threshold fall
    back to a coherent ``base_rate`` keep decision at flush or when the
    buffer evicts them (oldest first, ``max_requests`` bound).
    """

    def __init__(
        self,
        base_rate: float,
        threshold_us: int,
        max_requests: int = 65536,
    ) -> None:
        super().__init__()
        if not 0.0 <= base_rate <= 1.0:
            raise AnalysisError(f"tail base rate out of [0, 1]: {base_rate}")
        if threshold_us <= 0:
            raise AnalysisError(f"tail threshold must be positive: {threshold_us}")
        if max_requests < 1:
            raise AnalysisError(f"tail buffer bound must be >= 1: {max_requests}")
        self.base_rate = base_rate
        self.threshold_us = threshold_us
        self.max_requests = max_requests
        self.spec = (
            f"tail:{base_rate:g}:{threshold_us // 1000:g}"
            if threshold_us % 1000 == 0
            else f"tail:{base_rate:g}:{threshold_us / 1000:g}"
        )
        #: request id -> keep decision, once made (True = keep forever).
        self._decided: dict[str, bool] = {}
        #: request id -> buffered (table, source, row), insertion-ordered.
        self._buffer: dict[str, list[tuple[str, str, tuple]]] = {}
        #: (table, source) -> (columns, monitor) for flush-time rebuild.
        self._table_info: dict[tuple[str, str], tuple[list, str]] = {}
        #: rows settled as keepers, awaiting the next flush().
        self._flushable: dict[tuple[str, str], list[tuple]] = {}

    @property
    def pending_requests(self) -> int:
        """Requests currently deferred (observable in serve /stats)."""
        return len(self._buffer)

    def apply(self, table: CsvTable) -> CsvTable:
        rid_idx = _column_index(table, _REQUEST_ID)
        if rid_idx is None:
            return table
        arrival = _column_index(table, _ARRIVAL)
        departure = _column_index(table, _DEPARTURE)
        entry = self._counts_for(table)
        key = (table.name, table.source)
        self._table_info[key] = (list(table.columns), table.monitor)
        kept: list[tuple] = []
        for row in table.rows:
            size = row_bytes(row)
            entry.rows_seen += 1
            entry.bytes_seen += size
            rid = str(row[rid_idx])
            decided = self._decided.get(rid)
            if decided is None and _span_us(row, arrival, departure) >= (
                self.threshold_us
            ):
                # The request just proved VLRT: it (and everything it
                # already buffered on other tiers) is kept from here on.
                self._commit_request(rid)
                decided = True
            if decided is True:
                entry.rows_kept += 1
                entry.bytes_kept += size
                kept.append(row)
            elif decided is False:
                continue
            else:
                self._buffer.setdefault(rid, []).append(
                    (table.name, table.source, row)
                )
                self._evict_over_bound()
        return dataclasses.replace(table, rows=kept)

    def _commit_request(self, rid: str) -> None:
        """Retroactively keep everything this request already buffered.

        Moving the rows out of the deferral buffer *now* matters: a
        later flush settles whatever is still buffered at the base
        rate, which would overwrite the VLRT keep decision.
        """
        self._decided[rid] = True
        for table_name, source, row in self._buffer.pop(rid, []):
            entry = self.counts[(table_name, source)]
            entry.rows_kept += 1
            entry.bytes_kept += row_bytes(row)
            self._flushable.setdefault((table_name, source), []).append(row)

    def _evict_over_bound(self) -> None:
        while len(self._buffer) > self.max_requests:
            rid = next(iter(self._buffer))
            self._settle(rid)

    def _settle(self, rid: str) -> None:
        """Make the base-rate decision for a deferred request."""
        keep = coherent_keep(rid, self.base_rate)
        self._decided[rid] = keep
        rows = self._buffer.pop(rid)
        if not keep:
            return
        for table_name, source, row in rows:
            entry = self.counts[(table_name, source)]
            entry.rows_kept += 1
            entry.bytes_kept += row_bytes(row)
            self._flushable.setdefault((table_name, source), []).append(row)

    def flush(self) -> list[CsvTable]:
        for rid in list(self._buffer):
            self._settle(rid)
        released = self._flushable
        tables: list[CsvTable] = []
        for key in sorted(released):
            table_name, source = key
            columns, monitor = self._table_info[key]
            tables.append(
                CsvTable(
                    name=table_name,
                    columns=columns,
                    rows=released[key],
                    monitor=monitor,
                    source=source,
                )
            )
        released.clear()
        return tables


class ConflationPolicy(SamplingPolicy):
    """Per-class exemplars plus count/latency aggregates for the rest.

    Request classes are the values of the ``interaction`` column — for
    RUBBoS front-tier logs that is the paper's 24-interaction mix —
    with ``""`` as the class for tables that carry no interaction tag.
    A coherent ``exemplar_rate`` fraction of requests keep their full
    records; all other rows are dropped and folded into cumulative
    per-``(table, class)`` aggregates served by ``conflated_rows``.
    """

    def __init__(self, exemplar_rate: float) -> None:
        super().__init__()
        if not 0.0 < exemplar_rate <= 1.0:
            raise AnalysisError(
                f"conflation exemplar rate out of (0, 1]: {exemplar_rate}"
            )
        self.exemplar_rate = exemplar_rate
        self.spec = f"conflate:{exemplar_rate:g}"
        #: (table, class) -> [rid set, records, latency sum, min, max]
        self._aggregates: dict[tuple[str, str], list] = {}

    def apply(self, table: CsvTable) -> CsvTable:
        rid_idx = _column_index(table, _REQUEST_ID)
        if rid_idx is None:
            return table
        arrival = _column_index(table, _ARRIVAL)
        departure = _column_index(table, _DEPARTURE)
        interaction = _column_index(table, _INTERACTION)
        entry = self._counts_for(table)
        kept: list[tuple] = []
        for row in table.rows:
            size = row_bytes(row)
            entry.rows_seen += 1
            entry.bytes_seen += size
            rid = str(row[rid_idx])
            if coherent_keep(rid, self.exemplar_rate):
                entry.rows_kept += 1
                entry.bytes_kept += size
                kept.append(row)
                continue
            klass = (
                str(row[interaction]) if interaction is not None else ""
            )
            span = _span_us(row, arrival, departure)
            agg = self._aggregates.get((table.name, klass))
            if agg is None:
                agg = self._aggregates[(table.name, klass)] = [
                    set(), 0, 0, span, span,
                ]
            agg[0].add(rid)
            agg[1] += 1
            agg[2] += span
            agg[3] = min(agg[3], span)
            agg[4] = max(agg[4], span)
        return dataclasses.replace(table, rows=kept)

    def conflated_rows(self) -> list[tuple[str, str, int, int, int, int, int]]:
        rows = []
        for (table_name, klass), agg in sorted(self._aggregates.items()):
            rids, records, total, low, high = agg
            rows.append(
                (table_name, klass, len(rids), records, total, low, high)
            )
        return rows


def parse_policy(spec: str | None) -> SamplingPolicy | None:
    """Build a policy from its spec string (``None``/``"none"`` = off).

    Accepted forms::

        head:RATE                     e.g. head:0.1
        tail:BASE_RATE:THRESHOLD_MS   e.g. tail:0.05:50
        tail:BASE_RATE:THRESHOLD_MS:MAX_BUFFERED_REQUESTS
        conflate:EXEMPLAR_RATE        e.g. conflate:0.1
    """
    if spec is None or spec == "none":
        return None
    kind, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    try:
        if kind == "head" and len(parts) == 1:
            return HeadSamplingPolicy(float(parts[0]))
        if kind == "tail" and len(parts) in (2, 3):
            threshold_us = int(round(float(parts[1]) * 1000))
            bound = int(parts[2]) if len(parts) == 3 else 65536
            return TailSamplingPolicy(
                float(parts[0]), threshold_us, max_requests=bound
            )
        if kind == "conflate" and len(parts) == 1:
            return ConflationPolicy(float(parts[0]))
    except ValueError as exc:
        raise AnalysisError(f"bad sampling spec {spec!r}: {exc}") from exc
    raise AnalysisError(
        f"unknown sampling spec {spec!r} (expected head:RATE, "
        f"tail:BASE:THRESHOLD_MS[:MAX], or conflate:RATE)"
    )
