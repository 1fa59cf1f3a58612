"""Pluggable log-volume-reduction policies.

Two policies, both operating on converted :class:`CsvTable` batches.
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
import math
from typing import Any

from repro.common.errors import AnalysisError
from repro.transformer.xml_to_csv import CsvTable

__all__ = [
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

    def checkpoint(self) -> Any:
        """What :meth:`restore` needs to undo every later :meth:`apply`
        and :meth:`flush` — the importer takes one as it opens a
        transaction.  Costs O(streams) here; a stateful policy adds
        what its deferred state needs."""
        return {
            key: dataclasses.replace(entry) for key, entry in self.counts.items()
        }

    def restore(self, saved: Any) -> None:
        """Return to the :meth:`checkpoint` ``saved`` — the importer
        does so when the transaction that applied the policy rolls
        back, so its rows are not counted twice when they come again."""
        self.counts = saved

    def flush(self) -> list[CsvTable]:
        """Release buffered rows, one table per ``(table, source)``
        stream (stateless policies return nothing)."""
        return []


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
        #: Request ids whose buffered rows grew since the checkpoint,
        #: once per row, so :meth:`restore` can take the rows back off.
        self._appended: list[str] = []

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
                self._appended.append(rid)
                self._evict_over_bound()
        return dataclasses.replace(table, rows=kept)

    def checkpoint(self) -> Any:
        """Counts, plus the deferral state: the decisions made so far
        (only ever added to, so their number), the buffer (copied —
        at most ``max_requests`` entries), and the flushable rows (only
        ever appended to until a flush swaps the dict, so their
        lengths)."""
        self._appended = []
        return (
            super().checkpoint(),
            len(self._decided),
            dict(self._buffer),
            dict(self._table_info),
            self._flushable,
            {key: len(rows) for key, rows in self._flushable.items()},
        )

    def restore(self, saved: Any) -> None:
        counts, decided, buffer, table_info, flushable, lengths = saved
        super().restore(counts)
        while len(self._decided) > decided:
            self._decided.popitem()  # newest first
        # The copy shares the row lists, so rows appended since come
        # off their ends (a list created since is not in the copy).
        for rid in reversed(self._appended):
            rows = buffer.get(rid)
            if rows is not None:
                rows.pop()
        self._appended = []
        self._buffer = buffer
        self._table_info = table_info
        for key in list(flushable):
            if key in lengths:
                del flushable[key][lengths[key] :]
            else:
                del flushable[key]
        self._flushable = flushable

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
        # A fresh dict, not clear(): a checkpoint may hold this one.
        self._flushable = {}
        return tables


def parse_policy(spec: str | None) -> SamplingPolicy | None:
    """Build a policy from its spec string (``None``/``"none"`` = off).

    Accepted forms, each the policy's own ``spec`` (the string the
    ``sampling_ledger`` records)::

        head:RATE                     e.g. head:0.1
        tail:BASE_RATE:THRESHOLD_MS   e.g. tail:0.05:50
    """
    if spec is None or spec == "none":
        return None
    kind, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    try:
        values = [float(part) for part in parts]
    except ValueError as exc:
        raise AnalysisError(f"bad sampling spec {spec!r}: {exc}") from exc
    if not all(math.isfinite(value) for value in values):
        raise AnalysisError(f"bad sampling spec {spec!r}: not a finite number")
    if kind == "head" and len(values) == 1:
        return HeadSamplingPolicy(values[0])
    if kind == "tail" and len(values) == 2:
        return TailSamplingPolicy(values[0], int(round(values[1] * 1000)))
    raise AnalysisError(
        f"unknown sampling spec {spec!r} "
        "(expected head:RATE or tail:BASE:THRESHOLD_MS)"
    )
