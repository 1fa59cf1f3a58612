"""Columnar series cache for the bulk analysis engine.

Reading every metric series and every tier's boundary timestamps
from the warehouse *per anomaly window* would be an N+1 query pattern
that dominates diagnosis time on large warehouses.
:class:`SeriesCache` avoids it: each warehouse table is read **once
per diagnosis run** into numpy columns, and every window afterwards is
served by ``np.searchsorted`` slicing (O(log n)) against the cached
arrays.

Three caches live here:

* **metric series** — one full :class:`~repro.analysis.series.Series`
  per ``(table, columns)`` pair, rebased onto simulation time;
* **tier boundary arrays** — per event table, the sorted arrival and
  departure arrays the queue-length kernel grids against;
* **resampled grids** — step-resampled series memoized by ``(key,
  grid)``, so aligning the same series onto the same window grid
  twice (candidates sharing a monitor table do this constantly) costs
  one dict hit.

Loads are credited to telemetry spans (``analysis.load_metric`` /
``analysis.load_spans``) when the owning engine measures itself.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.analysis.metrics import metric_series
from repro.analysis.queues import concurrency_from_sorted
from repro.analysis.response_time import IN_FLIGHT_SLACK_US
from repro.analysis.series import Series
from repro.common.timebase import Micros
from repro.telemetry.spans import NULL_PROBE, SpanData, SpanProbe
from repro.warehouse.db import MScopeDB, quote_identifier

__all__ = ["SeriesCache"]


class SeriesCache:
    """Per-run columnar cache over one warehouse's series tables.

    Parameters
    ----------
    db:
        The populated warehouse.
    epoch_us:
        Epoch offset rebasing warehouse wall timestamps onto
        simulation time zero (applied once, at load).
    probe / spans:
        Optional telemetry measurement side: loads open spans into
        ``spans`` via ``probe``, which the owning engine ingests in
        deterministic order.
    bounds:
        Optional ``(start, stop)`` simulation-time window restricting
        every load (either side may be ``None`` for half-open).  The
        windowed-diagnosis path: on a sharded warehouse each load then
        prunes to the shards its window overlaps instead of scanning
        the whole history.  Event-table span loads keep requests that
        *arrived* up to ``IN_FLIGHT_SLACK_US`` before ``start``, since
        those may still occupy a queue inside the window.

    The cache holds **loaded data only** — it never invalidates, by
    design: a diagnosis run analyzes one immutable warehouse snapshot.
    Build a fresh cache (or call :meth:`clear`) to observe new loads.
    """

    def __init__(
        self,
        db: MScopeDB,
        epoch_us: int = 0,
        probe: SpanProbe = NULL_PROBE,
        spans: list[SpanData] | None = None,
        bounds: tuple[Micros | None, Micros | None] | None = None,
    ) -> None:
        self.db = db
        self.epoch_us = epoch_us
        self.bounds = bounds
        self._probe = probe
        self._spans: list[SpanData] = spans if spans is not None else []
        self._metrics: dict[tuple[str, tuple[str, ...]], Series] = {}
        #: table -> (its ``since``, arrivals, departures)
        self._tier_spans: dict[str, tuple[Micros | None, np.ndarray, np.ndarray]] = {}
        self._resampled: dict[tuple[Hashable, bytes], Series] = {}
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        """Drop everything cached (e.g. after the warehouse changed)."""
        self._metrics.clear()
        self._tier_spans.clear()
        self._resampled.clear()

    # ------------------------------------------------------------------
    # metric series

    def metric(self, table: str, columns: Sequence[str]) -> Series:
        """The full metric series of ``(table, columns)``, loaded once."""
        key = (table, tuple(columns))
        series = self._metrics.get(key)
        if series is not None:
            self.hits += 1
            return series
        self.misses += 1
        start, stop = self.bounds if self.bounds is not None else (None, None)
        with self._probe.span(
            self._spans, "analysis.load_metric", source_path=table
        ) as span:
            series = metric_series(
                self.db,
                table,
                tuple(columns),
                epoch_us=self.epoch_us,
                start=start,
                stop=stop,
            )
            span.add(records=len(series))
        self._metrics[key] = series
        return series

    def window(
        self, table: str, columns: Sequence[str], start: Micros, stop: Micros
    ) -> Series:
        """A ``[start, stop)`` slice of the cached series — two binary
        searches against the loaded arrays, no SQL."""
        return self.metric(table, columns).window(start, stop)

    def resampled(
        self, table: str, columns: Sequence[str], grid: Sequence[Micros]
    ) -> Series:
        """The cached metric series step-resampled onto ``grid``,
        memoized by ``(table, columns, grid)``."""
        return self.resample_keyed(
            (table, tuple(columns)), self.metric(table, columns), grid
        )

    def resample_keyed(
        self, key: Hashable, series: Series, grid: Sequence[Micros]
    ) -> Series:
        """Memoized step-resample of any series under a caller key.

        The diagnosis engine aligns the front tier's queue series onto
        each candidate's sample grid; candidates sharing a monitor
        table share the grid, so the second alignment is a dict hit.
        """
        grid_arr = np.asarray(list(grid), dtype=np.int64)
        cache_key = (key, grid_arr.tobytes())
        resampled = self._resampled.get(cache_key)
        if resampled is not None:
            self.hits += 1
            return resampled
        self.misses += 1
        resampled = series.resample(grid_arr)
        self._resampled[cache_key] = resampled
        return resampled

    # ------------------------------------------------------------------
    # event-table boundary arrays

    def tier_spans(
        self, table: str, since: Micros | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One event table's sorted (arrivals, departures) arrays.

        Loaded once per run; every anomaly window's queue-length grid
        re-uses them through :func:`concurrency_from_sorted`.

        ``since`` leaves out requests that departed before it, so the
        read searches the ``departure`` index from there.  That is
        exact for any grid starting at or after ``since``: a left-out
        request counts there once as arrived and once as departed.  An
        earlier ``since`` (or none) than the loaded one reloads.
        """
        cached = self._tier_spans.get(table)
        if cached is not None and (
            cached[0] is None or (since is not None and cached[0] <= since)
        ):
            self.hits += 1
            return cached[1], cached[2]
        self.misses += 1
        start, stop = self.bounds if self.bounds is not None else (None, None)
        # A request that arrived before the window may still be in
        # flight inside it; keep arrivals back to start - slack.
        wh_start = (
            start + self.epoch_us - IN_FLIGHT_SLACK_US
            if start is not None
            else None
        )
        wh_stop = stop + self.epoch_us if stop is not None else None
        sql = (
            f"SELECT upstream_arrival_us, upstream_departure_us "
            f"FROM {quote_identifier(table)} "
            f"WHERE upstream_departure_us IS NOT NULL"
        )
        params: list = []
        if wh_start is not None:
            sql += " AND upstream_arrival_us >= ?"
            params.append(wh_start)
        if wh_stop is not None:
            sql += " AND upstream_arrival_us < ?"
            params.append(wh_stop)
        if since is not None:
            sql += " AND upstream_departure_us >= ?"
            params.append(since + self.epoch_us)
        with self._probe.span(
            self._spans, "analysis.load_spans", source_path=table
        ) as span:
            rows = self.db.query_table(
                table, sql, params, window=(wh_start, wh_stop)
            )
            span.add(records=len(rows))
        if rows:
            data = np.asarray(rows, dtype=np.int64) - self.epoch_us
            arrivals = np.sort(data[:, 0])
            departures = np.sort(data[:, 1])
        else:
            arrivals = np.array([], dtype=np.int64)
            departures = np.array([], dtype=np.int64)
        self._tier_spans[table] = (since, arrivals, departures)
        return arrivals, departures

    def queue_series(
        self,
        tables: str | Iterable[str],
        start: Micros,
        stop: Micros,
        step: Micros,
    ) -> Series:
        """A tier's queue-length series over ``[start, stop)``.

        ``tables`` may be one event table or several (a replicated
        tier's per-host tables aggregate into one logical series,
        matching :func:`~repro.analysis.queues.tier_queue_lengths`).
        """
        if isinstance(tables, str):
            tables = [tables]
        parts = [self.tier_spans(table, start) for table in tables]
        if len(parts) == 1:
            arrivals, departures = parts[0]
        else:
            arrivals = np.sort(np.concatenate([p[0] for p in parts]))
            departures = np.sort(np.concatenate([p[1] for p in parts]))
        return concurrency_from_sorted(arrivals, departures, start, stop, step)
