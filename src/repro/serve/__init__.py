"""The always-on milliScope service (``mscope serve``).

The paper's mScopeMonitors → Transformer → Analyzers toolchain is
batch: collect logs, transform, diagnose.  This package promotes the
same machinery into a long-lived asyncio daemon:

* continuous multi-host tail-ingest — one
  :class:`~repro.transformer.live.LiveTransformer` whose parse cursors
  resume every file where it stopped, delta-importing into a
  monolithic or sharded warehouse;
* an incremental diagnosis loop re-running the
  :class:`~repro.analysis.diagnosis.Diagnoser` over fixed time windows
  as data lands, caching per-window verdicts;
* an HTTP API (stdlib asyncio only): ``/healthz``, ``/stats``
  (text / JSON / Prometheus, reusing the telemetry formatters),
  ``/reports``, ``/paths/<request_id>``, and an ``/events`` SSE stream
  of heartbeats, ingest errors, and floor breaches;
* a clean SIGTERM drain that leaves the warehouse import-consistent
  (iterdump-identical to a batch transform of the same final tree).
"""
