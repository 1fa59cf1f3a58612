"""Observable state for the serve daemon.

:class:`ServeState` holds every counter and gauge the HTTP layer
renders: rows/files/errors, per-cycle lag, diagnosis progress.  It is
synchronous and loop-agnostic so the daemon's cycle logic stays
unit-testable without asyncio; ``to_dict`` is the JSON shape shared by
``/healthz`` and ``/stats``.
"""

from __future__ import annotations

import dataclasses

__all__ = ["ServeState"]


@dataclasses.dataclass(slots=True)
class ServeState:
    """Everything the HTTP layer observes about the daemon."""

    #: Ingest cycles completed.
    cycles: int = 0
    #: Rows delta-imported since startup.
    rows: int = 0
    #: File refreshes that imported at least one row.
    refreshed_files: int = 0
    #: Files skipped this far (unparsable mid-write, retried later).
    skipped_files: int = 0
    #: Ingest errors recorded by the lenient policy.
    ingest_errors: int = 0
    #: Seconds the most recent ingest cycle took.
    last_cycle_s: float = 0.0
    #: Diagnosis cycles completed.
    diagnose_cycles: int = 0
    #: Diagnosis windows currently cached.
    cached_windows: int = 0
    #: Anomaly windows that breached the VLRT floor.
    floor_breaches: int = 0
    #: Rows seen by the log-volume-reduction policy (0 = no policy).
    sampled_rows: int = 0
    #: Rows that policy kept (committed or deferred-then-committed).
    kept_rows: int = 0
    #: True once SIGTERM/shutdown drain has begun.
    draining: bool = False

    def to_dict(self) -> dict:
        """The JSON shape served by ``/healthz`` and ``/stats``."""
        return {
            "cycles": self.cycles,
            "rows": self.rows,
            "refreshed_files": self.refreshed_files,
            "skipped_files": self.skipped_files,
            "ingest_errors": self.ingest_errors,
            "last_cycle_s": round(self.last_cycle_s, 6),
            "diagnose_cycles": self.diagnose_cycles,
            "cached_windows": self.cached_windows,
            "floor_breaches": self.floor_breaches,
            "sampled_rows": self.sampled_rows,
            "kept_rows": self.kept_rows,
            "draining": self.draining,
        }
