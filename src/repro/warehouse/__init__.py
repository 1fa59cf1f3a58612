"""mScopeDB: the dynamic data warehouse and its exploration API."""

from repro.warehouse.db import MScopeDB, STATIC_TABLES, quote_identifier
from repro.warehouse.explorer import (
    IngestErrorSummary,
    InteractionStats,
    SlowRequest,
    WarehouseExplorer,
)
from repro.warehouse.sharded import ShardedMScopeDB, open_warehouse

__all__ = [
    "IngestErrorSummary",
    "InteractionStats",
    "MScopeDB",
    "STATIC_TABLES",
    "ShardedMScopeDB",
    "SlowRequest",
    "WarehouseExplorer",
    "open_warehouse",
    "quote_identifier",
]
