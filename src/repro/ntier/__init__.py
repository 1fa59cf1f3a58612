"""The n-tier testbed substrate: nodes, tiers, clients, faults, wiring."""

from repro.ntier.client import ClientEmulator, TraceCollector
from repro.ntier.faults import (
    FAULTS,
    DBLogFlushFault,
    DirtyPageFlushFault,
    DvfsSlowdownFault,
    Fault,
    GarbageCollectionFault,
    VmConsolidationFault,
)
from repro.ntier.hardware import CPU_CATEGORIES, Cpu, CumulativeCounter, Disk, PageCache
from repro.ntier.hooks import HookDispatcher, TierHook
from repro.ntier.logfacility import (
    FileLogSink,
    LogSink,
    MemoryLogSink,
    NativeLogFacility,
)
from repro.ntier.messages import Message, NetworkBus
from repro.ntier.node import Node, NodeSpec
from repro.ntier.request import Request
from repro.ntier.server import TierServer
from repro.ntier.system import (
    NTierSystem,
    SystemConfig,
    SystemResult,
    TierConfig,
    default_tier_configs,
    logical_tier,
    tier_address,
)
from repro.ntier.tiers import (
    ApacheServer,
    CjdbcServer,
    MySqlServer,
    TIER_ORDER,
    TomcatServer,
)
from repro.ntier.vectorclient import VectorClientEmulator

__all__ = [
    "ApacheServer",
    "CPU_CATEGORIES",
    "CjdbcServer",
    "ClientEmulator",
    "Cpu",
    "CumulativeCounter",
    "DBLogFlushFault",
    "DirtyPageFlushFault",
    "Disk",
    "DvfsSlowdownFault",
    "FAULTS",
    "Fault",
    "FileLogSink",
    "GarbageCollectionFault",
    "HookDispatcher",
    "LogSink",
    "MemoryLogSink",
    "Message",
    "MySqlServer",
    "NTierSystem",
    "NativeLogFacility",
    "NetworkBus",
    "Node",
    "NodeSpec",
    "PageCache",
    "Request",
    "SystemConfig",
    "SystemResult",
    "TIER_ORDER",
    "TierConfig",
    "TierHook",
    "TierServer",
    "TomcatServer",
    "TraceCollector",
    "VectorClientEmulator",
    "VmConsolidationFault",
    "default_tier_configs",
    "logical_tier",
    "tier_address",
]
