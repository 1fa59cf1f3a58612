"""Assembly of the complete four-tier system.

:class:`NTierSystem` wires engine, nodes, tiers, network, client
emulator, and fault injectors from a declarative
:class:`SystemConfig`.  Monitors (event and resource mScopeMonitors)
attach *between* construction and :meth:`NTierSystem.run`, mirroring
how milliScope instruments an already-deployed application.
"""

from __future__ import annotations

import dataclasses
import datetime
from pathlib import Path
from typing import Iterable

from repro.common.errors import ConfigError
from repro.common.ids import RequestIdGenerator
from repro.common.records import RequestTrace
from repro.common.rng import RngStreams
from repro.common.timebase import DEFAULT_EPOCH, Micros, WallClock
from repro.ntier.balancer import DISPATCH_POLICIES, LoadBalancer
from repro.ntier.client import ClientEmulator, TraceCollector
from repro.ntier.faults import Fault
from repro.ntier.messages import NetworkBus
from repro.ntier.node import Node, NodeSpec
from repro.ntier.server import TierServer
from repro.ntier.tiers import (
    ApacheServer,
    CjdbcServer,
    MySqlServer,
    TIER_ORDER,
    TomcatServer,
)
from repro.rubbos.workload import WorkloadSpec
from repro.sim.engine import Engine

__all__ = ["TierConfig", "SystemConfig", "NTierSystem", "SystemResult", "KERNELS"]

_TIER_CLASSES = {
    "apache": ApacheServer,
    "tomcat": TomcatServer,
    "cjdbc": CjdbcServer,
    "mysql": MySqlServer,
}

_TIER_NODE_PREFIX = {
    "apache": "web",
    "tomcat": "app",
    "cjdbc": "mid",
    "mysql": "db",
}


#: The simulator kernels :attr:`SystemConfig.kernel` selects: ``scalar``
#: is the per-event engine; ``vector`` adds the event calendar.  Both
#: write identical logs.
KERNELS = ("scalar", "vector")


def tier_address(tier: str, replica: int) -> str:
    """Bus address of one replica (the first keeps the bare tier name)."""
    return tier if replica == 0 else f"{tier}#{replica + 1}"


def logical_tier(address: str) -> str:
    """The tier name behind a (possibly replicated) bus address."""
    return address.split("#", 1)[0]


@dataclasses.dataclass(frozen=True, slots=True)
class TierConfig:
    """Sizing of one tier: worker pool, node hardware, replica count.

    ``replicas > 1`` deploys several identical servers on separate
    nodes; the upstream tier balances over them round-robin (ModJK
    spreading Tomcats, C-JDBC spreading database backends).
    """

    workers: int
    node: NodeSpec = dataclasses.field(default_factory=NodeSpec)
    replicas: int = 1

    def validate(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"tier needs >= 1 worker, got {self.workers}")
        if self.replicas < 1:
            raise ConfigError(f"tier needs >= 1 replica, got {self.replicas}")
        self.node.validate()


def default_tier_configs() -> dict[str, TierConfig]:
    """Worker-pool sizes approximating the RUBBoS deployment defaults."""
    return {
        "apache": TierConfig(workers=150),
        "tomcat": TierConfig(workers=90),
        "cjdbc": TierConfig(workers=90),
        "mysql": TierConfig(workers=90),
    }


@dataclasses.dataclass(slots=True)
class SystemConfig:
    """Everything needed to build a reproducible system instance.

    ``kernel`` selects the simulator substrate: ``"scalar"`` runs
    every occurrence as a Python event; ``"vector"`` runs the client's
    timer traffic on the numpy event calendar
    (:mod:`repro.sim.vector`) with identical monitor-log output.
    ``dispatch`` names the :data:`~repro.ntier.balancer.DISPATCH_POLICIES`
    entry every tier uses to spread requests over downstream replicas.
    """

    workload: WorkloadSpec
    seed: int = 1
    epoch: datetime.datetime = DEFAULT_EPOCH
    network_latency_us: Micros = 150
    log_dir: Path | None = None
    experiment_tag: str = "0A"
    kernel: str = "scalar"
    dispatch: str = "round-robin"
    tiers: dict[str, TierConfig] = dataclasses.field(
        default_factory=default_tier_configs
    )

    def validate(self) -> None:
        self.workload.validate()
        if self.kernel not in KERNELS:
            raise ConfigError(
                f"unknown kernel {self.kernel!r}; expected one of {KERNELS}"
            )
        if self.dispatch not in DISPATCH_POLICIES:
            raise ConfigError(
                f"unknown dispatch policy {self.dispatch!r}; "
                f"expected one of {DISPATCH_POLICIES}"
            )
        missing = [t for t in TIER_ORDER if t not in self.tiers]
        if missing:
            raise ConfigError(f"missing tier configs: {missing}")
        for tier_config in self.tiers.values():
            tier_config.validate()


@dataclasses.dataclass(slots=True)
class SystemResult:
    """Outcome of one run: ground truth plus handles to every component."""

    config: SystemConfig
    duration: Micros
    traces: list[RequestTrace]
    servers: dict[str, TierServer]
    nodes: dict[str, Node]
    wall_clock: WallClock
    collector: TraceCollector

    def throughput(self, start: Micros | None = None, stop: Micros | None = None) -> float:
        """End-to-end completed requests per second."""
        start = 0 if start is None else start
        stop = self.duration if stop is None else stop
        return self.collector.throughput(start, stop)

    def mean_response_time_ms(
        self, start: Micros | None = None, stop: Micros | None = None
    ) -> float:
        """Mean client response time over a window (ms)."""
        start = 0 if start is None else start
        stop = self.duration if stop is None else stop
        return self.collector.mean_response_time_ms(start, stop)


class NTierSystem:
    """A buildable, runnable four-tier RUBBoS deployment."""

    def __init__(self, config: SystemConfig, faults: Iterable[Fault] = ()) -> None:
        config.validate()
        self.config = config
        if config.kernel == "vector":
            from repro.sim.vector import VectorEngine

            self.engine = VectorEngine()
        else:
            self.engine = Engine()
        self.wall_clock = WallClock(config.epoch)
        self.streams = RngStreams(config.seed)
        self.bus = NetworkBus(self.engine, latency_us=config.network_latency_us)
        self.nodes: dict[str, Node] = {}
        self.servers: dict[str, TierServer] = {}
        self._build_tiers()
        self.id_generator = RequestIdGenerator(config.experiment_tag)
        first_tier = TIER_ORDER[0]
        if config.kernel == "vector":
            from repro.ntier.vectorclient import VectorClientEmulator

            client_class = VectorClientEmulator
        else:
            client_class = ClientEmulator
        self.client = client_class(
            self.engine,
            self.bus,
            config.workload,
            self.streams,
            self.id_generator,
            first_tier=[
                tier_address(first_tier, replica)
                for replica in range(config.tiers[first_tier].replicas)
            ],
        )
        self.faults = list(faults)
        self._finalizers: list = []
        self._ran = False
        self._finished = False

    def add_finalizer(self, callback) -> None:
        """Register a callable invoked after the run, before logs close.

        Resource monitors use this to write their trailer lines (SAR's
        ``Average:`` row, the XML closing tags) into still-open sinks.
        """
        self._finalizers.append(callback)

    def _build_tiers(self) -> None:
        addresses: dict[str, list[str]] = {
            tier: [
                tier_address(tier, replica)
                for replica in range(self.config.tiers[tier].replicas)
            ]
            for tier in TIER_ORDER
        }
        for index, tier in enumerate(TIER_ORDER):
            tier_config = self.config.tiers[tier]
            if index + 1 < len(TIER_ORDER):
                downstream = addresses[TIER_ORDER[index + 1]]
            else:
                downstream = None
            for replica in range(tier_config.replicas):
                node = Node(
                    self.engine,
                    f"{_TIER_NODE_PREFIX[tier]}{replica + 1}",
                    spec=tier_config.node,
                    log_dir=self.config.log_dir,
                )
                self.nodes[node.name] = node
                address = addresses[tier][replica]
                # Each node logs with its *own* clock: a skewed node
                # shifts every wall timestamp it writes.
                node_wall = self.wall_clock
                if tier_config.node.clock_offset_us:
                    node_wall = WallClock(
                        self.config.epoch
                        + datetime.timedelta(
                            microseconds=tier_config.node.clock_offset_us
                        )
                    )
                node.wall_clock = node_wall
                balancer = None
                if downstream is not None:
                    # Every server gets its own dispatcher with its own
                    # rng stream, so a seeded-random choice on one
                    # replica never perturbs another's draws.
                    balancer = LoadBalancer(
                        self.config.dispatch,
                        downstream,
                        rng=self.streams.stream(f"balance.{address}"),
                        inflight=self._inflight_of,
                    )
                server = _TIER_CLASSES[tier](
                    engine=self.engine,
                    tier=tier,
                    node=node,
                    bus=self.bus,
                    workers=tier_config.workers,
                    downstream=downstream,
                    wall_clock=node_wall,
                    rng=self.streams.stream(f"server.{address}"),
                    address=address,
                    balancer=balancer,
                )
                self.servers[address] = server

    def _inflight_of(self, address: str) -> float:
        """Requests currently on a server — the least-connections probe."""
        return self.servers[address].concurrency.current

    def node_for_tier(self, tier: str) -> Node:
        """The node hosting a tier (or a specific replica address).

        ``"mysql"`` names the first replica's node; ``"mysql#2"`` the
        second's — so fault injectors can target one replica of a
        scaled-out tier.
        """
        logical = logical_tier(tier)
        if logical not in _TIER_NODE_PREFIX:
            raise ConfigError(f"unknown tier {tier!r}")
        replica = 0
        if "#" in tier:
            replica = int(tier.split("#", 1)[1]) - 1
        name = f"{_TIER_NODE_PREFIX[logical]}{replica + 1}"
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigError(f"tier {tier!r} has no node {name!r}") from None

    def servers_for_tier(self, tier: str) -> list[TierServer]:
        """Every replica server of one logical tier."""
        matching = [s for s in self.servers.values() if s.tier == tier]
        if not matching:
            raise ConfigError(f"unknown tier {tier!r}")
        return matching

    def run(self, duration: Micros) -> SystemResult:
        """Run the system for ``duration`` µs and return the result."""
        self.start_workload()
        self.advance(duration)
        return self.finish()

    def start_workload(self) -> None:
        """Install faults and start servers and clients (once).

        Part of the stepped-run API: ``start_workload`` →
        ``advance`` (repeatedly) → ``finish``.  Online-monitoring
        examples interleave :meth:`advance` with warehouse refreshes.
        """
        if self._ran:
            raise ConfigError("system instance already ran; build a fresh one")
        self._ran = True
        for fault in self.faults:
            fault.install(self)
        for server in self.servers.values():
            server.start()
        self.client.start()

    def advance(self, until: Micros) -> None:
        """Advance the simulation clock to ``until`` (monotone)."""
        if not self._ran:
            raise ConfigError("call start_workload() before advance()")
        if self._finished:
            raise ConfigError("system already finished")
        self.engine.run(until=until)

    def finish(self) -> SystemResult:
        """Run finalizers, close logs, and return the result."""
        if not self._ran:
            raise ConfigError("nothing ran; call start_workload() first")
        if self._finished:
            raise ConfigError("system already finished")
        self._finished = True
        for finalizer in self._finalizers:
            finalizer()
        for node in self.nodes.values():
            for facility in node.facilities.values():
                facility.flush_now()
            node.close_logs()
        return SystemResult(
            config=self.config,
            duration=self.engine.now,
            traces=list(self.client.collector.traces),
            servers=dict(self.servers),
            nodes=dict(self.nodes),
            wall_clock=self.wall_clock,
            collector=self.client.collector,
        )
