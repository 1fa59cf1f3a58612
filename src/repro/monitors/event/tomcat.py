"""The Tomcat event mScopeMonitor.

The paper reports ~3% CPU for this monitor — higher than the others —
because an *additional thread* records the variable-width timestamps of
the dynamic communication with downstream servers (Section VI-B).  The
extra cost is modelled as a higher inline charge on the downstream hook
pair.
"""

from __future__ import annotations

from repro.common.timebase import Micros
from repro.logfmt.tomcat import format_mscope_tomcat
from repro.monitors.event.base import EventMonitor

__all__ = ["TomcatMScopeMonitor"]


class TomcatMScopeMonitor(EventMonitor):
    """Event monitor for the application tier (~3% CPU in the paper)."""

    tier = "tomcat"
    monitor_name = "tomcat_mscope"

    def __init__(
        self,
        per_event_cpu_us: Micros = 12,
        per_event_wait_us: Micros = 120,
        downstream_thread_cpu_us: Micros = 15,
    ) -> None:
        super().__init__(per_event_cpu_us, per_event_wait_us)
        self.downstream_thread_cpu_us = downstream_thread_cpu_us

    def _downstream_cost(self, server):
        return server.node.cpu.consume(
            self.per_event_cpu_us + self.downstream_thread_cpu_us,
            category="system",
            wait=self.per_event_wait_us,
        )

    def on_downstream_sending(self, server, request, target):
        return self._downstream_cost(server)

    def on_downstream_receiving(self, server, request, target):
        return self._downstream_cost(server)

    def format_line(self, server, request, boundary, payload):
        return format_mscope_tomcat(
            server.wall_clock, request.interaction.name, boundary
        )
