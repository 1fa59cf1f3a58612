"""The simulator kernels a run can select.

Defined apart from the simulator, so the command line can offer the
choice without importing it.
"""

__all__ = ["KERNELS"]

#: ``scalar`` is the per-event engine; ``vector`` adds the event
#: calendar.  Both write identical logs.
KERNELS = ("scalar", "vector")
