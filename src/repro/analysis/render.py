"""Terminal rendering of analysis series.

The repository has no plotting dependency; these helpers render a
:class:`~repro.analysis.series.Series` as a one-line sparkline so the
report and the examples can *show* a series in a terminal.
"""

from __future__ import annotations

from repro.analysis.series import Series
from repro.common.errors import AnalysisError

__all__ = ["sparkline"]

_SPARK_LEVELS = " ▁▂▃▄▅▆▇█"


def sparkline(series: Series, width: int = 60) -> str:
    """One-line sparkline of the series, resampled to ``width`` points."""
    if series.is_empty():
        raise AnalysisError("cannot render an empty series")
    if width < 1:
        raise AnalysisError(f"width must be positive: {width}")
    start, stop = int(series.times[0]), int(series.times[-1])
    if stop == start:
        grid = [start]
    else:
        step = max(1, (stop - start) // width)
        grid = list(range(start, stop, step))[:width]
    resampled = series.resample(grid)
    low = float(resampled.values.min())
    high = float(resampled.values.max())
    span = high - low
    cells = []
    for value in resampled.values:
        if span == 0:
            level = 0
        else:
            level = round((value - low) / span * (len(_SPARK_LEVELS) - 1))
        cells.append(_SPARK_LEVELS[level])
    return "".join(cells)

