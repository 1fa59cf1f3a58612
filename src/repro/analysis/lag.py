"""Lead/lag correlation between metric series.

Figure 7's evidence is a correlation between the database disk and the
Apache queue — but causality has a *direction*: the disk saturates
first and the queue builds after.  Lagged cross-correlation makes that
direction measurable: shifting the queue series back in time by the
propagation delay maximizes the correlation, and the sign of the best
lag says who led.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.series import Series
from repro.common.errors import AnalysisError
from repro.common.timebase import Micros

__all__ = ["lagged_correlation", "LagResult"]


@dataclasses.dataclass(frozen=True, slots=True)
class LagResult:
    """Best-lag cross-correlation between two series."""

    best_lag_us: Micros
    best_correlation: float
    zero_lag_correlation: float

    @property
    def leader(self) -> str:
        """``"a"`` if the first series leads, ``"b"`` if the second."""
        if self.best_lag_us > 0:
            return "a"
        if self.best_lag_us < 0:
            return "b"
        return "simultaneous"


def lagged_correlation(
    a: Series,
    b: Series,
    max_lag_us: Micros,
    step_us: Micros,
) -> LagResult:
    """Find the lag of ``b`` (relative to ``a``) maximizing Pearson r.

    A *positive* best lag means ``a`` leads: shifting ``b`` backwards
    by that amount lines its response up with ``a``'s cause.
    """
    if step_us <= 0 or max_lag_us < step_us:
        raise AnalysisError("need max_lag >= step > 0")
    if len(a) < 3 or len(b) < 3:
        raise AnalysisError("need at least 3 points per series")

    # All lags at once: one (n_lags, n_points) step-resample of ``b``
    # followed by a row-wise Pearson r.  The diagnosis engine calls
    # this once per candidate per anomaly window, so the per-lag
    # Python dispatch this replaces dominated whole runs.
    lags = np.arange(-max_lag_us, max_lag_us + 1, step_us, dtype=np.int64)
    probe_lags = np.concatenate((np.zeros(1, dtype=np.int64), lags))
    grids = a.times[np.newaxis, :] + probe_lags[:, np.newaxis]
    shifted = b.values[b._step_indices(grids)]

    x_dev = a.values - a.values.mean()
    x_norm = float(np.sqrt(np.dot(x_dev, x_dev)))
    y_dev = shifted - shifted.mean(axis=1, keepdims=True)
    y_norm = np.sqrt((y_dev * y_dev).sum(axis=1))
    # A constant slice (either side) has no defined correlation; the
    # scan treats it as 0.0 rather than failing the whole window.
    correlations = np.zeros(len(probe_lags))
    defined = (y_norm > 0.0) if x_norm > 0.0 else np.zeros(len(y_norm), dtype=bool)
    correlations[defined] = (y_dev[defined] @ x_dev) / (y_norm[defined] * x_norm)

    zero = float(correlations[0])
    best_lag: Micros = 0
    best = zero
    for lag, r in zip(lags.tolist(), correlations[1:]):
        if r > best:
            best = float(r)
            best_lag = int(lag)
    return LagResult(
        best_lag_us=best_lag,
        best_correlation=best,
        zero_lag_correlation=zero,
    )
