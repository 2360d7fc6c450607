"""Burstiness arithmetic shared by exact and approximate estimators.

Burstiness is the acceleration of the incoming rate (paper Def. 1)::

    bf(t) = F(t) - F(t - tau)              # burst frequency / incoming rate
    b(t)  = bf(t) - bf(t - tau)
          = F(t) - 2 F(t - tau) + F(t - 2 tau)

This module provides series evaluation over time grids (used for the
characteristics plots of Fig. 7 and for error measurements) on top of any
:class:`~repro.streams.frequency.CumulativeCurve`.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import require_tau
from repro.streams.frequency import CumulativeCurve, StaircaseCurve

__all__ = [
    "burst_frequency",
    "burstiness",
    "burstiness_series",
    "incoming_rate_series",
]


def burst_frequency(curve: CumulativeCurve, t: float, tau: float) -> float:
    """Incoming rate ``bf(t) = F(t) - F(t - tau)``."""
    require_tau(tau)
    return curve.value(t) - curve.value(t - tau)


def burstiness(curve: CumulativeCurve, t: float, tau: float) -> float:
    """Burstiness ``b(t) = F(t) - 2 F(t - tau) + F(t - 2 tau)``."""
    require_tau(tau)
    return (
        curve.value(t) - 2.0 * curve.value(t - tau) + curve.value(t - 2 * tau)
    )


def incoming_rate_series(
    curve: CumulativeCurve, times: np.ndarray, tau: float
) -> np.ndarray:
    """``bf(t)`` evaluated at every entry of ``times``."""
    require_tau(tau)
    times = np.asarray(times, dtype=np.float64)
    if isinstance(curve, StaircaseCurve):
        return curve.values(times) - curve.values(times - tau)
    return np.array(
        [curve.value(t) - curve.value(t - tau) for t in times]
    )


def burstiness_series(
    curve: CumulativeCurve, times: np.ndarray, tau: float
) -> np.ndarray:
    """``b(t)`` evaluated at every entry of ``times``."""
    require_tau(tau)
    times = np.asarray(times, dtype=np.float64)
    if isinstance(curve, StaircaseCurve):
        return (
            curve.values(times)
            - 2.0 * curve.values(times - tau)
            + curve.values(times - 2 * tau)
        )
    return np.array([burstiness(curve, t, tau) for t in times])
