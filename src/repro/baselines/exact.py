"""Exact baseline (paper §II-B).

Stores every event's full timestamp list and answers all three query types
exactly via binary search:

* point query — ``O(log n)``,
* bursty time query — one batched evaluation at the ``O(n)``
  breakpoints of the piecewise-constant burstiness function,
* bursty event query — one point query per seen event id.

Space is ``O(n)`` — the cost the PBE sketches avoid.  The baseline doubles
as the ground-truth oracle for every accuracy experiment.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from repro.core.cmpbe import _validated_query_batch
from repro.core.dyadic import BurstyEvent
from repro.core.errors import (
    InvalidParameterError,
    StreamOrderError,
    require_count,
    require_tau,
)
from repro.core.queries import _scan_bursty_times
from repro.streams.events import EventStream

__all__ = ["ExactBurstStore"]


class ExactBurstStore:
    """Ground-truth store: per-event sorted timestamp lists."""

    def __init__(self) -> None:
        self._timestamps: dict[int, list[float]] = defaultdict(list)
        self._last_timestamp: float | None = None
        self._count = 0

    @classmethod
    def from_stream(
        cls, stream: EventStream | Iterable[tuple[int, float]]
    ) -> "ExactBurstStore":
        """Build a store from a timestamp-ordered event stream."""
        store = cls()
        for event_id, timestamp in stream:
            store.update(event_id, timestamp)
        return store

    # ------------------------------------------------------------------
    def update(self, event_id: int, timestamp: float, count: int = 1) -> None:
        """Record ``count`` mentions of ``event_id`` at ``timestamp``."""
        require_count(count)
        if (
            self._last_timestamp is not None
            and timestamp < self._last_timestamp
        ):
            raise StreamOrderError(
                f"timestamp {timestamp} arrived after {self._last_timestamp}"
            )
        self._last_timestamp = timestamp
        self._timestamps[int(event_id)].extend([float(timestamp)] * count)
        self._count += count

    # ------------------------------------------------------------------
    def event_ids(self) -> list[int]:
        """Every event id seen so far."""
        return sorted(self._timestamps)

    def cumulative_frequency(self, event_id: int, t: float) -> int:
        """Exact ``F_e(t)``."""
        times = self._timestamps.get(int(event_id), [])
        return bisect.bisect_right(times, t)

    def burstiness(self, event_id: int, t: float, tau: float) -> int:
        """Exact ``b_e(t)``."""
        require_tau(tau)
        return (
            self.cumulative_frequency(event_id, t)
            - 2 * self.cumulative_frequency(event_id, t - tau)
            + self.cumulative_frequency(event_id, t - 2 * tau)
        )

    def burstiness_many(self, event_ids, ts, tau: float) -> np.ndarray:
        """Vectorized :meth:`burstiness` over ``(event_id, t)`` pairs.

        One ``np.searchsorted`` per distinct event id and lag replaces
        three bisects per query.  Counts are exact integers, so the
        float64 result is bit-identical to the scalar path.
        """
        require_tau(tau)
        ids, times = _validated_query_batch(event_ids, ts)
        counts = np.zeros(ids.size, dtype=np.int64)
        for event_id in np.unique(ids).tolist():
            stored = self._timestamps.get(int(event_id))
            if not stored:
                continue
            arr = np.asarray(stored, dtype=np.float64)
            mask = ids == event_id
            queried = times[mask]
            counts[mask] = (
                np.searchsorted(arr, queried, side="right")
                - 2 * np.searchsorted(arr, queried - tau, side="right")
                + np.searchsorted(arr, queried - 2 * tau, side="right")
            )
        return counts.astype(np.float64)

    def bursty_times(
        self,
        event_id: int,
        theta: float,
        tau: float,
        t_end: float | None = None,
    ) -> list[tuple[float, float]]:
        """Exact bursty time query: maximal intervals where ``b(t) >= theta``.

        ``b_e`` is a right-continuous step function whose value changes only
        where ``t``, ``t - tau`` or ``t - 2 tau`` crosses an occurrence,
        so one batched evaluation at those breakpoints suffices.
        """
        require_tau(tau)
        times = self._timestamps.get(int(event_id), [])
        if not times:
            return []
        return _scan_bursty_times(
            lambda points: self.burstiness_many(
                np.full(points.size, event_id, dtype=np.int64), points, tau
            ),
            times,
            theta,
            tau,
            t_end if t_end is not None else times[-1] + 2 * tau,
            "constant",
            0.0,
        )

    def bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        """Exact bursty event query over all seen events."""
        require_tau(tau)
        hits = [
            BurstyEvent(event_id, float(value))
            for event_id in self._timestamps
            if (value := self.burstiness(event_id, t, tau)) >= theta
        ]
        hits.sort(key=lambda hit: -hit.burstiness)
        return hits

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total mentions stored."""
        return self._count

    def timestamps_of(self, event_id: int) -> Sequence[float]:
        """The raw, sorted occurrence timestamps of one event."""
        return self._timestamps.get(int(event_id), [])

    def size_in_bytes(self) -> int:
        """Eight bytes per stored timestamp."""
        return 8 * self._count

