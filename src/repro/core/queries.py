"""Query layer: the three historical burst queries over any backend.

This module provides

* :func:`bursty_time_intervals` — the bursty time query over an
  approximate curve (paper §V): the burstiness of a staircase or PLA
  approximation can only change at segment boundaries (and their ``tau``
  shifts), so point queries at those breakpoints suffice,
* :func:`max_burstiness` — the range-peak variant over the same
  breakpoints,
* :class:`HistoricalBurstAnalyzer` — the user-facing facade that unifies
  the exact baseline and the CM-PBE-1 / CM-PBE-2 sketches behind the three
  query types of §II-A.

Both curve helpers and every store's bursty-time and peak query run one
breakpoint scan: the breakpoints are built with numpy, every burstiness
value they need comes from one vectorized evaluation, and the intervals
(or the peak) are extracted without a per-breakpoint loop.
"""

from __future__ import annotations

from typing import Callable, Iterable, Literal

import numpy as np

from repro.core.dyadic import BurstyEvent
from repro.core.errors import (
    InvalidParameterError,
    require_tau,
    require_time_range,
)
from repro.core.tracing import span
from repro.streams.frequency import CumulativeCurve

__all__ = [
    "bursty_time_intervals",
    "max_burstiness",
    "HistoricalBurstAnalyzer",
]

#: Maps an array of query times to the burstiness estimate at each.
Evaluator = Callable[[np.ndarray], np.ndarray]


def max_burstiness(
    curve: CumulativeCurve,
    knots: Iterable[float],
    tau: float,
    t_start: float,
    t_end: float,
    piecewise: Literal["constant", "linear"] = "constant",
) -> tuple[float, float]:
    """The time and value of the largest estimated burstiness in a range.

    Answers the paper's motivating question "what was THE bursty moment
    of week w?" — over an approximation, ``b~`` changes only at the knot
    times and their ``tau`` shifts (piecewise constant for staircases,
    piecewise linear for PLAs, where the maximum of each piece sits at an
    endpoint), so evaluating at breakpoints inside the range suffices.

    Returns ``(t_star, b_star)``; raises if the range is empty.
    """
    return _scan_peak(
        _curve_evaluator(curve, tau), knots, tau, t_start, t_end, piecewise
    )


def bursty_time_intervals(
    curve: CumulativeCurve,
    knots: Iterable[float],
    theta: float,
    tau: float,
    t_end: float,
    piecewise: Literal["constant", "linear"] = "constant",
    merge_gap: float = 0.0,
) -> list[tuple[float, float]]:
    """Maximal intervals of ``[min knot, t_end]`` where ``b~(t) >= theta``.

    Parameters
    ----------
    curve:
        Any cumulative-curve estimator.  Read through ``value_many``
        when the curve has one, through ``value`` otherwise.
    knots:
        Times where the curve's behaviour can change (corner times for
        staircases, segment boundaries for PLAs).  Breakpoints of the
        burstiness function are the knots plus their ``tau`` and ``2 tau``
        shifts.
    piecewise:
        ``"constant"`` for staircase curves (burstiness is a step
        function, evaluated once per breakpoint) or ``"linear"`` for PLA
        curves (burstiness is piecewise linear; threshold crossings are
        interpolated inside each piece).
    merge_gap:
        Coalesce reported intervals separated by less than this (useful
        to suppress sliver gaps where the estimate briefly dips below
        ``theta`` at a breakpoint).
    """
    return _scan_bursty_times(
        _curve_evaluator(curve, tau),
        knots,
        theta,
        tau,
        t_end,
        piecewise,
        merge_gap,
    )


def _curve_evaluator(curve: CumulativeCurve, tau: float) -> Evaluator:
    """``b(t) = F(t) - 2 F(t - tau) + F(t - 2 tau)`` over an array of
    times, with the association of
    :func:`~repro.streams.frequency.burstiness_from_curve`."""
    value_many = getattr(curve, "value_many", None)

    def evaluate(times: np.ndarray) -> np.ndarray:
        n = times.size
        lagged = np.concatenate((times, times - tau, times - 2 * tau))
        if value_many is not None:
            values = np.asarray(value_many(lagged), dtype=np.float64)
        else:
            values = np.array(
                [curve.value(t) for t in lagged.tolist()], dtype=np.float64
            )
        return values[:n] - 2.0 * values[n : 2 * n] + values[2 * n :]

    return evaluate


# ----------------------------------------------------------------------
# The breakpoint scan
# ----------------------------------------------------------------------
def _require_piecewise(piecewise: str) -> None:
    if piecewise not in ("constant", "linear"):
        raise InvalidParameterError(
            f"piecewise must be 'constant' or 'linear', got {piecewise!r}"
        )


def _shifted_knots(knots: Iterable[float], tau: float) -> np.ndarray:
    """Every knot with its ``tau`` and ``2 tau`` shifts (unsorted)."""
    k = np.fromiter(knots, dtype=np.float64)
    return np.concatenate((k, k + tau, k + 2 * tau))


def _scan_bursty_times(
    evaluate: Evaluator,
    knots: Iterable[float],
    theta: float,
    tau: float,
    t_end: float,
    piecewise: Literal["constant", "linear"],
    merge_gap: float,
) -> list[tuple[float, float]]:
    """Maximal intervals where ``evaluate(t) >= theta`` (the bursty time
    query); ``evaluate`` is called once, on every sample the scan needs.

    ``theta`` may be negative but not NaN: a NaN threshold would compare
    false everywhere and silently answer ``[]``.
    """
    require_tau(tau)
    if theta != theta:
        raise InvalidParameterError("theta must be a number, got nan")
    _require_piecewise(piecewise)
    with span(
        "query.breakpoint_scan", op="bursty_time", piecewise=piecewise
    ) as scan:
        shifted = _shifted_knots(knots, tau)
        points = np.unique(shifted[shifted <= t_end])
        if points.size and points[-1] < t_end:
            points = np.append(points, t_end)
        scan.set_attribute("breakpoints", int(points.size))
        if points.size == 0:
            return []
        if piecewise == "constant":
            starts, ends = _constant_runs(evaluate(points), points, theta)
        else:
            starts, ends = _linear_runs(evaluate, points, theta)
        return _merge_runs(starts, ends, merge_gap)


def _constant_runs(
    values: np.ndarray, points: np.ndarray, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Step function: a run opens at each breakpoint where the value
    rises to ``theta`` and closes at the next one where it falls below;
    a run still open at the last breakpoint (``t_end``) closes there."""
    above = values >= theta
    before = np.concatenate(([False], above[:-1]))
    starts = points[above & ~before]
    ends = points[~above & before]
    if above[-1]:
        ends = np.append(ends, points[-1])
    return starts, ends


def _linear_runs(
    evaluate: Evaluator, points: np.ndarray, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-linear function: each piece between breakpoints is
    sampled just inside both ends (the function may jump at the
    breakpoints themselves) and its threshold crossing interpolated."""
    left, right = points[:-1], points[1:]
    width = right - left
    inner = np.minimum(width * 1e-9, 1e-9)
    samples = evaluate(np.concatenate((left + inner, right - inner)))
    b_lo, b_hi = samples[: left.size], samples[left.size :]
    lo_up = b_lo >= theta
    hi_up = b_hi >= theta
    crossing = left.copy()
    one = lo_up != hi_up
    if one.any():
        fraction = (theta - b_lo[one]) / (b_hi[one] - b_lo[one])
        crossing[one] = left[one] + np.clip(fraction, 0.0, 1.0) * width[one]
    kept = lo_up | hi_up
    starts = np.where(lo_up, left, crossing)[kept]
    ends = np.where(hi_up, right, crossing)[kept]
    return starts, ends


def _merge_runs(
    starts: np.ndarray, ends: np.ndarray, merge_gap: float
) -> list[tuple[float, float]]:
    """Sort runs, drop empty ones and coalesce runs that touch or sit
    within ``merge_gap`` of the running end."""
    order = np.lexsort((ends, starts))
    starts, ends = starts[order], ends[order]
    nonempty = ends > starts
    starts, ends = starts[nonempty], ends[nonempty]
    if starts.size == 0:
        return []
    # With merge_gap >= 0 a new merged run starts past every earlier
    # end, so the running maximum is the end of the run being merged.
    reach = np.maximum.accumulate(ends)
    opens = np.empty(starts.size, dtype=bool)
    opens[0] = True
    opens[1:] = starts[1:] > reach[:-1] + merge_gap
    closes = np.append(np.flatnonzero(opens)[1:] - 1, starts.size - 1)
    return list(zip(starts[opens].tolist(), reach[closes].tolist()))


def _scan_peak(
    evaluate: Evaluator,
    knots: Iterable[float],
    tau: float,
    t_start: float,
    t_end: float,
    piecewise: Literal["constant", "linear"],
) -> tuple[float, float]:
    """``(t_star, b_star)``: the first breakpoint of ``[t_start, t_end]``
    where ``evaluate`` peaks (the range-peak query)."""
    require_tau(tau)
    require_time_range(t_start, t_end)
    _require_piecewise(piecewise)
    with span("query.breakpoint_scan", op="peak", piecewise=piecewise) as scan:
        shifted = _shifted_knots(knots, tau)
        candidates = [np.array([t_start, t_end], dtype=np.float64), shifted]
        if piecewise == "linear":
            # Sample just inside each breakpoint: pieces may jump.
            candidates.append(shifted - 1e-9)
        points = np.concatenate(candidates)
        points = np.unique(points[(t_start <= points) & (points <= t_end)])
        scan.set_attribute("breakpoints", int(points.size))
        values = evaluate(points)
        best = int(np.argmax(values))
        return float(points[best]), float(values[best])


class HistoricalBurstAnalyzer:
    """User-facing facade over the three historical burst queries.

    A thin veneer over the pluggable store layer
    (:mod:`repro.core.store`): the ``method`` string picks a registered
    backend and every query delegates to it, so the facade carries no
    backend-specific branching.  Pass ``store=`` to wrap any
    already-built :class:`~repro.core.store.BurstStore` (a sharded
    composite, a custom registered backend, a store loaded with
    :func:`~repro.core.serialize.load_store`) behind the same surface.

    Parameters
    ----------
    method:
        ``"exact"`` (the §II-B baseline), ``"cm-pbe-1"`` or ``"cm-pbe-2"``.
    universe_size:
        Size ``K`` of the event-id space.  Required for the sketch methods
        (the dyadic bursty-event index is built over it).
    eta, buffer_size:
        PBE-1 knobs (used by ``cm-pbe-1``).
    gamma, unit:
        PBE-2 knobs (used by ``cm-pbe-2``).
    width, depth:
        CM-PBE grid dimensions.
    with_index:
        Build the dyadic index for fast bursty event queries (doubles as
        the leaf-level point-query sketch).  When ``False`` a single
        leaf-level CM-PBE is kept and bursty event queries scan all ids.
    store:
        An existing :class:`~repro.core.store.BurstStore` to wrap; every
        other parameter is ignored when given.
    """

    _METHODS = ("exact", "cm-pbe-1", "cm-pbe-2")

    def __init__(
        self,
        method: str = "cm-pbe-1",
        universe_size: int | None = None,
        eta: int = 100,
        buffer_size: int = 1500,
        gamma: float = 20.0,
        unit: float = 1.0,
        width: int = 6,
        depth: int = 3,
        combiner: str = "median",
        with_index: bool = True,
        seed: int = 0,
        store=None,
    ) -> None:
        from repro.core.store import create_store

        if store is not None:
            self._store = store
            self.method = getattr(store, "backend_key", "custom")
            self.universe_size = getattr(
                store, "universe_size", universe_size
            )
            return
        if method not in self._METHODS:
            raise InvalidParameterError(
                f"method must be one of {self._METHODS}, got {method!r}"
            )
        self.method = method
        self.universe_size = universe_size
        if method == "exact":
            self._store = create_store("exact")
            return
        if universe_size is None:
            raise InvalidParameterError(
                "universe_size is required for sketch methods"
            )
        cell = "pbe1" if method == "cm-pbe-1" else "pbe2"
        cell_cfg = dict(
            cell=cell,
            eta=eta,
            buffer_size=buffer_size,
            gamma=gamma,
            unit=unit,
            width=width,
            depth=depth,
            combiner=combiner,
            seed=seed,
        )
        if with_index:
            self._store = create_store(
                "index", universe_size=universe_size, **cell_cfg
            )
        else:
            del cell_cfg["cell"]
            self._store = create_store(
                method, universe_size=universe_size, **cell_cfg
            )

    # ------------------------------------------------------------------
    @property
    def store(self):
        """The underlying :class:`~repro.core.store.BurstStore`."""
        return self._store

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, event_id: int, timestamp: float, count: int = 1) -> None:
        """Ingest one stream element."""
        self._store.update(event_id, timestamp, count)

    def ingest(self, stream: Iterable[tuple[int, float]]) -> None:
        """Ingest a whole timestamp-ordered stream."""
        self._store.extend(stream)

    def extend_batch(self, event_ids, timestamps, counts=None) -> None:
        """Vectorized ingest of a columnar record batch."""
        self._store.extend_batch(event_ids, timestamps, counts)

    # ------------------------------------------------------------------
    # The three queries (§II-A)
    # ------------------------------------------------------------------
    def point_query(self, event_id: int, t: float, tau: float) -> float:
        """POINT QUERY ``q(e, t, tau)`` → ``b_e(t)``."""
        return self._store.point_query(event_id, t, tau)

    def point_query_batch(self, event_ids, ts, tau: float):
        """Batched POINT QUERY: one ``b_e(t)`` per ``(e, t)`` pair."""
        return self._store.point_query_batch(event_ids, ts, tau)

    def bursty_times(
        self,
        event_id: int,
        theta: float,
        tau: float,
        t_end: float | None = None,
        merge_gap: float = 0.0,
    ) -> list[tuple[float, float]]:
        """BURSTY TIME QUERY ``q(e, theta, tau)`` → intervals with
        ``b_e(t) >= theta``."""
        return self._store.bursty_time_query(
            event_id, theta, tau, t_end=t_end, merge_gap=merge_gap
        )

    def bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        """BURSTY EVENT QUERY ``q(t, theta, tau)`` → events with
        ``b_e(t) >= theta``."""
        return self._store.bursty_event_query(t, theta, tau)

    def peak_burstiness(
        self,
        event_id: int,
        t_start: float,
        t_end: float,
        tau: float,
    ) -> tuple[float, float]:
        """``(t_star, b_star)``: the event's burstiest moment in a range."""
        return self._store.peak_query(event_id, t_start, t_end, tau)

    # ------------------------------------------------------------------
    def cumulative_frequency(self, event_id: int, t: float) -> float:
        """Estimated (or exact) ``F_e(t)``."""
        return self._store.cumulative_frequency(event_id, t)

    def finalize(self) -> None:
        """Flush sketch buffers (no-op for the exact baseline)."""
        self._store.finalize()

    def size_in_bytes(self) -> int:
        """Storage footprint of the chosen backend."""
        return self._store.size_in_bytes()

    def metrics_snapshot(self) -> dict:
        """Operational metrics: the process-wide registry plus, when the
        wrapped store is an
        :class:`~repro.core.metrics.InstrumentedStore`, its per-store
        registry under ``"store"`` (``None`` otherwise)."""
        from repro.core.metrics import global_registry

        store_snapshot = None
        snapshot_fn = getattr(self._store, "metrics_snapshot", None)
        if snapshot_fn is not None:
            store_snapshot = snapshot_fn()
        return {
            "global": global_registry().snapshot(),
            "store": store_snapshot,
        }
