"""Scalar reference for the bursty-time and peak breakpoint scans.

These are the per-breakpoint loops :mod:`repro.core.queries` ran before
its scan became one batched evaluation: three scalar ``curve.value``
reads per breakpoint (six per linear piece), a Python state machine for
the intervals and a running maximum for the peak.  The production scan
must return exactly these answers.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.errors import InvalidParameterError, require_tau
from repro.streams.frequency import (
    CumulativeCurve,
    StaircaseCurve,
    burstiness_from_curve,
)


def max_burstiness(
    curve: CumulativeCurve,
    knots: Iterable[float],
    tau: float,
    t_start: float,
    t_end: float,
    piecewise: str = "constant",
) -> tuple[float, float]:
    """``(t_star, b_star)`` by scalar evaluation at every breakpoint."""
    require_tau(tau)
    if t_end <= t_start:
        raise InvalidParameterError("t_end must exceed t_start")
    candidates = {t_start, t_end}
    for knot in knots:
        for shifted in (knot, knot + tau, knot + 2 * tau):
            if t_start <= shifted <= t_end:
                candidates.add(shifted)
            if piecewise == "linear":
                before = shifted - 1e-9
                if t_start <= before <= t_end:
                    candidates.add(before)
    best_t = t_start
    best_value = float("-inf")
    for t in sorted(candidates):
        value = burstiness_from_curve(curve, t, tau)
        if value > best_value:
            best_value = value
            best_t = t
    return best_t, best_value


def bursty_time_intervals(
    curve: CumulativeCurve,
    knots: Iterable[float],
    theta: float,
    tau: float,
    t_end: float,
    piecewise: str = "constant",
    merge_gap: float = 0.0,
) -> list[tuple[float, float]]:
    """Maximal intervals where ``b~(t) >= theta``, one breakpoint at a
    time."""
    require_tau(tau)
    knot_list = sorted(knots)
    if not knot_list:
        return []
    breakpoints = sorted(
        {
            shifted
            for knot in knot_list
            for shifted in (knot, knot + tau, knot + 2 * tau)
            if shifted <= t_end
        }
    )
    if not breakpoints:
        return []
    if breakpoints[-1] < t_end:
        breakpoints.append(t_end)
    if piecewise == "constant":
        raw = _constant_intervals(curve, breakpoints, theta, tau, t_end)
    else:
        raw = _linear_intervals(curve, breakpoints, theta, tau)
    return merge_intervals(raw, merge_gap)


def _constant_intervals(curve, breakpoints, theta, tau, t_end):
    intervals = []
    open_start = None
    for point in breakpoints:
        value = burstiness_from_curve(curve, point, tau)
        if value >= theta and open_start is None:
            open_start = point
        elif value < theta and open_start is not None:
            intervals.append((open_start, point))
            open_start = None
    if open_start is not None:
        intervals.append((open_start, t_end))
    return intervals


def _linear_intervals(curve, breakpoints, theta, tau):
    intervals = []
    for left, right in zip(breakpoints, breakpoints[1:]):
        width = right - left
        if width <= 0:
            continue
        # Sample just inside the piece: the function may jump at the
        # breakpoints themselves.
        inner = min(width * 1e-9, 1e-9)
        b_lo = burstiness_from_curve(curve, left + inner, tau)
        b_hi = burstiness_from_curve(curve, right - inner, tau)
        if b_lo >= theta and b_hi >= theta:
            intervals.append((left, right))
        elif b_lo >= theta or b_hi >= theta:
            if b_hi == b_lo:
                crossing = left if b_lo >= theta else right
            else:
                fraction = (theta - b_lo) / (b_hi - b_lo)
                crossing = left + min(max(fraction, 0.0), 1.0) * width
            if b_lo >= theta:
                intervals.append((left, crossing))
            else:
                intervals.append((crossing, right))
    return intervals


def merge_intervals(intervals, merge_gap: float = 0.0):
    """Sort, drop empty intervals and coalesce those within ``merge_gap``."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1] + merge_gap:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def store_bursty_times(
    store, event_id: int, theta: float, tau: float, t_end: float,
    merge_gap: float = 0.0,
) -> list[tuple[float, float]]:
    """A store's bursty time query through its scalar curve view."""
    return bursty_time_intervals(
        store.curve(event_id),
        store.segment_starts(event_id),
        theta,
        tau,
        t_end,
        piecewise=store.piecewise,
        merge_gap=merge_gap,
    )


def store_peak(
    store, event_id: int, t_start: float, t_end: float, tau: float
) -> tuple[float, float]:
    """A store's peak query through its scalar curve view."""
    return max_burstiness(
        store.curve(event_id),
        store.segment_starts(event_id),
        tau,
        t_start,
        t_end,
        piecewise=store.piecewise,
    )


def exact_bursty_times(
    timestamps, theta: float, tau: float, t_end: float | None = None
) -> list[tuple[float, float]]:
    """The exact baseline's bursty time query: the constant scan over
    the exact staircase of ``timestamps``, ending ``2 tau`` after the
    last occurrence unless ``t_end`` is given."""
    times = sorted(timestamps)
    if not times:
        return []
    end = t_end if t_end is not None else times[-1] + 2 * tau
    return bursty_time_intervals(
        StaircaseCurve.from_timestamps(times), times, theta, tau, end
    )
