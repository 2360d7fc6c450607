"""Differential wall for the batched breakpoint scan.

Every store's bursty-time and peak query, the public curve helpers and
the exact baseline run one breakpoint scan fed by a single batched
evaluation (:mod:`repro.core.queries`).  These tests compare each of
them with the scalar per-breakpoint loops in
:mod:`tests.oracles.breakpoint_scan` and require *equal* answers, not
close ones: batching may never change a result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact import ExactBurstStore
from repro.core.durable import create_durable, recover
from repro.core.pbe1 import PBE1
from repro.core.pbe2 import PBE2
from repro.core.queries import bursty_time_intervals, max_burstiness
from repro.core.serialize import open_store, save_store
from repro.core.store import create_store
from repro.core.tracing import Tracer, set_tracer
from tests.backends import BACKEND_MATRIX, UNIVERSE
from tests.oracles import breakpoint_scan as oracle

TAU = 40.0
HORIZON = 3_000.0
EVENTS = (3, 7, 11, UNIVERSE + 5)
THETAS = (-2.0, 0.0, 4.0)

_PBE1 = dict(eta=60, buffer_size=400, width=16, depth=5, seed=0)
_PBE2 = dict(gamma=12.0, unit=1.0, width=16, depth=5, seed=0)


def _stream(seed: int = 5, n: int = 1_500) -> tuple[np.ndarray, np.ndarray]:
    """Uniform background plus sharp bursts for events 3 and 7."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, UNIVERSE, n)
    ts = rng.uniform(0.0, HORIZON, n)
    burst_ts = rng.normal(1_500.0, 25.0, 300).clip(0.0, HORIZON)
    burst_ids = np.where(np.arange(300) % 3 == 0, 7, 3)
    ids = np.concatenate([ids, burst_ids]).astype(np.int64)
    ts = np.concatenate([ts, burst_ts]).round(1)
    order = np.argsort(ts, kind="stable")
    return ids[order], ts[order]


def _ingest(store):
    ids, ts = _stream()
    store.extend_batch(ids, ts)
    store.finalize()
    return store


# Durable lifecycles closed and reopened through ``recover``: sealed
# segments plus a replayed WAL tail, single and sharded.
DURABLE_CASES = [
    ("exact", dict(backend="exact")),
    ("cm-pbe-1", dict(backend="cm-pbe-1", universe_size=UNIVERSE, **_PBE1)),
    ("cm-pbe-2", dict(backend="cm-pbe-2", universe_size=UNIVERSE, **_PBE2)),
    (
        "index-pbe2",
        dict(backend="index", universe_size=UNIVERSE, cell="pbe2", **_PBE2),
    ),
    (
        "sharded-x2-cm-pbe-2",
        dict(
            backend="cm-pbe-2", shards=2, universe_size=UNIVERSE, **_PBE2
        ),
    ),
]

STATE_IDS = (
    [f"memory-{label}" for label, _, _ in BACKEND_MATRIX]
    + [f"reopened-{label}" for label, _, _ in BACKEND_MATRIX]
    + [f"recovered-durable-{label}" for label, _ in DURABLE_CASES]
)


@pytest.fixture(scope="module", params=STATE_IDS)
def store(request, tmp_path_factory):
    state, _, label = request.param.partition("-")
    if state == "recovered":
        label = label.removeprefix("durable-")
        cfg = dict(DURABLE_CASES)[label]
        path = tmp_path_factory.mktemp("durable") / label
        writer = create_durable(path, seal_elements=700, **cfg)
        ids, ts = _stream()
        writer.extend_batch(ids, ts)
        writer.close()
        opened = recover(path)
    else:
        _, key, cfg = next(row for row in BACKEND_MATRIX if row[0] == label)
        opened = _ingest(create_store(key, **cfg))
        if state == "reopened":
            path = tmp_path_factory.mktemp("envelope") / f"{label}.beds"
            path.write_bytes(save_store(opened))
            opened.close()
            opened = open_store(path)
    yield opened
    opened.close()


class TestStoresMatchScalarScan:
    @pytest.mark.parametrize("merge_gap", [0.0, 3 * TAU])
    def test_bursty_time_default_end(self, store, merge_gap):
        end = store.t_end + 2 * TAU
        for event_id in EVENTS:
            for theta in THETAS:
                got = store.bursty_time_query(
                    event_id, theta, TAU, merge_gap=merge_gap
                )
                want = oracle.store_bursty_times(
                    store, event_id, theta, TAU, end, merge_gap
                )
                assert got == want, (event_id, theta)

    @pytest.mark.parametrize(
        "t_end",
        [0.45 * HORIZON, HORIZON - 0.05, HORIZON + 7.5 * TAU],
        ids=["before-burst-end", "before-last-knot", "past-horizon"],
    )
    def test_bursty_time_explicit_end(self, store, t_end):
        for event_id in EVENTS:
            for theta in THETAS:
                got = store.bursty_time_query(
                    event_id, theta, TAU, t_end=t_end, merge_gap=TAU
                )
                want = oracle.store_bursty_times(
                    store, event_id, theta, TAU, t_end, TAU
                )
                assert got == want, (event_id, theta)

    @pytest.mark.parametrize(
        "t_start,t_end",
        [(0.0, HORIZON + 2 * TAU), (1_400.0, 1_650.0), (10.0, 10.5)],
    )
    def test_peak(self, store, t_start, t_end):
        for event_id in EVENTS:
            got = store.peak_query(event_id, t_start, t_end, TAU)
            want = oracle.store_peak(store, event_id, t_start, t_end, TAU)
            assert got == want, event_id


@pytest.mark.parametrize(
    "key,cfg,asked",
    [
        ("cm-pbe-1", dict(universe_size=UNIVERSE, **_PBE1), "linear"),
        ("cm-pbe-2", dict(universe_size=UNIVERSE, **_PBE2), "constant"),
        ("direct", dict(cell="pbe2", gamma=12.0, unit=1.0), "constant"),
    ],
)
def test_requested_piecewise_mode(key, cfg, asked):
    """A caller-chosen ``piecewise`` mode scans the same way as the
    scalar loop in that mode."""
    store = _ingest(create_store(key, **cfg))
    end = store.t_end + 2 * TAU
    for event_id in EVENTS:
        for theta in THETAS:
            got = store.bursty_time_query(
                event_id, theta, TAU, piecewise=asked, merge_gap=TAU
            )
            want = oracle.bursty_time_intervals(
                store.curve(event_id),
                store.segment_starts(event_id),
                theta,
                TAU,
                end,
                piecewise=asked,
                merge_gap=TAU,
            )
            assert got == want, (event_id, theta)


@pytest.mark.parametrize(
    "key,cfg",
    [
        ("cm-pbe-1", dict(universe_size=UNIVERSE, **_PBE1)),
        ("cm-pbe-2", dict(universe_size=UNIVERSE, **_PBE2)),
        ("direct", dict(cell="pbe1", eta=60, buffer_size=400)),
    ],
)
def test_flat_bursty_event_scan_matches_per_id_loop(key, cfg):
    """The flat bursty-event scans read every id in one batch; hits and
    their canonical order equal a per-id scalar ``burstiness`` loop."""
    store = _ingest(create_store(key, **cfg))
    sketch = store.inner
    universe = (
        range(UNIVERSE) if key != "direct" else sorted(sketch._cells)
    )
    for t in (100.0, 1_480.0, 1_530.0, HORIZON + TAU):
        for theta in (0.0, 1.0, 5.0):
            want = []
            for event_id in universe:
                value = sketch.burstiness(event_id, t, TAU)
                if value >= theta:
                    want.append((event_id, value))
            want.sort(key=lambda hit: (-hit[1], hit[0]))
            got = [
                (hit.event_id, hit.burstiness)
                for hit in store.bursty_event_query(t, theta, TAU)
            ]
            assert got == want, (t, theta)


class TestExactBaseline:
    @pytest.fixture(scope="class")
    def exact(self):
        store = ExactBurstStore()
        ids, ts = _stream()
        for event_id, t in zip(ids.tolist(), ts.tolist()):
            store.update(event_id, t)
        return store

    @pytest.mark.parametrize("t_end", [None, 1_200.0, HORIZON + 5 * TAU])
    def test_bursty_times_match_oracle(self, exact, t_end):
        for event_id in EVENTS:
            times = exact.timestamps_of(event_id)
            for theta in THETAS:
                assert exact.bursty_times(
                    event_id, theta, TAU, t_end=t_end
                ) == oracle.exact_bursty_times(times, theta, TAU, t_end)

    def test_no_zero_length_interval_at_the_end(self):
        # b(t_end) = 0 >= theta = 0 opens a run exactly at t_end; like
        # every other backend, the exact baseline does not report it.
        exact = ExactBurstStore()
        for t in (1.0, 2.0, 3.0, 5.0):
            exact.update(0, t)
        assert exact.bursty_times(0, 0.0, 1.0) == [(1.0, 4.0), (5.0, 6.0)]
        store = create_store("exact")
        store.extend_batch([0, 0, 0, 0], [1.0, 2.0, 3.0, 5.0])
        assert store.bursty_time_query(0, 0.0, 1.0) == [
            (1.0, 4.0),
            (5.0, 6.0),
        ]


class _ValueOnlyCurve:
    """A :class:`CumulativeCurve` with ``value`` only (no batch read)."""

    def __init__(self, curve) -> None:
        self._curve = curve
        self.reads = 0

    def value(self, t: float) -> float:
        self.reads += 1
        return self._curve.value(t)

    def size_in_bytes(self) -> int:
        return self._curve.size_in_bytes()


def _cells(timestamps):
    ts = np.asarray(timestamps, dtype=np.float64)
    pbe1 = PBE1(eta=12, buffer_size=60)
    pbe1.extend_batch(ts)
    pbe1.flush()
    pbe2 = PBE2(gamma=3.0, unit=0.1)
    pbe2.extend_batch(ts)
    pbe2.finalize()
    return [(pbe1, "constant"), (pbe2, "linear")]


class TestCurveHelpers:
    @pytest.fixture(scope="class")
    def timestamps(self):
        ids, ts = _stream()
        return ts[ids == 3].tolist()

    def test_value_only_curve(self, timestamps):
        for cell, piecewise in _cells(timestamps):
            knots = cell.segment_starts()
            for theta in THETAS:
                plain = _ValueOnlyCurve(cell)
                got = bursty_time_intervals(
                    plain, knots, theta, TAU, HORIZON, piecewise, TAU
                )
                assert got == oracle.bursty_time_intervals(
                    cell, knots, theta, TAU, HORIZON, piecewise, TAU
                )
                # The batched path reads the same curve values.
                assert got == bursty_time_intervals(
                    cell, knots, theta, TAU, HORIZON, piecewise, TAU
                )
                assert plain.reads > 0
            plain = _ValueOnlyCurve(cell)
            peak = max_burstiness(plain, knots, TAU, 1_000.0, 2_000.0, piecewise)
            assert peak == oracle.max_burstiness(
                cell, knots, TAU, 1_000.0, 2_000.0, piecewise
            )

    def test_constant_scan_reads_three_values_per_breakpoint(self):
        curve = _ValueOnlyCurve(PBE1(eta=10, buffer_size=10))
        knots = [1.0, 2.0, 10.0]
        bursty_time_intervals(curve, knots, 1.0, 1.0, t_end=20.0)
        # Breakpoints {1,2,3,4,10,11,12} plus t_end.
        assert curve.reads == 3 * 8


@settings(max_examples=40, deadline=None)
@given(
    raw=st.lists(
        st.tuples(st.integers(0, 5), st.floats(0.0, 400.0)),
        min_size=1,
        max_size=120,
    ),
    theta=st.floats(-5.0, 15.0),
    tau=st.floats(0.5, 60.0),
    merge_gap=st.sampled_from([0.0, 0.0, 5.0, 40.0]),
    end_shift=st.floats(-300.0, 200.0),
)
def test_property_random_streams(raw, theta, tau, merge_gap, end_shift):
    raw.sort(key=lambda pair: pair[1])
    ids = np.array([pair[0] for pair in raw], dtype=np.int64)
    ts = np.round(np.array([pair[1] for pair in raw]), 1)
    t_end = float(ts[-1]) + end_shift
    stores = [
        create_store("exact"),
        create_store(
            "cm-pbe-1", universe_size=6, eta=8, buffer_size=16,
            width=3, depth=3,
        ),
        create_store(
            "cm-pbe-2", universe_size=6, gamma=2.0, unit=0.1,
            width=3, depth=3,
        ),
        create_store("direct", cell="pbe2", gamma=1.0, unit=0.1),
    ]
    for store in stores:
        store.extend_batch(ids, ts)
        store.finalize()
        for event_id in range(6):
            got = store.bursty_time_query(
                event_id, theta, tau, t_end=t_end, merge_gap=merge_gap
            )
            want = oracle.store_bursty_times(
                store, event_id, theta, tau, t_end, merge_gap
            )
            assert got == want
            if t_end > 0.0:
                assert store.peak_query(
                    event_id, 0.0, t_end, tau
                ) == oracle.store_peak(store, event_id, 0.0, t_end, tau)


def test_scan_emits_a_named_span():
    store = _ingest(create_store("cm-pbe-2", universe_size=UNIVERSE, **_PBE2))
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        store.bursty_time_query(3, 2.0, TAU)
        store.peak_query(3, 0.0, HORIZON, TAU)
        scans = [
            span["attributes"]
            for span in tracer.finished_spans()
            if span["name"] == "query.breakpoint_scan"
        ]
    finally:
        set_tracer(previous)
    assert [scan["op"] for scan in scans] == ["bursty_time", "peak"]
    assert all(scan["piecewise"] == "linear" for scan in scans)
    assert all(scan["breakpoints"] > 0 for scan in scans)
