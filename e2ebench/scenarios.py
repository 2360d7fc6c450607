"""The benchmark workloads and the pipeline they share.

Every workload is one user path through the public API:

    ingest -> persist -> reopen -> query panel

* **ingest** feeds a generated stream file through
  ``iter_record_batches`` into ``create_store`` or ``create_durable``,
  timing every acknowledged batch (``extend_batch``, plus ``flush()`` on
  durable stores);
* **persist** puts the store into its final on-disk form: ``finalize``,
  ``save_store`` and an atomic file write for envelopes; a last
  ``seal()`` plus ``close()`` for a durable directory, which is also
  sealed during ingest, inside the acknowledgement of each batch that
  brings its memtable to ``seal_every`` records (as an automatic seal
  would be).  Ingest time includes the persist;
* **reopen** turns the files back into a store and answers its first
  point-query batch (``open_store`` for envelopes, ``recover`` for
  durable directories), so lazy loading and segment folds count;
* the **query panel** is one closed-loop client issuing a seeded mix of
  point-query batches, bursty-time queries and bursty-event queries to
  the reopened store.  Between its operations the files are reopened
  ``reopens - 1`` more times (and closed again), so the reopen samples
  spread over the whole run.

``history-queries`` moves ingest and persist into set-up, so its timed
part is the reopens and the query panel only.

Inputs come from the ``--seed`` alone.  Set-up also builds an
``ExactStore`` oracle over the same records; every workload is scored
against it on a separate, untimed accuracy panel.

Every operation is measured in retired user-space instructions
(:class:`Instructions`, in millions: Minstr), the work the program does
for it.  On a shared machine the time the same work takes swings by up
to 2x with the load a neighbour puts on the core (the instruction
count does not move), and wall time adds the device that holds the
checkout.  ``setup_s`` alone is process CPU time.  :class:`FileWaits`
counts the file calls a device blocks in, and the traced run shows
their wall time as ``fs.*`` spans.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import fcntl
import hashlib
import os
import platform
import struct
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.core import durable as repro_durable
from repro.core import serialize as repro_serialize
from repro.streams import EventStream
from repro.streams.io import iter_record_batches, write_binary
from repro.workloads import make_olympicrio, make_uspolitics

#: Window of the paper's burstiness ``b(t) = F(t) - 2F(t-tau) + F(t-2tau)``.
TAU = 86_400.0

#: Every set-up runs this many times; ``setup_s`` is their median.
SETUP_REPS = 3

#: Durable stores acknowledge a batch with an fsync at ``flush()``.
FSYNC = "batch"

#: The round-trip and determinism checks compare every point batch and
#: bursty-event query of the timed panel, and its first few bursty-time
#: queries (each is a full scan of the event's history).  Only a run's
#: first pass asks the other bursty-time queries: their instruction
#: counts repeat exactly, so a second pass adds no information.
ROUND_TRIP_TIME_QUERIES = 4

#: Accuracy panel: pairs per event, and bursty-event queries.
ACCURACY_PAIRS_PER_EVENT = 256
ACCURACY_EVENT_QUERIES = 256


@dataclass(frozen=True)
class Spec:
    """One workload: its input, its store, its query panel and the
    accuracy floors its answers must reach."""

    name: str
    dataset: str  # "olympicrio" | "uspolitics"
    events: int
    records: int
    backend: str
    store_cfg: dict
    batch: int
    durable: bool = False
    seal_every: int = 0  # durable: seal once the memtable holds this many
    timed_ingest: bool = True  # False: ingest + persist are set-up
    point_batches: int = 32
    point_batch_pairs: int = 512
    bursty_time_queries: int = 8
    bursty_event_queries: int = 32
    reopens: int = 3  # reopen samples per iteration
    iteration_s: float = 1.0  # nominal seconds; --seconds / this = passes
    predicted_layers: tuple = ()  # span-name prefixes that should dominate
    predicted_phases: tuple = ()  # ... the phases the workload stresses
    # Accuracy floors on the untimed panel, against the ExactStore
    # oracle.  They sit well below every seed measured, so only a
    # broken sketch, serializer or query path falls under them.
    min_point_burst_f1: float = 0.0
    min_bursty_event_f1: float = 0.0
    max_point_abs_err: float = float("inf")


class Instructions:
    """Retired user-space instructions of the calling thread, in
    millions, from the CPU's performance counter (``perf_event_open``).

    Calling the object reads the counter.  Kernel work (page faults,
    ``fsync``) is left out, so file-system state does not move it
    either; :class:`FileWaits` counts those calls instead.  Work done in
    other threads or processes is not counted.
    """

    _SYSCALL = {"x86_64": 298, "aarch64": 241}
    _ENABLE = 0x2400
    _RESET = 0x2403

    def __init__(self) -> None:
        number = self._SYSCALL.get(platform.machine())
        if number is None:
            raise OSError(f"no perf_event_open on {platform.machine()}")
        # struct perf_event_attr: type PERF_TYPE_HARDWARE (0), config
        # PERF_COUNT_HW_INSTRUCTIONS (1); flags disabled, exclude_kernel,
        # exclude_hv.
        attr = bytearray(128)
        struct.pack_into("<IIQ", attr, 0, 0, len(attr), 1)
        struct.pack_into("<Q", attr, 40, 1 | 1 << 5 | 1 << 6)
        buffer = ctypes.create_string_buffer(bytes(attr), len(attr))
        syscall = ctypes.CDLL(None, use_errno=True).syscall
        self._fd = syscall(number, buffer, 0, -1, -1, 0)
        if self._fd < 0:
            error = ctypes.get_errno()
            raise OSError(error, f"perf_event_open: {os.strerror(error)}")
        fcntl.ioctl(self._fd, self._RESET, 0)
        fcntl.ioctl(self._fd, self._ENABLE, 0)

    def __call__(self) -> float:
        return struct.unpack("<Q", os.read(self._fd, 8))[0] / 1e6

    def close(self) -> None:
        os.close(self._fd)


class FileWaits:
    """Counts and times the calls through which a device blocks.

    :meth:`install` wraps ``os.fsync``, ``os.unlink``/``os.remove`` and
    ``os.replace``/``os.rename`` (the program reaches all of them through
    the ``os`` module).  With ``tracer`` set (traced run only), each call
    is also an ``fs.<name>`` span.
    """

    NAMES = ("fsync", "unlink", "remove", "replace", "rename")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = dict.fromkeys(self.NAMES, 0)
        self.tracer = None
        self._originals: dict = {}

    def _wrap(self, name: str, original):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    return original(*args, **kwargs)
                with self.tracer.span(f"fs.{name}"):
                    return original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start

        return wrapper

    def install(self) -> None:
        for name in self.NAMES:
            original = getattr(os, name)
            self._originals[name] = original
            setattr(os, name, self._wrap(name, original))

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            setattr(os, name, original)
        self._originals.clear()


_PBE1_CFG = dict(eta=100, buffer_size=1500, width=6, depth=3, seed=0)

SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="ingest-pbe1",
            dataset="olympicrio",
            events=128,
            records=200_000,
            backend="cm-pbe-1",
            store_cfg=dict(_PBE1_CFG, universe_size=128),
            batch=8192,
            bursty_time_queries=24,
            reopens=10,
            iteration_s=6.0,
            predicted_layers=("pbe1.",),
            predicted_phases=("ingest", "persist"),
            min_point_burst_f1=0.45,
            min_bursty_event_f1=0.15,
            max_point_abs_err=1500.0,
        ),
        Spec(
            name="history-queries",
            dataset="olympicrio",
            events=128,
            records=32_000,
            backend="index",
            store_cfg=dict(_PBE1_CFG, cell="pbe1", universe_size=128),
            batch=2048,
            timed_ingest=False,
            point_batches=16,
            point_batch_pairs=1024,
            bursty_time_queries=32,
            reopens=10,
            iteration_s=7.5,
            predicted_layers=(
                "queries.", "dyadic.", "cmpbe.burstiness_many",
            ),
            predicted_phases=("reopen", "queries"),
            min_point_burst_f1=0.45,
            min_bursty_event_f1=0.10,
            max_point_abs_err=250.0,
        ),
        Spec(
            name="durable-pbe2",
            dataset="uspolitics",
            events=192,
            records=200_000,
            backend="cm-pbe-2",
            store_cfg=dict(
                gamma=20.0, unit=1.0, width=6, depth=3, seed=0,
                universe_size=192,
            ),
            batch=8192,
            durable=True,
            seal_every=16_384,
            point_batches=16,
            point_batch_pairs=1024,
            bursty_time_queries=32,
            reopens=9,
            iteration_s=7.5,
            predicted_layers=("pbe2.",),
            predicted_phases=("ingest", "persist"),
            min_point_burst_f1=0.45,
            min_bursty_event_f1=0.15,
            max_point_abs_err=100.0,
        ),
    )
}


# ----------------------------------------------------------------------
# Samples, inputs, answers
# ----------------------------------------------------------------------
@dataclass
class Samples:
    """Raw measurements of one phase of a run (set-up or passes), in
    Minstr except ``setup_s``."""

    setup_s: list = field(default_factory=list)  # process CPU seconds
    ingest: list = field(default_factory=list)  # ingest plus persist
    ack: list = field(default_factory=list)
    reopen: list = field(default_factory=list)
    point: list = field(default_factory=list)
    bursty_time: list = field(default_factory=list)
    bursty_event: list = field(default_factory=list)
    passes: list = field(default_factory=list)  # timed phases, summed
    store_bytes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


@dataclass
class Panel:
    """A query panel and the oracle's answers to it."""

    point_ids: np.ndarray
    point_ts: np.ndarray
    time_events: list
    time_thetas: list
    event_ts: list
    event_thetas: list
    expected: "Answers"


@dataclass
class Inputs:
    """Everything set-up hands to the timed iterations."""

    stream_path: str
    records: int
    timed: Panel  # what the closed-loop client issues
    ops: list  # its shuffled ("point", k) / ("time", i) / ("event", j)
    accuracy: Panel  # untimed, scored once per run
    point_theta: float  # b >= point_theta counts as bursty
    envelope_path: str | None = None  # history-queries: the saved index
    live: "Answers | None" = None  # history-queries: the index, unsaved


@dataclass
class Answers:
    """Query answers in panel order."""

    points: np.ndarray
    times: list
    events: list

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.points, dtype="<f8").tobytes())
        h.update(repr(self.times).encode())
        h.update(repr(self.events).encode())
        return h.hexdigest()


def _hits(hits) -> list:
    return [(int(hit.event_id), float(hit.burstiness)) for hit in hits]


def round_trip_panel(panel: Panel) -> Panel:
    """The part of ``panel`` the round-trip check asks the live store."""
    return dataclasses.replace(
        panel,
        time_events=panel.time_events[:ROUND_TRIP_TIME_QUERIES],
        time_thetas=panel.time_thetas[:ROUND_TRIP_TIME_QUERIES],
    )


def round_trip_answers(answers: Answers) -> Answers:
    """The part of ``answers`` that :func:`round_trip_panel` asks for."""
    return dataclasses.replace(
        answers, times=answers.times[:ROUND_TRIP_TIME_QUERIES]
    )


def ask(store, panel: Panel) -> Answers:
    """Every query of ``panel``, untimed, in panel order."""
    points = store.point_query_batch(panel.point_ids, panel.point_ts, TAU)
    times = [
        store.bursty_time_query(event, theta, TAU)
        for event, theta in zip(panel.time_events, panel.time_thetas)
    ]
    events = [
        _hits(store.bursty_event_query(t, theta, TAU))
        for t, theta in zip(panel.event_ts, panel.event_thetas)
    ]
    return Answers(np.asarray(points, dtype=np.float64), times, events)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def _generate(spec: Spec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``spec.records`` timestamp-ordered records from ``seed``.

    The generators draw a Poisson total, so a 3% surplus is generated
    and the stream is cut at ``spec.records``: every seed then ingests
    the same record count and seals at the same points.
    """
    surplus = int(spec.records * 1.03) + 64
    if spec.dataset == "olympicrio":
        stream = make_olympicrio(
            n_events=spec.events, total_mentions=surplus, seed=seed
        )
    else:
        stream = make_uspolitics(
            n_events=spec.events, total_mentions=surplus, seed=seed
        ).stream
    ids, ts = stream.as_columns()
    if ids.size < spec.records:
        raise RuntimeError(
            f"{spec.name}: generator produced {ids.size} records, "
            f"{spec.records} needed"
        )
    return (
        np.asarray(ids[: spec.records], dtype=np.int64),
        np.asarray(ts[: spec.records], dtype=np.float64),
    )


def _panels(spec: Spec, seed: int, ids, ts, oracle):
    """The timed panel, its op order, the accuracy panel and the
    point-burst threshold, with the oracle's answers."""
    rng = np.random.default_rng([seed, 7])

    # Timed point pairs sit on stream records, where queries concentrate.
    positions = rng.integers(0, ids.size, spec.point_batches
                             * spec.point_batch_pairs)

    # Accuracy pairs: the same number per event, at that event's own
    # record times, so every event weighs the same in the score.
    own_ids, own_ts = [], []
    for event in np.unique(ids).tolist():
        own = ts[ids == event]
        own_ts.append(own[rng.integers(0, own.size, ACCURACY_PAIRS_PER_EVENT)])
        own_ids.append(np.full(ACCURACY_PAIRS_PER_EVENT, event, np.int64))

    # Bursty-time queries target events by volume rank (1, 4, 7, ...) so
    # every seed queries events of similar size; theta is a high quantile
    # of the event's own exact burstiness.
    volume = np.bincount(ids, minlength=spec.events)
    ranked = np.argsort(-volume, kind="stable")
    time_events, time_thetas = [], []
    for i in range(spec.bursty_time_queries):
        event = int(ranked[1 + 3 * i])
        own = ts[ids == event]
        b = oracle.point_query_batch(np.full(own.size, event), own, TAU)
        time_events.append(event)
        time_thetas.append(max(1.0, float(np.quantile(b, 0.95))))

    # Bursty-event queries at seeded instants; theta is the 90th
    # percentile of the exact burstiness over the universe at that t.
    universe = np.arange(spec.events, dtype=np.int64)
    event_ts, event_thetas = [], []
    for _ in range(ACCURACY_EVENT_QUERIES):
        t = float(ts[0] + (ts[-1] - ts[0]) * rng.uniform(0.1, 0.9))
        b = oracle.point_query_batch(universe, np.full(universe.size, t), TAU)
        event_ts.append(t)
        event_thetas.append(max(1.0, float(np.quantile(b, 0.9))))

    def panel(point_ids, point_ts, n_times, n_events):
        built = Panel(
            point_ids, point_ts, time_events[:n_times], time_thetas[:n_times],
            event_ts[:n_events], event_thetas[:n_events], None,
        )
        built.expected = ask(oracle, built)
        return built

    timed = panel(
        ids[positions], ts[positions], len(time_events),
        spec.bursty_event_queries,
    )
    accuracy = panel(
        np.concatenate(own_ids), np.concatenate(own_ts), 0,
        ACCURACY_EVENT_QUERIES,
    )
    ops = (
        [("point", k) for k in range(spec.point_batches)]
        + [("time", i) for i in range(spec.bursty_time_queries)]
        + [("event", j) for j in range(spec.bursty_event_queries)]
    )
    order = rng.permutation(len(ops))
    point_theta = max(1.0, float(np.median(accuracy.expected.points)))
    return timed, [ops[i] for i in order], accuracy, point_theta


def setup(spec: Spec, seed: int, workdir: str, samples: Samples,
          clock) -> Inputs:
    """Generate, write and index the inputs ``SETUP_REPS`` times.

    Each repetition is timed whole, in process CPU seconds; the last
    one's inputs are kept.
    ``history-queries`` also builds and saves its index here, so its
    ingest and persist samples come from set-up; the saved index's
    answers to the timed panel are kept, untimed, for the round-trip
    check.
    """
    inputs = store = None
    for rep in range(SETUP_REPS):
        start = time.process_time()
        ids, ts = _generate(spec, seed)
        stream_path = os.path.join(workdir, f"stream-{rep}.bin")
        write_binary(EventStream.from_columns(ids, ts), stream_path)
        oracle = repro.create_store("exact")
        oracle.extend_batch(ids, ts)
        timed, ops, accuracy, point_theta = _panels(
            spec, seed, ids, ts, oracle
        )
        inputs = Inputs(
            stream_path, int(ids.size), timed, ops, accuracy, point_theta
        )
        if not spec.timed_ingest:
            tag = f"setup-{rep}"
            store = ingest(spec, inputs, workdir, tag, samples, clock)
            inputs.envelope_path = persist(
                spec, store, workdir, tag, samples, clock
            )
        samples.setup_s.append(time.process_time() - start)
    if store is not None:
        inputs.live = ask(store, round_trip_panel(inputs.timed))
        store.close()
    return inputs


# ----------------------------------------------------------------------
# The timed pipeline
# ----------------------------------------------------------------------
def _new_store(spec: Spec, workdir: str, tag: str):
    if spec.durable:
        return repro.create_durable(
            os.path.join(workdir, f"durable-{tag}"),
            backend=spec.backend,
            # Never seal on its own: ingest seals at ``seal_every``.
            seal_elements=spec.records + 1,
            fsync=FSYNC,
            **spec.store_cfg,
        )
    return repro.create_store(spec.backend, **spec.store_cfg)


def ingest(spec: Spec, inputs: Inputs, workdir: str, tag: str, samples,
           clock):
    """Feed the stream file batch by batch; one ack sample per batch.

    A durable store is sealed after each batch that brings its memtable
    to ``seal_every`` records, before that batch's acknowledgement.
    """
    store = _new_store(spec, workdir, tag)
    durable = spec.durable
    acks = samples.ack
    unsealed = 0
    start = clock()
    for event_ids, timestamps in iter_record_batches(
        inputs.stream_path, spec.batch
    ):
        sent = clock()
        store.extend_batch(event_ids, timestamps)
        if durable:
            store.flush()
            unsealed += len(event_ids)
            if unsealed >= spec.seal_every:
                store.seal()
                unsealed = 0
        acks.append(clock() - sent)
        samples.attempted += 1
    samples.ingest.append(clock() - start)
    return store


def persist(spec: Spec, store, workdir: str, tag: str, samples,
            clock) -> str:
    """Put the rest of the store into its on-disk form; returns its
    path.  A durable store is closed here.  The time counts as part of
    the ingest that came before."""
    start = clock()
    if spec.durable:
        store.seal()
        store.close()
        path = store.directory
        size = sum(
            os.path.getsize(os.path.join(path, name))
            for name in os.listdir(path)
        )
    else:
        store.finalize()
        path = os.path.join(workdir, f"store-{tag}.beds")
        size = repro_serialize.atomic_write_bytes(
            path, repro.save_store(store)
        )
    samples.ingest[-1] += clock() - start
    samples.store_bytes.append(size)
    samples.attempted += 1
    return path


def reopen(spec: Spec, path: str, inputs: Inputs, samples, clock):
    """Files back to a store that has answered one point-query batch."""
    panel = inputs.timed
    pairs = spec.point_batch_pairs
    start = clock()
    if spec.durable:
        store = repro_durable.recover(path, fsync=FSYNC)
    else:
        store = repro_serialize.open_store(path)
    store.point_query_batch(
        panel.point_ids[:pairs], panel.point_ts[:pairs], TAU
    )
    samples.reopen.append(clock() - start)
    samples.attempted += 1
    return store


def query_panel(spec: Spec, store, path: str, inputs: Inputs, samples,
                clock, phase, first: bool) -> Answers:
    """The closed-loop client: one op at a time, in the seeded order,
    with the extra reopen samples spread evenly between the ops.  A
    pass after a run's ``first`` leaves out the bursty-time queries
    beyond the ``ROUND_TRIP_TIME_QUERIES`` first."""
    panel = inputs.timed
    pairs = spec.point_batch_pairs
    points = np.empty(panel.point_ids.size, dtype=np.float64)
    times: list = [None] * len(panel.time_events)
    events: list = [None] * len(panel.event_ts)
    ops = [
        (kind, index) for kind, index in inputs.ops
        if first or kind != "time" or index < ROUND_TRIP_TIME_QUERIES
    ]
    probes = {len(ops) * k // spec.reopens for k in range(1, spec.reopens)}
    for position, (kind, index) in enumerate(ops):
        if position in probes:
            with phase("reopen"):
                reopen(spec, path, inputs, samples, clock).close()
        with phase("queries"):
            start = clock()
            if kind == "point":
                lo = index * pairs
                points[lo:lo + pairs] = store.point_query_batch(
                    panel.point_ids[lo:lo + pairs],
                    panel.point_ts[lo:lo + pairs],
                    TAU,
                )
                samples.point.append(clock() - start)
            elif kind == "time":
                times[index] = store.bursty_time_query(
                    panel.time_events[index], panel.time_thetas[index], TAU
                )
                samples.bursty_time.append(clock() - start)
            else:
                events[index] = _hits(
                    store.bursty_event_query(
                        panel.event_ts[index], panel.event_thetas[index],
                        TAU,
                    )
                )
                samples.bursty_event.append(clock() - start)
        samples.attempted += 1
    return Answers(points, times, events)


def iteration(spec: Spec, inputs: Inputs, workdir: str, tag: str, samples,
              clock, phase=None, first: bool = False):
    """One timed pass of the pipeline.

    Returns ``(answers, store, live_answers)``: the timed panel's
    answers, the reopened store that gave them (the caller closes it),
    and -- on a run's ``first`` pass -- the answers of the ingested store
    before it was persisted to :func:`round_trip_panel`, asked untimed,
    for the round-trip check (``None`` otherwise; ``history-queries``
    keeps its own from set-up).  Passes after the first ask fewer
    bursty-time queries (see :func:`query_panel`).
    ``phase(name)`` returns a context manager wrapped around each phase
    (the traced run opens a root span there); by default phases are not
    wrapped.
    """
    phase = phase or (lambda name: contextlib.nullcontext())
    expected = None
    if spec.timed_ingest:
        with phase("ingest"):
            store = ingest(spec, inputs, workdir, tag, samples, clock)
        if first and spec.durable:  # closed by persist
            expected = ask(store, round_trip_panel(inputs.timed))
        with phase("persist"):
            path = persist(spec, store, workdir, tag, samples, clock)
        if first and not spec.durable:
            expected = ask(store, round_trip_panel(inputs.timed))
        store.close()
    else:
        path = inputs.envelope_path
    timed = samples.ingest[-1] if spec.timed_ingest else 0.0
    start = clock()
    with phase("reopen"):
        store = reopen(spec, path, inputs, samples, clock)
    answers = query_panel(
        spec, store, path, inputs, samples, clock, phase, first
    )
    samples.passes.append(timed + clock() - start)
    return answers, store, expected


# ----------------------------------------------------------------------
# Correctness and accuracy
# ----------------------------------------------------------------------
def exact_durable_answers(spec: Spec, inputs: Inputs, workdir: str) -> Answers:
    """The timed panel, asked of a durable ``exact`` store over the same
    stream after ``close()`` and ``recover()``.

    The store is fed as the timed ingest is, but seals on its own every
    ``seal_every`` records and is closed unsealed, so recovery folds the
    segments and replays the WAL tail.  Nothing is sketched, so the
    answers must equal the in-memory oracle's bit for bit.
    """
    path = os.path.join(workdir, "durable-exact")
    store = repro.create_durable(
        path, backend="exact", seal_elements=spec.seal_every, fsync=FSYNC
    )
    for event_ids, timestamps in iter_record_batches(
        inputs.stream_path, spec.batch
    ):
        store.extend_batch(event_ids, timestamps)
        store.flush()
    store.close()
    recovered = repro_durable.recover(path, fsync=FSYNC)
    try:
        return ask(recovered, inputs.timed)
    finally:
        recovered.close()


def _f1(true_pos: int, predicted: int, actual: int) -> float:
    if predicted == 0 and actual == 0:
        return 1.0
    return 2.0 * true_pos / (predicted + actual)


def accuracy(inputs: Inputs, got: Answers) -> dict:
    """Scores of the accuracy panel's answers against the oracle."""
    want = inputs.accuracy.expected
    theta = inputs.point_theta
    got_bursty = got.points >= theta
    want_bursty = want.points >= theta
    point_f1 = _f1(
        int(np.count_nonzero(got_bursty & want_bursty)),
        int(np.count_nonzero(got_bursty)),
        int(np.count_nonzero(want_bursty)),
    )
    true_pos = predicted = actual = 0
    for got_hits, want_hits in zip(got.events, want.events):
        got_ids = {event for event, _ in got_hits}
        want_ids = {event for event, _ in want_hits}
        true_pos += len(got_ids & want_ids)
        predicted += len(got_ids)
        actual += len(want_ids)
    return {
        "point_burst_f1": point_f1,
        "bursty_event_f1": _f1(true_pos, predicted, actual),
        "point_abs_err": float(np.mean(np.abs(got.points - want.points))),
    }


def accuracy_failures(spec: Spec, scores: dict) -> list:
    """The accuracy floors of ``spec`` that ``scores`` falls under."""
    failures = []
    for name, floor in (
        ("point_burst_f1", spec.min_point_burst_f1),
        ("bursty_event_f1", spec.min_bursty_event_f1),
    ):
        if not scores[name] >= floor:
            failures.append(f"{name} {scores[name]:.4f} < floor {floor}")
    if not scores["point_abs_err"] <= spec.max_point_abs_err:
        failures.append(
            f"point_abs_err {scores['point_abs_err']:.4f} > ceiling "
            f"{spec.max_point_abs_err}"
        )
    return failures
