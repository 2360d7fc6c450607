"""Per-layer measurement for the traced run (``--trace 1``).

Nothing here is active in the untraced run.  For the traced iterations
:func:`traced` installs, from this file only:

* a :class:`repro.Tracer` whose only exporter keeps spans in memory, so
  every span the program already emits (``durable.apply_batch``,
  ``seal.segment_write``, ``manifest.commit``, ``wal.*``,
  ``compact.*``, ``lazy.hydrate``, ``query.*``) is collected;
* span wrappers around the public callables of the sketch, query and
  storage layers (``approximate_staircase``, ``PBE2.extend_batch``,
  ``HashFamily.hash_many``, ``bursty_time_intervals``,
  ``BurstyEventIndex.bursty_events``, ``save_store``/``open_store``,
  the store query and ingest methods, ...), which also count the work
  each call did;
* ``fs.*`` spans around the file calls the device blocks in (``fsync``,
  ``unlink``, ``rename``; see ``scenarios.FileWaits``), so the file churn
  of the durable lifecycle shows as counts and as its own time, apart
  from the layer that issued it.

Everything is removed again when the traced iterations end.  A span's
self time is its duration minus the durations of its direct children.
The table keeps the spans inside the timed phases (``bench.*`` roots)
and inside the untimed ``compact()`` (``compaction.compact`` roots);
the benchmark's own untimed checks are left out.
"""

from __future__ import annotations

import contextlib
import functools
import sys

from repro.core import cmpbe as repro_cmpbe
from repro.core import dyadic as repro_dyadic
from repro.core import durable as repro_durable
from repro.core import pbe1 as repro_pbe1
from repro.core import pbe2 as repro_pbe2
from repro.core import queries as repro_queries
from repro.core import serialize as repro_serialize
from repro.core import store as repro_store
from repro.core.metrics import global_registry
from repro.core.tracing import Tracer, set_tracer
from repro.sketch import hashing as repro_hashing

#: Per-layer metrics: (name, unit, better, what it should move).
#: Times and counts are per traced iteration.
PER_LAYER = [
    ("pbe1.compress_s", "s", "lower",
     "ingest_instr_per_rec on ingest-pbe1; setup_s on history-queries"),
    ("pbe1.compress_calls", "count", "lower", "as pbe1.compress_s"),
    ("pbe1.corners_in", "count", "lower", "as pbe1.compress_s"),
    ("pbe1.kept_ratio", "ratio", "lower",
     "store_bytes_per_rec and point_burst_f1 on pbe1 workloads"),
    ("pbe2.extend_s", "s", "lower", "ingest_instr_per_rec on durable-pbe2"),
    ("pbe2.points_in", "count", "lower", "as pbe2.extend_s"),
    ("pbe2.segments_out", "count", "lower",
     "store_bytes_per_rec on durable-pbe2"),
    ("hashing.hash_many_s", "s", "lower",
     "ingest_instr_per_rec on sketch workloads; point_batch_* on "
     "history-queries"),
    ("cmpbe.extend_self_s", "s", "lower",
     "ingest_instr_per_rec on ingest-pbe1 and durable-pbe2"),
    ("cmpbe.burstiness_many_s", "s", "lower",
     "point_batch_* and bursty_event_* on history-queries"),
    ("cmpbe.hash_cache_hit_ratio", "ratio", "higher",
     "point_batch_* on history-queries"),
    ("queries.bursty_time_s", "s", "lower",
     "bursty_time_p50_minstr on history-queries and the pbe workloads"),
    ("queries.breakpoints_per_query", "count", "lower",
     "bursty_time_p50_minstr"),
    ("queries.curve_evals_per_query", "count", "lower",
     "bursty_time_p50_minstr"),
    ("dyadic.extend_s", "s", "lower", "setup_s on history-queries"),
    ("dyadic.bursty_events_s", "s", "lower",
     "bursty_event_* on history-queries"),
    ("dyadic.point_queries_per_query", "count", "lower",
     "bursty_event_* on history-queries (128 = no pruning)"),
    ("dyadic.hits_per_point_query", "ratio", "higher",
     "bursty_event_* on history-queries"),
    ("store.extend_batch_self_s", "s", "lower",
     "ingest_instr_per_rec and ack_batch_* everywhere"),
    ("store.point_query_batch_self_s", "s", "lower",
     "point_batch_* everywhere"),
    ("store.bursty_query_self_s", "s", "lower",
     "bursty_time_p50_minstr and bursty_event_* where a store scans (cm-pbe)"),
    ("serialize.save_store_s", "s", "lower",
     "ingest_instr_per_rec everywhere; ack_batch_tail_minstr on durable-pbe2"),
    ("serialize.open_store_s", "s", "lower",
     "reopen_minstr everywhere"),
    ("serialize.bytes_written", "B", "lower",
     "store_bytes_per_rec everywhere"),
    ("serialize.cells_hydrated", "count", "lower",
     "point_batch_tail_minstr (cold cells)"),
    ("serialize.hydrate_s", "s", "lower",
     "point_batch_tail_minstr and reopen_minstr"),
    ("wal.append_s", "s", "lower",
     "ingest_instr_per_rec and ack_batch_* on durable-pbe2"),
    ("wal.fsync_s", "s", "lower", "ack_batch_* on durable-pbe2"),
    ("wal.frames", "count", "lower", "ack_batch_* on durable-pbe2"),
    ("wal.fsyncs", "count", "lower", "ack_batch_* on durable-pbe2"),
    ("wal.bytes_per_rec", "B/rec", "lower", "ingest_instr_per_rec on durable-pbe2"),
    ("wal.replay_s", "s", "lower", "reopen_minstr on durable-pbe2"),
    ("wal.replayed_records", "count", "lower", "reopen_minstr on durable-pbe2"),
    ("durable.apply_batch_self_s", "s", "lower",
     "ack_batch_tail_minstr and ingest_instr_per_rec on durable-pbe2"),
    ("durable.seal_s", "s", "lower", "ack_batch_tail_minstr on durable-pbe2"),
    ("durable.seals", "count", "lower", "ack_batch_tail_minstr on durable-pbe2"),
    ("durable.manifest_commit_s", "s", "lower",
     "ack_batch_tail_minstr, ingest_instr_per_rec and reopen_minstr on durable-pbe2"),
    ("durable.backpressure_wait_s", "s", "lower",
     "ack_batch_tail_minstr on durable-pbe2"),
    ("durable.read_view_s", "s", "lower",
     "point_batch_tail_minstr on durable-pbe2 (segment fold)"),
    ("durable.segments_live", "count", "lower",
     "reopen_minstr and point_batch_* on durable-pbe2"),
    ("durable.files_renamed", "count", "lower",
     "ingest_instr_per_rec and ack_batch_tail_minstr on durable-pbe2"),
    ("durable.files_unlinked", "count", "lower",
     "ingest_instr_per_rec and ack_batch_tail_minstr on durable-pbe2"),
    ("fs.wait_s", "s", "lower",
     "nothing end to end: wall time in fsync/unlink/rename inside the "
     "timed phases, which instruction counts leave out"),
    ("compaction.merge_s", "s", "lower",
     "nothing end to end: compaction runs untimed on durable-pbe2"),
    ("compaction.compact_self_s", "s", "lower",
     "as compaction.merge_s (writes outside the merge)"),
    ("compaction.manifest_swap_s", "s", "lower", "as compaction.merge_s"),
    ("compaction.runs", "count", "lower", "as compaction.merge_s"),
    ("compaction.bytes_rewritten", "B", "lower", "as compaction.merge_s"),
    ("compaction.write_amp", "ratio", "lower",
     "as compaction.merge_s ((stored + rewritten) / stored bytes)"),
    ("trace.overhead_frac", "ratio", "lower",
     "traced against untraced timed instructions per pass"),
    ("trace.unattributed_frac", "ratio", "lower",
     "timed wall covered by no layer span"),
    ("trace.predicted_share", "ratio", "higher",
     "self-time share of the predicted dominant layers in the phases "
     "the workload is built to stress"),
    ("trace.predicted_share_all_phases", "ratio", "higher",
     "the same share over every timed phase"),
    ("trace.prediction_holds", "bool", "higher",
     "1 when the predicted layers hold more than half the wall of the "
     "phases the workload is built to stress"),
]


class MemoryExporter:
    """Keeps every finished span in a list."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def export(self, span_dict: dict) -> None:
        self.spans.append(span_dict)


class _Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def function(self, original, wrapper) -> None:
        """Replace ``original`` wherever a ``repro`` module binds it."""
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.set(module, key, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Probe:
    """Work counts gathered by the wrappers during the traced run."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def get(self, key: str) -> float:
        return self.counts.get(key, 0)


class _CountingCurve:
    """Forwards ``value`` to a cumulative curve, counting the calls."""

    def __init__(self, curve) -> None:
        self._curve = curve
        self.evals = 0

    def value(self, t: float) -> float:
        self.evals += 1
        return self._curve.value(t)


def _spanned(tracer: Tracer, name: str, fn, after=None):
    """``fn`` inside a span; ``after(args, kwargs, result)`` counts work."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _store_classes():
    base = repro_store._StoreBase
    for module in (repro_store, repro_durable):
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, base)
                and obj.__module__ == module.__name__
            ):
                yield obj


def _install(patches: _Patches, tracer: Tracer, probe: Probe) -> None:
    def staircase_counts(args, kwargs, result):
        probe.add("corners_in", len(args[0]))
        probe.add("corners_kept", len(result.selected))

    original = repro_pbe1.approximate_staircase
    patches.function(
        original,
        _spanned(tracer, "pbe1.approximate_staircase", original,
                 staircase_counts),
    )

    pbe2_extend = repro_pbe2.PBE2.__dict__["extend_batch"]

    @functools.wraps(pbe2_extend)
    def pbe2_extend_batch(self, timestamps, counts=None):
        before = self.n_segments
        with tracer.span("pbe2.extend_batch"):
            pbe2_extend(self, timestamps, counts)
        probe.add("pbe2_points", len(timestamps))
        probe.add("pbe2_segments", self.n_segments - before)

    patches.set(repro_pbe2.PBE2, "extend_batch", pbe2_extend_batch)

    patches.set(
        repro_hashing.HashFamily,
        "hash_many",
        _spanned(tracer, "hashing.hash_many",
                 repro_hashing.HashFamily.__dict__["hash_many"]),
    )
    for cls in (repro_cmpbe.CMPBE, repro_cmpbe.DirectPBEMap):
        for method in ("extend_batch", "burstiness_many"):
            patches.set(
                cls, method,
                _spanned(tracer, f"cmpbe.{method}", cls.__dict__[method]),
            )

    intervals = repro_queries.bursty_time_intervals

    @functools.wraps(intervals)
    def bursty_time_intervals(curve, *args, **kwargs):
        counting = _CountingCurve(curve)
        with tracer.span("queries.bursty_time_intervals"):
            result = intervals(counting, *args, **kwargs)
        # (curve, knots, theta, tau, t_end, piecewise, merge_gap): a
        # constant piece reads the curve 3 times per breakpoint, a linear
        # one 6 times per gap between breakpoints.
        piecewise = kwargs.get(
            "piecewise", args[4] if len(args) > 4 else "constant"
        )
        evals = counting.evals
        probe.add("bursty_time_calls")
        probe.add("curve_evals", evals)
        probe.add(
            "breakpoints",
            evals / 6 + 1 if piecewise == "linear" and evals else evals / 3,
        )
        return result

    patches.function(intervals, bursty_time_intervals)

    index_cls = repro_dyadic.BurstyEventIndex
    patches.set(
        index_cls, "extend_batch",
        _spanned(tracer, "dyadic.extend_batch",
                 index_cls.__dict__["extend_batch"]),
    )
    descent = index_cls.__dict__["bursty_events"]

    @functools.wraps(descent)
    def bursty_events(self, *args, **kwargs):
        before = self.point_queries_issued
        with tracer.span("dyadic.bursty_events"):
            hits = descent(self, *args, **kwargs)
        probe.add("descent_calls")
        probe.add("descent_point_queries", self.point_queries_issued - before)
        probe.add("descent_hits", len(hits))
        return hits

    patches.set(index_cls, "bursty_events", bursty_events)

    store_methods = {
        "extend_batch": "store.extend_batch",
        "point_query_batch": "store.point_query_batch",
        "bursty_time_query": "store.bursty_query",
        "bursty_event_query": "store.bursty_query",
    }
    for cls in _store_classes():
        for method, span_name in store_methods.items():
            if method in cls.__dict__:
                patches.set(
                    cls, method,
                    _spanned(tracer, span_name, cls.__dict__[method]),
                )
    durable_cls = repro_durable.DurableBurstStore
    patches.set(
        durable_cls, "compact",
        _spanned(tracer, "compaction.compact", durable_cls.__dict__["compact"]),
    )
    patches.set(
        durable_cls, "_read_view",
        _spanned(tracer, "durable.read_view",
                 durable_cls.__dict__["_read_view"]),
    )

    def bytes_out(args, kwargs, result):
        probe.add("bytes_written", len(result))

    for name, after in (("save_store", bytes_out), ("open_store", None)):
        original = getattr(repro_serialize, name)
        patches.function(
            original,
            _spanned(tracer, f"serialize.{name}", original, after),
        )


@contextlib.contextmanager
def traced(waits):
    """Install the tracer and the wrappers; yields ``(tracer, exporter,
    probe, registry_before)``.  Everything is undone on exit."""
    exporter = MemoryExporter()
    tracer = Tracer(exporters=[exporter], ring_size=1, process="bench")
    probe = Probe()
    patches = _Patches()
    before = global_registry().snapshot()
    previous = set_tracer(tracer)
    try:
        _install(patches, tracer, probe)
        waits.tracer = tracer
        yield tracer, exporter, probe, before
    finally:
        waits.tracer = None
        patches.undo()
        set_tracer(previous)
        tracer.close()


def phase_spans(tracer: Tracer):
    """The ``phase`` hook for :func:`scenarios.iteration`: one root span
    per timed phase."""

    def phase(name: str):
        return tracer.span(f"bench.{name}")

    return phase


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
def _by_root(spans: list[dict]) -> dict[str, list[dict]]:
    """Spans grouped by the name of their root span."""
    by_id = {span["span_id"]: span for span in spans}
    roots: dict[str, str] = {}

    def root_of(span: dict) -> str:
        chain = []
        while span["span_id"] not in roots:
            chain.append(span["span_id"])
            parent = by_id.get(span.get("parent_id"))
            if parent is None:
                roots[span["span_id"]] = span["name"]
                break
            span = parent
        name = roots[span["span_id"]]
        for span_id in chain:
            roots[span_id] = name
        return name

    groups: dict[str, list[dict]] = {}
    for span in spans:
        groups.setdefault(root_of(span), []).append(span)
    return groups


def self_times(spans: list[dict]) -> dict[str, tuple[float, float, int]]:
    """``name -> (total duration, total self time, span count)``."""
    child_time: dict[str, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + span["duration"]
    table: dict[str, list] = {}
    for span in spans:
        duration = span["duration"]
        own = max(0.0, duration - child_time.get(span["span_id"], 0.0))
        row = table.setdefault(span["name"], [0.0, 0.0, 0])
        row[0] += duration
        row[1] += own
        row[2] += 1
    return {name: tuple(row) for name, row in table.items()}


def _counter(snapshot: dict, name: str) -> float:
    return float(snapshot["counters"].get(name, {}).get("value", 0.0))


def _gauge(snapshot: dict, name: str) -> float:
    return float(snapshot["gauges"].get(name, {}).get("value", 0.0))


def _hist_sum(snapshot: dict, name: str) -> float:
    return float(snapshot["histograms"].get(name, {}).get("sum", 0.0) or 0.0)


def layer_metrics(
    spans: list[dict],
    probe: Probe,
    before: dict,
    after: dict,
    *,
    iterations: int,
    records: int,
    predicted: tuple,
    phases: tuple,
    overhead_frac: float,
    store_bytes: float,
) -> tuple[dict, dict]:
    """Per-layer values (per traced iteration) and the self-time table."""
    groups = _by_root(spans)
    timed = [
        span for root, members in groups.items()
        if root.startswith("bench.") for span in members
    ]
    table = self_times(timed + groups.get("compaction.compact", []))
    per = 1.0 / max(1, iterations)

    def own(*names):
        return per * sum(table.get(name, (0, 0, 0))[1] for name in names)

    def calls(name):
        return table.get(name, (0, 0, 0))[2]

    def timed_calls(*names):
        return sum(1 for span in timed if span["name"] in names)

    def delta(name):
        return _counter(after, name) - _counter(before, name)

    def ratio(num, den):
        return num / den if den else 0.0

    def shares(members):
        """(predicted self-time share, unattributed share, file waits) of
        ``members``, over their wall less file waits, which the
        end-to-end instruction counts leave out too."""
        rows = self_times(members)
        waits = sum(
            span["duration"] for span in members
            if span["name"].startswith("fs.")
        )
        wall = sum(
            row[0] for name, row in rows.items() if name.startswith("bench.")
        ) - waits
        unattributed = sum(
            row[1] for name, row in rows.items() if name.startswith("bench.")
        )
        predicted_self = sum(
            row[1] for name, row in rows.items()
            if any(name.startswith(prefix) for prefix in predicted)
        )
        return ratio(predicted_self, wall), ratio(unattributed, wall), waits

    scoped = [
        span for phase in phases
        for span in groups.get(f"bench.{phase}", [])
    ]
    share, _, _ = shares(scoped)
    share_all, unattributed, waited = shares(timed)
    bt_calls = probe.get("bursty_time_calls")
    hits_cache = delta("cmpbe_hash_cache_hits_total")
    miss_cache = delta("cmpbe_hash_cache_misses_total")
    values = {
        "pbe1.compress_s": own("pbe1.approximate_staircase"),
        "pbe1.compress_calls": per * calls("pbe1.approximate_staircase"),
        "pbe1.corners_in": per * probe.get("corners_in"),
        "pbe1.kept_ratio": ratio(
            probe.get("corners_kept"), probe.get("corners_in")
        ),
        "pbe2.extend_s": own("pbe2.extend_batch"),
        "pbe2.points_in": per * probe.get("pbe2_points"),
        "pbe2.segments_out": per * probe.get("pbe2_segments"),
        "hashing.hash_many_s": own("hashing.hash_many"),
        "cmpbe.extend_self_s": own("cmpbe.extend_batch"),
        "cmpbe.burstiness_many_s": own("cmpbe.burstiness_many"),
        "cmpbe.hash_cache_hit_ratio": ratio(
            hits_cache, hits_cache + miss_cache
        ),
        "queries.bursty_time_s": own("queries.bursty_time_intervals"),
        "queries.breakpoints_per_query": ratio(
            probe.get("breakpoints"), bt_calls
        ),
        "queries.curve_evals_per_query": ratio(
            probe.get("curve_evals"), bt_calls
        ),
        "dyadic.extend_s": own("dyadic.extend_batch"),
        "dyadic.bursty_events_s": own("dyadic.bursty_events"),
        "dyadic.point_queries_per_query": ratio(
            probe.get("descent_point_queries"), probe.get("descent_calls")
        ),
        "dyadic.hits_per_point_query": ratio(
            probe.get("descent_hits"), probe.get("descent_point_queries")
        ),
        "store.extend_batch_self_s": own("store.extend_batch"),
        "store.point_query_batch_self_s": own("store.point_query_batch"),
        "store.bursty_query_self_s": own("store.bursty_query"),
        "serialize.save_store_s": own("serialize.save_store"),
        "serialize.open_store_s": own("serialize.open_store"),
        "serialize.bytes_written": per * probe.get("bytes_written"),
        "serialize.cells_hydrated": per * calls("lazy.hydrate"),
        "serialize.hydrate_s": own("lazy.hydrate"),
        "wal.append_s": own("wal.append"),
        "wal.fsync_s": own("wal.fsync"),
        "wal.frames": per * delta("wal_append_frames_total"),
        "wal.fsyncs": per * delta("wal_fsyncs_total"),
        "wal.bytes_per_rec": ratio(
            delta("wal_append_bytes_total"), records * iterations
        ),
        "wal.replay_s": own("wal.replay"),
        "wal.replayed_records": per * delta("wal_replay_records_total"),
        "durable.apply_batch_self_s": own("durable.apply_batch"),
        "durable.seal_s": per * (
            _hist_sum(after, "durable_seal_seconds")
            - _hist_sum(before, "durable_seal_seconds")
        ),
        "durable.seals": per * delta("durable_seals_total"),
        "durable.manifest_commit_s": own("manifest.commit"),
        "durable.backpressure_wait_s": per * delta(
            "durable_backpressure_seconds_total"
        ),
        "durable.read_view_s": own("durable.read_view"),
        "durable.segments_live": _gauge(after, "durable_segments"),
        "durable.files_renamed": per * timed_calls("fs.replace", "fs.rename"),
        "durable.files_unlinked": per * timed_calls("fs.unlink", "fs.remove"),
        "fs.wait_s": per * waited,
        "compaction.merge_s": own("compact.merge"),
        "compaction.compact_self_s": own("compaction.compact"),
        "compaction.manifest_swap_s": own("compact.manifest_swap"),
        "compaction.runs": per * delta("compaction_runs_total"),
        "compaction.bytes_rewritten": per * delta(
            "compaction_bytes_rewritten_total"
        ),
        # (stored + rewritten) / stored bytes.  The program's own gauge
        # divides by the bytes sealed in this process, which is 0 on a
        # recovered store.
        "compaction.write_amp": ratio(
            store_bytes + per * delta("compaction_bytes_rewritten_total"),
            store_bytes,
        ),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": unattributed,
        "trace.predicted_share": share,
        "trace.predicted_share_all_phases": share_all,
        "trace.prediction_holds": 1.0 if share > 0.5 else 0.0,
    }
    return values, table
