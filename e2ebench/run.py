"""End-to-end + per-layer benchmark of the repro burst stores.

Run from the repository root::

    python3 e2ebench/run.py --workload ingest-pbe1 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first runs untraced iterations, then traced ones, and
reports the per-layer table (see ``layers.py``).  Every run checks its
answers; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the exit code is
non-zero when any answer was wrong.  Workloads, metrics and the
layer-to-metric map are described in ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Unit of each end-to-end metric, in report order.  Minstr: millions
#: of retired user-space instructions (see ``scenarios.Instructions``).
END_TO_END = {
    "setup_s": "s",
    "ingest_instr_per_rec": "instr/rec",
    "ack_batch_p50_minstr": "Minstr",
    "ack_batch_tail_minstr": "Minstr",
    "reopen_minstr": "Minstr",
    "point_batch_p50_minstr": "Minstr",
    "point_batch_tail_minstr": "Minstr",
    "bursty_time_p50_minstr": "Minstr",
    "bursty_event_p50_minstr": "Minstr",
    "bursty_event_tail_minstr": "Minstr",
    "point_burst_f1": "ratio",
    "bursty_event_f1": "ratio",
    "store_bytes_per_rec": "B/rec",
    "peak_rss_mb": "MB",
}

#: Untraced iterations always run at least this many times.
MIN_ITERATIONS = 2


def _iterations(spec, seconds: float, minimum: int) -> int:
    """How many iterations fill ``seconds``, from the workload's nominal
    iteration time.  The count depends on ``--seconds`` only, never on
    how fast this run happens to go, so every run of a workload takes
    the same number of samples."""
    return max(minimum, round(seconds / spec.iteration_s))


def _tail(values) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer it is the
    maximum, reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], int(100 * (n - 10) / n)


def _fs_type(path: str) -> str:
    """Filesystem type of ``path`` from the process's mount table."""
    real = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = real == mount or real.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _environment(scenarios, spec, seed: int, workdir: str) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "counter": "retired user-space instructions (perf_event_open)",
        "work_dir_fs": _fs_type(workdir),
        "fsync": scenarios.FSYNC if spec.durable else "n/a (envelope write fsyncs)",
        "seed": seed,
        "dataset": spec.dataset,
        "records": spec.records,
        "events": spec.events,
        "backend": spec.backend,
        "batch": spec.batch,
        "seal_every": spec.seal_every or None,
    }


def _run_iterations(scenarios, spec, inputs, workdir, samples, clock,
                    iterations, tag, on_result, phase=None, first=False):
    """Run the pipeline ``iterations`` times; with ``first``, the first
    of them is the run's first pass (see ``scenarios.iteration``)."""
    for count in range(iterations):
        answers, store, expected = scenarios.iteration(
            spec, inputs, workdir, f"{tag}{count}", samples, clock, phase,
            first=first and count == 0,
        )
        try:
            on_result(answers, store, expected)
        finally:
            store.close()
        # Durable stores are reference cycles (store <-> compactor): free
        # them now, outside the timed phases, not at a random later GC.
        del answers, store, expected
        gc.collect()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import scenarios

    try:
        clock = scenarios.Instructions()
    except OSError as exc:
        print(f"error: no instruction counter: {exc}", file=sys.stderr)
        return 2
    from repro.core.tracing import set_tracer

    spec = scenarios.SPECS.get(args.workload)
    if spec is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(scenarios.SPECS)}",
            file=sys.stderr,
        )
        return 2
    # An explicit choice: a stray REPRO_TRACE must not turn tracing on.
    set_tracer(None)

    work_root = ROOT / ".e2ebench-work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=work_root)
    try:
        return _measure(scenarios, spec, args, workdir, clock)
    finally:
        clock.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(scenarios, spec, args, workdir, clock) -> int:
    waits = scenarios.FileWaits()
    waits.install()
    try:
        return _measure_with(scenarios, spec, args, workdir, waits, clock)
    finally:
        waits.uninstall()


def _measure_with(scenarios, spec, args, workdir, waits, clock) -> int:
    env = _environment(scenarios, spec, args.seed, workdir)
    print("env " + json.dumps(env, sort_keys=True))
    samples = scenarios.Samples()
    inputs = scenarios.setup(spec, args.seed, workdir, samples, clock)
    # The inputs and the oracle live for the whole run: keep them out of
    # the collector's way so its pauses do not grow with them.
    gc.collect()
    gc.freeze()

    digests: list[str] = []
    scores: dict = {}

    def fail(what: str) -> None:
        samples.failed += 1
        print(f"WRONG: {what}", file=sys.stderr)

    def check(answers, store, expected) -> None:
        """Round trip, determinism and (once) accuracy of one iteration."""
        digest = scenarios.round_trip_answers(answers).digest()
        samples.attempted += 1
        if expected is None:
            expected = inputs.live
        if expected is not None:
            samples.attempted += 1
            if expected.digest() != digest:
                fail("reopened store answers differ from the live store's")
        if not digests:
            # First iteration: score the untimed accuracy panel.
            print(f"answer digest {answers.digest()}")
            got = scenarios.ask(store, inputs.accuracy)
            scores.update(scenarios.accuracy(inputs, got))
            samples.attempted += 1
            for failure in scenarios.accuracy_failures(spec, scores):
                fail(failure)
        elif digest != digests[0]:
            fail("same inputs, different answers")
        digests.append(digest)

    if spec.durable:
        samples.attempted += 1
        exact = scenarios.exact_durable_answers(spec, inputs, workdir)
        if exact.digest() != inputs.timed.expected.digest():
            fail("recovered durable exact store differs from the oracle")

    seconds = args.seconds / 2.0 if args.trace else args.seconds
    iterations = _iterations(
        spec, seconds, 1 if args.trace else MIN_ITERATIONS
    )
    cpu, work = time.process_time(), clock()
    _run_iterations(
        scenarios, spec, inputs, workdir, samples, clock, iterations,
        "untraced-", check, first=True,
    )
    rate = (clock() - work) / (time.process_time() - cpu)
    if args.trace:
        metrics = _traced(
            scenarios, spec, inputs, workdir, samples, clock,
            _iterations(spec, seconds, 1), check, waits,
        )
    else:
        metrics = _end_to_end(samples, scores, inputs.records)
    print(f"iterations {iterations} untraced")
    print(f"info {rate:.1f} Minstr per CPU second in the untraced passes "
          "(divide a Minstr figure by it for CPU seconds on this machine)")
    print(
        f"file calls (wall time, not in any metric): {waits.seconds:.3f} s "
        "in " + ", ".join(f"{n} {name}" for name, n in waits.calls.items())
    )
    correct = samples.failed == 0
    print(
        f"ops_failed_frac {samples.failed / max(1, samples.attempted):.6f} "
        f"({samples.failed} of {samples.attempted} operations)"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def _end_to_end(samples, scores: dict, records: int) -> dict:
    ack_tail, ack_pct = _tail(samples.ack)
    point_tail, point_pct = _tail(samples.point)
    event_tail, event_pct = _tail(samples.bursty_event)
    values = {
        "setup_s": statistics.median(samples.setup_s),
        "ingest_instr_per_rec": statistics.median(samples.ingest) * 1e6
        / records,
        "ack_batch_p50_minstr": statistics.median(samples.ack),
        "ack_batch_tail_minstr": ack_tail,
        "reopen_minstr": statistics.median(samples.reopen),
        "point_batch_p50_minstr": statistics.median(samples.point),
        "point_batch_tail_minstr": point_tail,
        "bursty_time_p50_minstr": statistics.median(samples.bursty_time),
        "bursty_event_p50_minstr": statistics.median(samples.bursty_event),
        "bursty_event_tail_minstr": event_tail,
        "point_burst_f1": scores["point_burst_f1"],
        "bursty_event_f1": scores["bursty_event_f1"],
        "store_bytes_per_rec": statistics.median(samples.store_bytes) / records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    counts = {
        "setup_s": f"n={len(samples.setup_s)}",
        "ingest_instr_per_rec": f"n={len(samples.ingest)} ingests",
        "ack_batch_p50_minstr": f"n={len(samples.ack)}",
        "ack_batch_tail_minstr": f"p{ack_pct}, n={len(samples.ack)}",
        "reopen_minstr": f"n={len(samples.reopen)}",
        "point_batch_p50_minstr": f"n={len(samples.point)}",
        "point_batch_tail_minstr": f"p{point_pct}, n={len(samples.point)}",
        "bursty_time_p50_minstr": f"n={len(samples.bursty_time)}",
        "bursty_event_p50_minstr": f"n={len(samples.bursty_event)}",
        "bursty_event_tail_minstr":
            f"p{event_pct}, n={len(samples.bursty_event)}",
    }
    for name, unit in END_TO_END.items():
        note = counts.get(name, "")
        print(f"metric {name} = {values[name]:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    print(f"info point_abs_err = {scores['point_abs_err']:.6g} "
          "(mean |b~ - b| over the accuracy panel)")
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _traced(scenarios, spec, inputs, workdir, samples, clock, iterations,
            check, waits):
    """Traced iterations (compacting durable stores afterwards, untimed)
    and the per-layer table."""
    import layers
    from repro.core.metrics import global_registry

    untraced_work = statistics.median(samples.passes)
    traced_samples = scenarios.Samples()

    def check_and_compact(answers, store, expected) -> None:
        check(answers, store, expected)
        if spec.durable:
            # Untimed (per-layer only): compaction must not change a
            # single answer.
            store.compact()
            samples.attempted += 1
            after = scenarios.ask(
                store, scenarios.round_trip_panel(inputs.timed)
            )
            before = scenarios.round_trip_answers(answers)
            if after.digest() != before.digest():
                samples.failed += 1
                print("WRONG: answers changed by compact()", file=sys.stderr)

    with layers.traced(waits) as (tracer, exporter, probe, before):
        _run_iterations(
            scenarios, spec, inputs, workdir, traced_samples, clock,
            iterations, "traced-", check_and_compact,
            phase=layers.phase_spans(tracer), first=True,
        )
        after = global_registry().snapshot()
    samples.attempted += traced_samples.attempted
    samples.failed += traced_samples.failed
    values, table = layers.layer_metrics(
        exporter.spans,
        probe,
        before,
        after,
        iterations=iterations,
        records=inputs.records if spec.timed_ingest else 0,
        predicted=spec.predicted_layers,
        phases=spec.predicted_phases,
        overhead_frac=statistics.median(traced_samples.passes)
        / untraced_work - 1.0,
        store_bytes=statistics.median(traced_samples.store_bytes)
        if spec.durable else 0.0,
    )
    print(f"traced iterations {iterations}; spans {len(exporter.spans)}")
    print("self time per traced iteration, by span:")
    for name, (total, own, count) in sorted(
        table.items(), key=lambda item: -item[1][1]
    ):
        print(f"  {name:34s} self {own / iterations:10.4f} s  "
              f"total {total / iterations:10.4f} s  calls {count}")
    verdict = "holds" if values["trace.prediction_holds"] else "FAILS"
    print(
        f"prediction: {' + '.join(spec.predicted_layers)} dominate the "
        f"{' + '.join(spec.predicted_phases)} phases of {spec.name}: "
        f"{verdict} (share {values['trace.predicted_share']:.3f} of their "
        "wall less file waits; "
        f"{values['trace.predicted_share_all_phases']:.3f} of every timed "
        "phase)"
    )
    out = {}
    for name, unit, _better, moves in layers.PER_LAYER:
        print(f"layer {name} = {values[name]:.6g} {unit}  -> {moves}")
        out[name] = (values[name], unit)
    return out


if __name__ == "__main__":
    sys.exit(main())
