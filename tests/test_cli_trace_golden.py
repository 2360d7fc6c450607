"""Golden CLI test for the tracing surface: ``ingest --trace`` +
``repro trace summary`` + ``repro trace export --perfetto``.

The scenario ingests a deterministic stream through the single-process
durable lifecycle with inline sealing, so the set of spans — names and
counts: ``wal.append``/``wal.fsync`` per append/sync point,
``memtable.freeze``/``seal.queue_wait``/``seal.segment_write``/
``manifest.commit`` per seal (the one seal sequence, both halves run
on the calling thread), one
``durable.apply_batch`` per CLI batch, one ``ingest`` root — is exact
run to run; only the measured durations vary and are normalized to
``<T>``.  The transcript is frozen under ``tests/golden/trace.txt``.

A second test re-reads the exported Perfetto file and checks
trace-event JSON conformance (the shape ``ui.perfetto.dev`` and
``chrome://tracing`` load).

To regenerate after an intentional behaviour change::

    PYTHONPATH=src python tests/test_cli_trace_golden.py --regenerate
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "trace.txt"

STEPS: list[list[str]] = [
    [
        "generate", "olympicrio", "--out", "<STREAM>",
        "--events", "12", "--mentions", "3000",
    ],
    [
        "ingest", "<STREAM>", "--durable", "<DUR>",
        "--backend", "exact", "--seal-elements", "256",
        "--batch-size", "512", "--trace", "<TRACE>",
    ],
    ["trace", "summary", "<TRACE>"],
    ["trace", "export", "<TRACE>", "--perfetto", "<PERFETTO>"],
]

#: Any ``%.3f``-formatted duration (the summary's p50/p99/total columns
#: are wall time), together with its right-alignment padding — the
#: field width varies with the measured magnitude; span names and
#: counts stay exact.
_DURATIONS = re.compile(r" *\d+\.\d{3}")


def _normalize(text: str) -> str:
    return _DURATIONS.sub(" <T>", text)


def run_scenario(tmp_dir: Path, capsys) -> str:
    substitutions = {
        "<STREAM>": str(tmp_dir / "stream.bin"),
        "<DUR>": str(tmp_dir / "durable"),
        "<TRACE>": str(tmp_dir / "durable" / "trace"),
        "<PERFETTO>": str(tmp_dir / "trace.perfetto.json"),
    }
    transcript: list[str] = []
    for step in STEPS:
        argv = [substitutions.get(arg, arg) for arg in step]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # Longest value first so <TRACE> (inside <DUR>) wins over it.
        for token, value in sorted(
            substitutions.items(), key=lambda kv: -len(kv[1])
        ):
            out = out.replace(value, token)
        transcript.append(_normalize(out))
    return "".join(transcript)


def test_trace_cli_matches_golden(tmp_path, capsys):
    assert run_scenario(tmp_path, capsys) == GOLDEN.read_text()


def test_summary_reports_the_storage_stages(tmp_path, capsys):
    """Acceptance check in test form: the summary table includes per-
    stage latency rows for the WAL append, segment write and manifest
    commit paths."""
    transcript = run_scenario(tmp_path, capsys)
    summary = transcript.split("span ", 1)[1]
    for stage in (
        "ingest",
        "durable.apply_batch",
        "wal.append",
        "wal.fsync",
        "seal.segment_write",
        "manifest.commit",
    ):
        assert re.search(rf"^{re.escape(stage)} +\d", summary, re.M), stage


def test_perfetto_export_is_loadable_trace_event_json(tmp_path, capsys):
    run_scenario(tmp_path, capsys)
    payload = json.loads((tmp_path / "trace.perfetto.json").read_text())
    assert set(payload) == {"traceEvents", "displayTimeUnit"}
    events = payload["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] in ("X", "M")
        assert isinstance(event["name"], str)
        assert isinstance(event["pid"], int)
        if event["ph"] == "X":
            assert event["cat"] == "repro"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["tid"], int)
        else:
            assert event["name"] == "process_name"
            assert isinstance(event["args"]["name"], str)
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert {"ingest", "wal.append", "seal.segment_write"} <= names


def _regenerate() -> None:
    import contextlib
    import io
    import tempfile
    import types

    class _Drain:
        def __init__(self, buffer: io.StringIO) -> None:
            self._buffer = buffer
            self._position = 0

        def readouterr(self):
            value = self._buffer.getvalue()
            out = value[self._position:]
            self._position = len(value)
            return types.SimpleNamespace(out=out)

    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            transcript = run_scenario(Path(tmp), _Drain(buffer))
        GOLDEN.write_text(transcript)
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
