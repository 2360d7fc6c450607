"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.serialize import load_store
from repro.core.store import create_store
from repro.streams.io import iter_record_batches
from repro.workloads.profiles import DAY

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "stream.bin"
    code = main([
        "generate", "olympicrio", "--out", str(path),
        "--events", "16", "--mentions", "4000",
    ])
    assert code == 0
    return path


@pytest.fixture
def sketch_file(tmp_path, stream_file):
    path = tmp_path / "sketch.cmpbe"
    code = main([
        "build", str(stream_file), "--out", str(path),
        "--method", "cm-pbe-2", "--gamma", "10", "--width", "4",
        "--depth", "3",
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_binary(self, stream_file, capsys):
        assert stream_file.exists()

    def test_csv(self, tmp_path, capsys):
        path = tmp_path / "stream.csv"
        code = main([
            "generate", "uspolitics", "--out", str(path), "--csv",
            "--events", "8", "--mentions", "2000",
        ])
        assert code == 0
        header = path.read_text().splitlines()[0]
        assert header == "event_id,timestamp"


class TestBuild:
    def test_cm_pbe_1(self, tmp_path, stream_file, capsys):
        out = tmp_path / "s1.cmpbe"
        code = main([
            "build", str(stream_file), "--out", str(out),
            "--method", "cm-pbe-1", "--eta", "40",
            "--buffer-size", "200", "--width", "4", "--depth", "3",
        ])
        assert code == 0
        assert out.read_bytes()[:4] == b"BEDS"

    def test_reports_sizes(self, sketch_file, capsys):
        assert sketch_file.exists()

    def test_default_method_keeps_universe_size(self, tmp_path, capsys):
        """Without --backend the store still gets --universe-size, so the
        paper's bursty-event query works on what ingest wrote."""
        stream = DATA_DIR / "golden_stream.csv"
        out = tmp_path / "s.beds"
        code = main([
            "ingest", str(stream), "--out", str(out),
            "--universe-size", "16", "--width", "64",
        ])
        assert code == 0
        store = load_store(out.read_bytes())
        exact = create_store("exact")
        for event_ids, timestamps in iter_record_batches(stream, 8192):
            exact.extend_batch(event_ids, timestamps)
        answered = 0
        for t in range(0, 620, 10):
            for theta in (1.0, 5.0, 20.0):
                expected = exact.bursty_event_query(float(t), theta, 60.0)
                got = store.bursty_event_query(float(t), theta, 60.0)
                assert got == expected, (t, theta)
                answered += bool(expected)
        assert answered > 0


class TestDurableIngest:
    def test_requires_out_or_durable(self, stream_file, capsys):
        code = main(["ingest", str(stream_file)])
        assert code == 2
        assert "--durable" in capsys.readouterr().err

    def test_ingest_then_recover_round_trip(
        self, tmp_path, stream_file, capsys
    ):
        directory = tmp_path / "durable"
        code = main([
            "ingest", str(stream_file), "--durable", str(directory),
            "--backend", "exact", "--seal-elements", "700",
            "--fsync", "never",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "durable exact" in out and "sealed segments" in out
        snapshot = tmp_path / "snap.beds"
        code = main([
            "recover", str(directory), "--out", str(snapshot),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert snapshot.exists()
        code = main([
            "query", "point", "--sketch", str(snapshot),
            "--event", "0", "--t", str(29 * DAY), "--tau", str(DAY),
        ])
        assert code == 0

    def test_sharded_durable_ingest(self, tmp_path, stream_file, capsys):
        directory = tmp_path / "durable"
        code = main([
            "ingest", str(stream_file), "--durable", str(directory),
            "--backend", "exact", "--shards", "3",
            "--seal-elements", "500", "--fsync", "never",
        ])
        assert code == 0
        assert "x3 shards" in capsys.readouterr().out
        code = main(["recover", str(directory)])
        assert code == 0
        assert "3 shards" in capsys.readouterr().out

    def test_resume_continues_and_rejects_reordered_streams(
        self, tmp_path, stream_file, capsys
    ):
        directory = tmp_path / "durable"
        assert main([
            "ingest", str(stream_file), "--durable", str(directory),
            "--backend", "exact", "--fsync", "never",
        ]) == 0
        capsys.readouterr()
        # Replaying the same stream starts before the durable horizon.
        code = main([
            "ingest", str(stream_file), "--durable", str(directory),
            "--backend", "exact", "--fsync", "never", "--resume",
        ])
        assert code == 2
        assert "arrived after" in capsys.readouterr().err

    def test_second_run_without_resume_refuses(
        self, tmp_path, stream_file, capsys
    ):
        directory = tmp_path / "durable"
        assert main([
            "ingest", str(stream_file), "--durable", str(directory),
            "--backend", "exact", "--fsync", "never",
        ]) == 0
        with pytest.raises(Exception, match="resume"):
            main([
                "ingest", str(stream_file), "--durable", str(directory),
                "--backend", "exact", "--fsync", "never",
            ])

    def test_recover_missing_directory(self, tmp_path, capsys):
        code = main(["recover", str(tmp_path / "nowhere")])
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_durable_metrics_snapshot(
        self, tmp_path, stream_file, capsys
    ):
        directory = tmp_path / "durable"
        metrics = tmp_path / "metrics.json"
        code = main([
            "ingest", str(stream_file), "--durable", str(directory),
            "--backend", "exact", "--fsync", "never",
            "--metrics-json", str(metrics),
        ])
        assert code == 0
        assert metrics.exists()
        assert main(["stats", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "wal_append_frames_total" in out


class TestParallelIngest:
    def test_parallel_ingest_then_recover(
        self, tmp_path, stream_file, capsys
    ):
        directory = tmp_path / "durable"
        code = main([
            "ingest", str(stream_file), "--durable", str(directory),
            "--backend", "exact", "--writers", "2",
            "--seal-elements", "500", "--fsync", "never",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "x2 writers" in out and "sealed segments" in out
        code = main(["recover", str(directory)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        assert "replayed from WAL tails: shard-000=" in out

    def test_writers_conflicts_with_shards(
        self, tmp_path, stream_file, capsys
    ):
        code = main([
            "ingest", str(stream_file),
            "--durable", str(tmp_path / "durable"),
            "--backend", "exact", "--writers", "2", "--shards", "3",
        ])
        assert code == 2
        assert "one shard per writer" in capsys.readouterr().err

    def test_writers_must_be_positive(
        self, tmp_path, stream_file, capsys
    ):
        code = main([
            "ingest", str(stream_file),
            "--durable", str(tmp_path / "durable"),
            "--backend", "exact", "--writers", "0",
        ])
        assert code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_parallel_metrics_snapshot(
        self, tmp_path, stream_file, capsys
    ):
        directory = tmp_path / "durable"
        metrics = tmp_path / "metrics.json"
        code = main([
            "ingest", str(stream_file), "--durable", str(directory),
            "--backend", "exact", "--writers", "2", "--fsync", "never",
            "--metrics-json", str(metrics),
        ])
        assert code == 0
        assert main(["stats", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "parallel_ingest_acked_records_total" in out
        assert "parallel_seal_queue_depth" in out


class TestQuery:
    def test_point(self, sketch_file, capsys):
        code = main([
            "query", "point", "--sketch", str(sketch_file),
            "--event", "0", "--t", str(29 * DAY), "--tau", str(DAY),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("b(0,")

    def test_point_requires_t(self, sketch_file, capsys):
        code = main([
            "query", "point", "--sketch", str(sketch_file),
            "--event", "0",
        ])
        assert code == 2

    def test_bursty_times(self, sketch_file, capsys):
        code = main([
            "query", "bursty-times", "--sketch", str(sketch_file),
            "--event", "0", "--theta", "1", "--tau", str(DAY),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bursty from" in out or "never bursty" in out

    def test_bursty_times_requires_theta(self, sketch_file, capsys):
        code = main([
            "query", "bursty-times", "--sketch", str(sketch_file),
            "--event", "0",
        ])
        assert code == 2

    def test_unseen_event(self, sketch_file, capsys):
        code = main([
            "query", "bursty-times", "--sketch", str(sketch_file),
            "--event", "9999", "--theta", "1",
        ])
        assert code == 0

    def test_scalar_requires_event(self, sketch_file, capsys):
        code = main([
            "query", "point", "--sketch", str(sketch_file),
            "--t", str(29 * DAY),
        ])
        assert code == 2

    def test_durable_directory_names_recover(
        self, tmp_path, stream_file, capsys
    ):
        directory = tmp_path / "durable"
        assert main([
            "ingest", str(stream_file), "--durable", str(directory),
        ]) == 0
        capsys.readouterr()
        code = main([
            "query", "point", "--sketch", str(directory),
            "--event", "0", "--t", str(29 * DAY),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"repro recover {directory}" in err


class TestQueryBatchFile:
    PAIRS = [(0, 29 * DAY), (3, 10 * DAY), (0, 30 * DAY), (9999, 5 * DAY)]

    def _scalar_lines(self, sketch_file, capsys):
        lines = []
        for event_id, t in self.PAIRS:
            assert main([
                "query", "point", "--sketch", str(sketch_file),
                "--event", str(event_id), "--t", str(float(t)),
                "--tau", str(DAY),
            ]) == 0
            lines.append(capsys.readouterr().out)
        return "".join(lines)

    def test_csv_matches_scalar_queries(self, sketch_file, tmp_path, capsys):
        batch = tmp_path / "queries.csv"
        batch.write_text(
            "event_id,t\n"
            + "".join(f"{e},{float(t)}\n" for e, t in self.PAIRS)
        )
        expected = self._scalar_lines(sketch_file, capsys)
        code = main([
            "query", "point", "--sketch", str(sketch_file),
            "--batch-file", str(batch), "--tau", str(DAY),
        ])
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_jsonl_matches_scalar_queries(self, sketch_file, tmp_path, capsys):
        batch = tmp_path / "queries.jsonl"
        batch.write_text(
            "".join(
                '{"event_id": %d, "t": %s}\n' % (e, float(t))
                for e, t in self.PAIRS
            )
        )
        expected = self._scalar_lines(sketch_file, capsys)
        code = main([
            "query", "point", "--sketch", str(sketch_file),
            "--batch-file", str(batch), "--tau", str(DAY),
        ])
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_rejected_for_bursty_times(self, sketch_file, tmp_path, capsys):
        batch = tmp_path / "queries.csv"
        batch.write_text("0,1.0\n")
        code = main([
            "query", "bursty-times", "--sketch", str(sketch_file),
            "--batch-file", str(batch), "--theta", "1",
        ])
        assert code == 2


class TestInspect:
    def test_stream(self, stream_file, capsys):
        assert main(["inspect", str(stream_file)]) == 0
        assert "event stream" in capsys.readouterr().out

    def test_sketch(self, capsys):
        """Legacy v1 blobs are no longer written but stay readable."""
        assert main(["inspect", str(DATA_DIR / "v1_cmpbe.bin")]) == 0
        assert "CM-PBE sketch" in capsys.readouterr().out

    def test_directory_names_recover(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"repro recover {tmp_path}" in err


class TestExperiment:
    def test_fig7(self, capsys):
        code = main(["experiment", "fig7", "--mentions", "3000"])
        assert code == 0
        assert "Fig 7" in capsys.readouterr().out

    def test_costs(self, capsys):
        code = main(["experiment", "costs", "--mentions", "3000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exact" in out and "PBE-1" in out


class TestValidateCommand:
    def test_validate(self, stream_file, sketch_file, capsys):
        code = main([
            "validate", "--sketch", str(sketch_file),
            "--stream", str(stream_file), "--times", "6",
        ])
        assert code == 0
        assert "mean abs err" in capsys.readouterr().out

    def test_directory_names_recover(self, tmp_path, stream_file, capsys):
        code = main([
            "validate", "--sketch", str(tmp_path),
            "--stream", str(stream_file),
        ])
        assert code == 2
        assert f"repro recover {tmp_path}" in capsys.readouterr().err


class TestReportCommand:
    def test_report(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig08.txt").write_text("hello table\n")
        code = main(["report", "--results", str(results)])
        assert code == 0
        assert (results / "REPORT.md").exists()
        assert "hello table" in (results / "REPORT.md").read_text()

    def test_fig9(self, capsys):
        code = main(["experiment", "fig9", "--mentions", "3000"])
        assert code == 0
        assert "PBE-2" in capsys.readouterr().out

    def test_fig8(self, capsys):
        code = main(["experiment", "fig8", "--mentions", "3000"])
        assert code == 0
        assert "PBE-1" in capsys.readouterr().out

    def test_fig11(self, capsys):
        code = main([
            "experiment", "fig11", "--mentions", "3000", "--events", "16",
        ])
        assert code == 0
        assert "CM-PBE" in capsys.readouterr().out
