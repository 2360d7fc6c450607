"""Tests for the sketch validation utility."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cmpbe import CMPBE, DirectPBEMap
from repro.core.errors import (
    InvalidParameterError,
    require_tau,
    require_theta,
    require_time_range,
)
from repro.core.pbe1 import PBE1
from repro.core.queries import bursty_time_intervals, max_burstiness
from repro.core.store import create_store
from repro.eval.validation import validate_sketch
from tests.backends import BACKEND_IDS, BACKEND_MATRIX

NAN = float("nan")


class TestValidateSketch:
    @pytest.fixture(scope="class")
    def sketch(self, mixed_stream) -> CMPBE:
        sketch = CMPBE.with_pbe1(eta=80, width=8, depth=3, buffer_size=300)
        sketch.extend(mixed_stream)
        sketch.finalize()
        return sketch

    def test_report_fields(self, sketch, mixed_stream):
        report = validate_sketch(sketch, mixed_stream, tau=50.0)
        assert report.n_queries == 16 * 32
        assert report.mean_abs_error <= report.max_abs_error
        assert report.median_abs_error <= report.max_abs_error
        assert report.rmse >= report.mean_abs_error - 1e-9
        assert report.truth_scale > 300  # the planted burst

    def test_exact_sketch_validates_perfectly(self, mixed_stream):
        perfect = DirectPBEMap(lambda: PBE1(eta=10_000, buffer_size=10_000))
        perfect.extend(mixed_stream)
        report = validate_sketch(perfect, mixed_stream, tau=50.0)
        assert report.mean_abs_error == 0.0
        assert report.max_abs_error == 0.0
        assert report.relative_mean_error == 0.0

    def test_worst_queries_sorted(self, sketch, mixed_stream):
        report = validate_sketch(
            sketch, mixed_stream, tau=50.0, n_worst=5
        )
        errors = [bad.error for bad in report.worst]
        assert errors == sorted(errors, reverse=True)
        assert len(report.worst) == 5

    def test_event_subset(self, sketch, mixed_stream):
        report = validate_sketch(
            sketch, mixed_stream, tau=50.0, event_ids=[5], n_times=10
        )
        assert report.n_queries == 10

    def test_summary_text(self, sketch, mixed_stream):
        report = validate_sketch(sketch, mixed_stream, tau=50.0)
        text = report.summary()
        assert "mean abs err" in text
        assert "worst:" in text

    def test_validation_errors(self, sketch, mixed_stream):
        with pytest.raises(InvalidParameterError):
            validate_sketch(sketch, mixed_stream, tau=0.0)
        with pytest.raises(InvalidParameterError):
            validate_sketch(sketch, mixed_stream, tau=1.0, n_times=0)
        with pytest.raises(InvalidParameterError):
            validate_sketch(sketch, mixed_stream, tau=1.0, event_ids=[])

    def test_better_sketch_scores_better(self, mixed_stream):
        coarse = CMPBE.with_pbe2(gamma=80.0, width=4, depth=3)
        fine = CMPBE.with_pbe2(gamma=2.0, width=8, depth=3)
        coarse.extend(mixed_stream)
        fine.extend(mixed_stream)
        coarse.finalize()
        fine.finalize()
        coarse_report = validate_sketch(coarse, mixed_stream, tau=50.0)
        fine_report = validate_sketch(fine, mixed_stream, tau=50.0)
        assert fine_report.mean_abs_error <= coarse_report.mean_abs_error


class TestNaNQueryParameters:
    """NaN compares false both ways, so ``tau <= 0``-style checks let it
    through; every query surface must reject it with a named error."""

    def test_require_helpers_reject_nan(self):
        with pytest.raises(InvalidParameterError, match="tau"):
            require_tau(NAN)
        with pytest.raises(InvalidParameterError, match="theta"):
            require_theta(NAN)
        with pytest.raises(InvalidParameterError, match="theta"):
            require_theta(NAN, positive=True)
        with pytest.raises(InvalidParameterError, match="t_end"):
            require_time_range(NAN, 1.0)
        with pytest.raises(InvalidParameterError, match="t_end"):
            require_time_range(0.0, NAN)
        assert require_tau(float("inf")) == float("inf")
        assert require_theta(0.0) == 0.0

    def test_cm_pbe_point_query_nan_tau(self):
        # Used to answer -248.0 instead of raising.
        store = create_store(
            "cm-pbe-1", universe_size=8, eta=20, buffer_size=50
        )
        store.extend_batch(
            np.ones(300, dtype=np.int64), np.arange(300, dtype=np.float64)
        )
        with pytest.raises(InvalidParameterError, match="tau"):
            store.point_query(1, 500.0, tau=NAN)

    @pytest.fixture(scope="class", params=BACKEND_MATRIX, ids=BACKEND_IDS)
    def store(self, request, mixed_stream):
        _, key, cfg = request.param
        store = create_store(key, **cfg)
        store.extend(mixed_stream)
        store.finalize()
        yield store
        store.close()

    def test_point_queries(self, store):
        with pytest.raises(InvalidParameterError, match="tau"):
            store.point_query(5, 500.0, NAN)
        with pytest.raises(InvalidParameterError, match="tau"):
            store.point_query_batch([5, 6], [500.0, 510.0], NAN)

    def test_bursty_time_query(self, store):
        with pytest.raises(InvalidParameterError, match="theta"):
            store.bursty_time_query(5, NAN, 50.0)
        with pytest.raises(InvalidParameterError, match="tau"):
            store.bursty_time_query(5, 10.0, NAN)
        # A negative threshold stays legal for bursty-time queries.
        assert store.bursty_time_query(5, -1e9, 50.0)

    def test_bursty_event_query(self, store):
        with pytest.raises(InvalidParameterError, match="theta"):
            store.bursty_event_query(500.0, NAN, 50.0)
        with pytest.raises(InvalidParameterError, match="tau"):
            store.bursty_event_query(500.0, 10.0, NAN)

    def test_peak_query(self, store):
        with pytest.raises(InvalidParameterError, match="tau"):
            store.peak_query(5, 0.0, 900.0, NAN)
        with pytest.raises(InvalidParameterError, match="t_end"):
            store.peak_query(5, NAN, 900.0, 50.0)

    def test_curve_helpers(self):
        pbe = PBE1(eta=10, buffer_size=50)
        for t in range(100):
            pbe.update(float(t))
        with pytest.raises(InvalidParameterError, match="theta"):
            bursty_time_intervals(pbe, [1.0, 2.0], NAN, 5.0, 100.0)
        with pytest.raises(InvalidParameterError, match="tau"):
            bursty_time_intervals(pbe, [1.0, 2.0], 1.0, NAN, 100.0)
        with pytest.raises(InvalidParameterError, match="tau"):
            max_burstiness(pbe, [1.0], NAN, 0.0, 10.0)
