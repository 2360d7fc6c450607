"""Tests for the PBE-1 offline DP (optimal staircase approximation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.core.pbe1 import (
    approximate_staircase,
    approximate_staircase_bruteforce,
    approximate_staircase_cht,
    smallest_eta_for_error,
)
from repro.streams.frequency import StaircaseCurve, staircase_area_between


def random_corners(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.integers(1, 9, size=n)).astype(float)
    ys = np.cumsum(rng.integers(1, 6, size=n)).astype(float)
    return xs, ys


corner_strategy = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=3, max_value=40),  # n
    st.integers(min_value=2, max_value=40),  # eta
)


class TestOptimality:
    @settings(max_examples=80, deadline=None)
    @given(corner_strategy)
    def test_hull_trick_matches_bruteforce(self, params):
        seed, n, eta = params
        xs, ys = random_corners(seed, n)
        fast = approximate_staircase(xs, ys, eta)
        slow = approximate_staircase_bruteforce(xs, ys, eta)
        assert fast.error == pytest.approx(slow.error, rel=1e-9, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(corner_strategy)
    def test_reported_error_matches_geometry(self, params):
        """The DP's error must equal the actual area between the curves."""
        seed, n, eta = params
        xs, ys = random_corners(seed, n)
        result = approximate_staircase(xs, ys, eta)
        exact = StaircaseCurve(xs, ys)
        approx = StaircaseCurve(xs[result.selected], ys[result.selected])
        area = staircase_area_between(exact, approx)
        assert result.error == pytest.approx(area, rel=1e-9, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(corner_strategy)
    def test_beats_every_random_subset(self, params):
        """No random admissible subset of the same size does better."""
        seed, n, eta = params
        xs, ys = random_corners(seed, n)
        result = approximate_staircase(xs, ys, eta)
        budget = min(eta, n)
        exact = StaircaseCurve(xs, ys)
        rng = np.random.default_rng(seed + 1)
        for _ in range(5):
            if budget <= 2:
                middle = np.empty(0, dtype=int)
            else:
                middle = rng.choice(
                    np.arange(1, n - 1), size=budget - 2, replace=False
                )
            chosen = np.unique(
                np.concatenate(([0], middle, [n - 1]))
            ).astype(int)
            candidate = StaircaseCurve(xs[chosen], ys[chosen])
            area = staircase_area_between(exact, candidate)
            assert result.error <= area + 1e-6


def stamped_corners(
    seed: int, n: int, decimals: int
) -> tuple[np.ndarray, np.ndarray]:
    """~``n`` distinct timestamps rounded to ``decimals`` places, each one
    a unit step of the cumulative curve."""
    rng = np.random.default_rng(seed)
    span = 5000.0 if decimals == 0 else 500.0
    xs = np.unique(np.sort(rng.uniform(0.0, span, size=n)).round(decimals))
    return xs, np.arange(1.0, xs.size + 1.0)


class TestConvexHullTrickOracle:
    """The refinement sweep against the independent CHT engine at buffer
    scale.  Only the errors are compared: on ties the two engines may
    pick different (equally optimal) corners."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("eta", [4, 9, 25, 60])
    def test_integer_timestamps_match_exactly(self, seed, eta):
        xs, ys = stamped_corners(seed, 400, decimals=0)
        fast = approximate_staircase(xs, ys, eta)
        oracle = approximate_staircase_cht(xs, ys, eta)
        # Integer inputs keep every candidate exact, so any optimal
        # selection reports the same error bit for bit.
        assert fast.error == oracle.error

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("eta", [4, 9, 25, 60])
    def test_decimal_timestamps_match_to_rounding(self, seed, eta):
        xs, ys = stamped_corners(seed, 400, decimals=1)
        fast = approximate_staircase(xs, ys, eta)
        oracle = approximate_staircase_cht(xs, ys, eta)
        # The engines associate the float sums differently, so inexact
        # timestamps may differ in the last bits.
        assert fast.error == pytest.approx(oracle.error, rel=1e-12)


class TestStructure:
    def test_boundaries_always_selected(self):
        xs, ys = random_corners(1, 30)
        result = approximate_staircase(xs, ys, 5)
        assert result.selected[0] == 0
        assert result.selected[-1] == 29

    def test_selected_strictly_increasing(self):
        xs, ys = random_corners(2, 30)
        result = approximate_staircase(xs, ys, 7)
        assert np.all(np.diff(result.selected) > 0)
        assert len(result.selected) == 7

    def test_error_monotone_in_eta(self):
        xs, ys = random_corners(3, 50)
        errors = [
            approximate_staircase(xs, ys, eta).error
            for eta in range(2, 51, 4)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_full_budget_is_exact(self):
        xs, ys = random_corners(4, 20)
        result = approximate_staircase(xs, ys, 20)
        assert result.error == 0.0
        assert len(result.selected) == 20

    def test_oversized_budget_is_exact(self):
        xs, ys = random_corners(5, 10)
        result = approximate_staircase(xs, ys, 100)
        assert result.error == 0.0

    def test_tiny_curves(self):
        result = approximate_staircase(
            np.array([1.0]), np.array([2.0]), 2
        )
        assert result.error == 0.0
        result = approximate_staircase(
            np.array([1.0, 2.0]), np.array([1.0, 3.0]), 2
        )
        assert result.error == 0.0

    def test_eta_two_keeps_only_boundaries(self):
        xs, ys = random_corners(6, 15)
        result = approximate_staircase(xs, ys, 2)
        assert result.selected.tolist() == [0, 14]

    def test_known_small_example(self):
        # Corners: (0,1), (1,2), (3,3); dropping (1,2) costs area 2.
        xs = np.array([0.0, 1.0, 3.0])
        ys = np.array([1.0, 2.0, 3.0])
        result = approximate_staircase(xs, ys, 2)
        assert result.error == pytest.approx(2.0)

    def test_invalid_eta(self):
        xs, ys = random_corners(7, 10)
        with pytest.raises(InvalidParameterError):
            approximate_staircase(xs, ys, 1)

    def test_invalid_corners(self):
        with pytest.raises(InvalidParameterError):
            approximate_staircase(
                np.array([1.0, 1.0]), np.array([1.0, 2.0]), 2
            )
        with pytest.raises(InvalidParameterError):
            approximate_staircase(
                np.array([1.0, 2.0]), np.array([2.0, 2.0]), 2
            )

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            approximate_staircase(
                np.array([1.0, 2.0]), np.array([1.0]), 2
            )


class TestErrorCapMode:
    def test_zero_cap_keeps_everything_needed(self):
        xs, ys = random_corners(8, 20)
        result = smallest_eta_for_error(xs, ys, 0.0)
        assert result.error == 0.0

    def test_cap_respected_and_minimal(self):
        xs, ys = random_corners(9, 30)
        cap = approximate_staircase(xs, ys, 10).error
        result = smallest_eta_for_error(xs, ys, cap)
        assert result.error <= cap
        assert len(result.selected) <= 10
        if len(result.selected) > 2:
            smaller = approximate_staircase(
                xs, ys, len(result.selected) - 1
            )
            assert smaller.error > cap

    def test_huge_cap_uses_two_points(self):
        xs, ys = random_corners(10, 20)
        result = smallest_eta_for_error(xs, ys, 1e12)
        assert len(result.selected) == 2

    def test_negative_cap_rejected(self):
        xs, ys = random_corners(11, 5)
        with pytest.raises(InvalidParameterError):
            smallest_eta_for_error(xs, ys, -1.0)
