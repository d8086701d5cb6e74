"""Unit tests for watermark tracking and merging (Section V)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.query.watermarks import WatermarkTracker, replicate_watermark


class TestWatermarkTracker:
    def test_merged_is_minimum_across_channels(self):
        tracker = WatermarkTracker(["forwarded", "drain"])
        tracker.advance("forwarded", 10.0)
        assert tracker.merged() == -math.inf  # drain has not reported yet
        tracker.advance("drain", 4.0)
        assert tracker.merged() == 4.0

    def test_no_channels_means_no_progress(self):
        assert WatermarkTracker().merged() == -math.inf

    def test_register_is_idempotent(self):
        tracker = WatermarkTracker()
        tracker.register("a")
        tracker.advance("a", 5.0)
        tracker.register("a")
        assert tracker.merged() == 5.0

    def test_unknown_channel_rejected(self):
        tracker = WatermarkTracker(["a"])
        with pytest.raises(SimulationError):
            tracker.advance("b", 1.0)

    def test_watermark_regression_rejected(self):
        tracker = WatermarkTracker(["a"])
        tracker.advance("a", 10.0)
        with pytest.raises(SimulationError):
            tracker.advance("a", 5.0)

    def test_window_closes_only_when_all_channels_pass(self):
        tracker = WatermarkTracker(["forwarded", "drain"])
        tracker.advance("forwarded", 12.0)
        tracker.advance("drain", 9.0)
        assert tracker.window_closed(10.0) is False
        tracker.advance("drain", 10.5)
        assert tracker.window_closed(10.0) is True

    def test_channels_listed_sorted(self):
        tracker = WatermarkTracker(["b", "a"])
        assert tracker.channels() == ["a", "b"]

    def test_advance_returns_merged(self):
        tracker = WatermarkTracker(["a", "b"])
        tracker.advance("a", 3.0)
        assert tracker.advance("b", 7.0) == 3.0

    def test_unreported_channels_hold_minus_inf(self):
        tracker = WatermarkTracker(["a", "b", "c"])
        assert tracker.advance("a", 5.0) == -math.inf
        assert tracker.advance("b", 6.0) == -math.inf
        assert tracker.advance("c", 1.0) == 1.0

    def test_register_after_advances_pulls_merged_back(self):
        tracker = WatermarkTracker(["a"])
        tracker.advance("a", 8.0)
        tracker.register("late")
        assert tracker.merged() == -math.inf
        assert tracker.advance("late", 2.0) == 2.0
        assert tracker.advance("late", 9.0) == 8.0

    def test_ties_at_minimum_move_only_when_all_advance(self):
        tracker = WatermarkTracker(["a", "b", "c"])
        for channel in ("a", "b", "c"):
            tracker.advance(channel, 4.0)
        assert tracker.advance("a", 6.0) == 4.0
        assert tracker.advance("b", 4.0) == 4.0  # a no-op advance
        assert tracker.advance("b", 5.0) == 4.0
        assert tracker.advance("c", 7.0) == 5.0
        assert tracker.advance("b", 6.0) == 6.0

    def test_nan_watermark_rejected(self):
        tracker = WatermarkTracker(["a"])
        with pytest.raises(SimulationError):
            tracker.advance("a", math.nan)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=3),
                st.booleans(),
            ),
            max_size=60,
        )
    )
    def test_merged_matches_brute_force_min(self, steps):
        # Random monotone advances (zero steps included, so ties and no-op
        # advances happen) interleaved with late registrations.
        tracker = WatermarkTracker(["c0"])
        reference = {"c0": -math.inf}
        for index, step, register in steps:
            channel = f"c{index}"
            if channel not in reference:
                if not register:
                    continue
                tracker.register(channel)
                reference[channel] = -math.inf
            else:
                base = reference[channel]
                reference[channel] = (0.0 if base == -math.inf else base) + step
                assert tracker.advance(channel, reference[channel]) == min(
                    reference.values()
                )
            assert tracker.merged() == min(reference.values())


class TestReplicateWatermark:
    def test_replicates_value_per_output(self):
        assert replicate_watermark(5.0, 3) == [5.0, 5.0, 5.0]

    def test_rejects_non_positive_fan_out(self):
        with pytest.raises(SimulationError):
            replicate_watermark(1.0, 0)
