"""Unit tests for control proxies and load-factor arithmetic."""

from __future__ import annotations

import pytest

from repro.config import ProxyThresholds
from repro.core.control_proxy import (
    ControlProxy,
    effective_load_factors,
    load_factors_from_effective,
)
from repro.core.state import OperatorState
from repro.errors import ConfigurationError


class TestLoadFactor:
    def test_defaults_to_zero(self):
        assert ControlProxy("op").load_factor == 0.0

    def test_set_and_clamp_numerical_noise(self):
        proxy = ControlProxy("op")
        proxy.set_load_factor(1.0 + 1e-12)
        assert proxy.load_factor == 1.0
        proxy.set_load_factor(-1e-12)
        assert proxy.load_factor == 0.0

    @pytest.mark.parametrize("value", [-0.5, 1.5, float("nan")])
    def test_rejects_invalid_values(self, value):
        with pytest.raises(ConfigurationError):
            ControlProxy("op").set_load_factor(value)


class TestRouting:
    def test_full_forwarding(self):
        proxy = ControlProxy("op", load_factor=1.0)
        assert proxy.route(10) == (10, 0)

    def test_full_draining(self):
        proxy = ControlProxy("op", load_factor=0.0)
        assert proxy.route(10) == (0, 10)

    def test_fractional_split_is_deterministic(self):
        proxy = ControlProxy("op", load_factor=0.3)
        assert proxy.route(10) == (3, 7)
        assert proxy.route(10) == (3, 7)

    def test_split_conserves_records(self):
        proxy = ControlProxy("op", load_factor=0.61)
        forwarded, drained = proxy.route(97)
        assert forwarded + drained == 97

    def test_empty_input(self):
        proxy = ControlProxy("op", load_factor=0.5)
        assert proxy.route(0) == (0, 0)

    def test_halfway_rounds_half_up(self):
        """Regression: round() rounds half to even, so p=0.5 forwarded 0 of
        1 records but 2 of 3 — non-monotone in n.  Stable half-up forwarding
        (floor(p*n + 0.5)) must forward ceil(n/2) at every odd n."""
        proxy = ControlProxy("op", load_factor=0.5)
        for n, expected in ((1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (7, 4)):
            forwarded, drained = proxy.route(n)
            assert forwarded == expected, n
            assert forwarded + drained == n

    def test_halfway_rounds_half_up_for_batches(self):
        """The same half-way cases through the columnar batched container,
        cut at the routed count as the pipeline cuts it."""
        import numpy as np

        from repro.query.records import Record, RecordBatch

        proxy = ControlProxy("op", load_factor=0.5)
        for n, expected in ((1, 1), (3, 2), (5, 3)):
            batch = RecordBatch(
                Record,
                {"event_time": np.arange(n, dtype=float)},
                uniform_size_bytes=86,
            )
            n_forward, n_drain = proxy.route(len(batch))
            forwarded, drained = batch[:n_forward], batch[n_forward:]
            assert len(forwarded) == expected, n
            assert len(drained) == n_drain
            assert len(forwarded) + len(drained) == n
            assert forwarded.event_times.tolist() == list(range(expected))

    def test_halfway_split_is_monotone_in_n(self):
        """Half-up keeps the forwarded count non-decreasing as n grows."""
        proxy = ControlProxy("op", load_factor=0.5)
        counts = [proxy.route(n)[0] for n in range(1, 20)]
        assert counts == sorted(counts)


class TestStateDetection:
    def thresholds(self):
        return ProxyThresholds(
            drained_thres=0.05, idle_thres=0.10, congestion_pending_records=4
        )

    def test_congested_when_pending_exceeds_floor(self):
        proxy = ControlProxy("op", self.thresholds(), load_factor=1.0)
        proxy.route(100)
        proxy.record_processing(processed=80, pending=20, idle_fraction=0.0)
        assert proxy.observe().state is OperatorState.CONGESTED

    def test_small_backlog_tolerated_as_stable(self):
        proxy = ControlProxy("op", self.thresholds(), load_factor=1.0)
        proxy.route(100)
        proxy.record_processing(processed=97, pending=3, idle_fraction=0.0)
        assert proxy.observe().state is OperatorState.STABLE

    def test_idle_when_queue_empty_and_operator_mostly_idle(self):
        proxy = ControlProxy("op", self.thresholds(), load_factor=0.5)
        proxy.route(100)
        proxy.record_processing(processed=50, pending=0, idle_fraction=0.8)
        assert proxy.observe().state is OperatorState.IDLE

    def test_not_idle_below_idle_threshold(self):
        proxy = ControlProxy("op", self.thresholds(), load_factor=0.5)
        proxy.route(100)
        proxy.record_processing(processed=50, pending=0, idle_fraction=0.05)
        assert proxy.observe().state is OperatorState.STABLE

    def test_pending_records_prevent_idle(self):
        proxy = ControlProxy("op", self.thresholds(), load_factor=0.5)
        proxy.route(100)
        proxy.record_processing(processed=50, pending=2, idle_fraction=0.9)
        assert proxy.observe().state is OperatorState.STABLE

    def test_record_idle_does_not_touch_pending(self):
        proxy = ControlProxy("op", self.thresholds(), load_factor=1.0)
        proxy.route(100)
        proxy.record_processing(processed=50, pending=50, idle_fraction=0.0)
        proxy.record_idle(0.9)
        assert proxy.observe().state is OperatorState.CONGESTED

    def test_observation_counters(self):
        proxy = ControlProxy("op", self.thresholds(), load_factor=0.5)
        proxy.route(10)
        proxy.record_processing(processed=5, pending=0, idle_fraction=0.5)
        obs = proxy.observe()
        assert obs.incoming_records == 10
        assert obs.forwarded_records == 5
        assert obs.drained_records == 5
        assert obs.processed_records == 5

    def test_counters_reset_between_epochs(self):
        proxy = ControlProxy("op", self.thresholds(), load_factor=0.5)
        proxy.route(10)
        proxy.record_processing(5, 0, 0.5)
        proxy.observe()
        obs = proxy.observe()
        assert obs.incoming_records == 0
        assert obs.forwarded_records == 0


class TestEffectiveLoadFactors:
    def test_effective_is_cumulative_product(self):
        assert effective_load_factors([1.0, 0.5, 0.5]) == pytest.approx([1.0, 0.5, 0.25])

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            effective_load_factors([1.2])

    def test_round_trip_with_inverse(self):
        factors = [1.0, 0.8, 0.25, 1.0]
        effective = effective_load_factors(factors)
        assert load_factors_from_effective(effective) == pytest.approx(factors)

    def test_inverse_handles_zero_upstream(self):
        assert load_factors_from_effective([0.0, 0.0]) == [0.0, 0.0]

    def test_inverse_rejects_increasing_sequences(self):
        with pytest.raises(ConfigurationError):
            load_factors_from_effective([0.5, 0.8])
