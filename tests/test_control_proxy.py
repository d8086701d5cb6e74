"""Unit tests for control proxies and load-factor arithmetic.

A proxy's routing and observation rules are array functions over many
proxies (:func:`route_counts`, :func:`operator_states`); one proxy is the
one-element case, which is what most cases below exercise.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pytest

from repro.config import ProxyThresholds
from repro.core.control_proxy import (
    effective_load_factors,
    load_factors_from_effective,
    operator_states,
    route_counts,
)
from repro.core.state import OPERATOR_STATES, OperatorState
from repro.errors import ConfigurationError
from repro.query.operators import WindowOperator
from repro.query.records import Record
from repro.simulation.cost_model import CostModel
from repro.simulation.pipeline import SourcePipeline


def route(load_factor: float, n: int) -> Tuple[int, int]:
    """One proxy's ``(forwarded, drained)`` split of ``n`` records."""
    (forwarded,) = route_counts(np.array([load_factor]), np.array([n])).tolist()
    return forwarded, n - forwarded


def observe(
    thresholds: ProxyThresholds, incoming: int, pending: int, idle_fraction: float
) -> OperatorState:
    """One proxy's operator state."""
    (code,) = operator_states(
        thresholds, np.array([incoming]), np.array([pending]), np.array([idle_fraction])
    ).tolist()
    return OPERATOR_STATES[code]


def two_stage_pipeline() -> SourcePipeline:
    return SourcePipeline(
        [WindowOperator("a", 10.0), WindowOperator("b", 10.0)], CostModel()
    )


class TestLoadFactor:
    """Each pipeline stage holds its proxy's load factor."""

    def test_defaults_to_zero(self):
        assert two_stage_pipeline().load_factors == (0.0, 0.0)

    def test_set_and_clamp_numerical_noise(self):
        pipeline = two_stage_pipeline()
        pipeline.set_load_factors([1.0 + 1e-12, -1e-12])
        assert pipeline.load_factors == (1.0, 0.0)

    @pytest.mark.parametrize("value", [-0.5, 1.5, float("nan")])
    def test_rejects_invalid_values(self, value):
        with pytest.raises(ConfigurationError):
            two_stage_pipeline().set_load_factors([value, 0.5])

    @pytest.mark.parametrize("value", [-0.5, 1.5, float("nan")])
    def test_a_bad_factor_installs_none(self, value: float) -> None:
        """Every factor is checked before any is installed: a bad second
        factor leaves the first one, and the backlog drain, untouched."""
        pipeline = two_stage_pipeline()
        pipeline.set_load_factors([0.25, 0.75])
        pipeline._drain_backlog_next_epoch = False
        with pytest.raises(ConfigurationError):
            pipeline.set_load_factors([1.0, value])
        assert pipeline.load_factors == (0.25, 0.75)
        assert not pipeline._drain_backlog_next_epoch


class TestRouting:
    def test_full_forwarding(self):
        assert route(1.0, 10) == (10, 0)

    def test_full_draining(self):
        assert route(0.0, 10) == (0, 10)

    def test_fractional_split_is_deterministic(self):
        assert route(0.3, 10) == (3, 7)
        assert route(0.3, 10) == (3, 7)

    def test_split_conserves_records(self):
        forwarded, drained = route(0.61, 97)
        assert forwarded + drained == 97
        assert 0 <= forwarded <= 97

    def test_empty_input(self):
        assert route(0.5, 0) == (0, 0)

    def test_halfway_rounds_half_up(self):
        """Regression: round() rounds half to even, so p=0.5 forwarded 0 of
        1 records but 2 of 3 — non-monotone in n.  Stable half-up forwarding
        (floor(p*n + 0.5)) must forward ceil(n/2) at every odd n, one proxy
        at a time and many at once."""
        cases = ((1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (7, 4))
        for n, expected in cases:
            forwarded, drained = route(0.5, n)
            assert forwarded == expected, n
            assert forwarded + drained == n
        counts = np.array([n for n, _ in cases])
        assert route_counts(0.5, counts).tolist() == [e for _, e in cases]

    def test_halfway_rounds_half_up_for_batches(self):
        """The same half-way cases through the columnar batched container,
        cut at the routed count as the pipeline cuts it."""
        from repro.query.records import RecordBatch

        for n, expected in ((1, 1), (3, 2), (5, 3)):
            batch = RecordBatch(
                Record,
                {"event_time": np.arange(n, dtype=float)},
                uniform_size_bytes=86,
            )
            n_forward, n_drain = route(0.5, len(batch))
            forwarded, drained = batch[:n_forward], batch[n_forward:]
            assert len(forwarded) == expected, n
            assert len(drained) == n_drain
            assert len(forwarded) + len(drained) == n
            assert forwarded.event_times.tolist() == list(range(expected))

    def test_halfway_split_is_monotone_in_n(self):
        """Half-up keeps the forwarded count non-decreasing as n grows."""
        counts = route_counts(0.5, np.arange(1, 20)).tolist()
        assert counts == sorted(counts)


class TestStateDetection:
    def thresholds(self):
        return ProxyThresholds(
            drained_thres=0.05, idle_thres=0.10, congestion_pending_records=4
        )

    def test_congested_when_pending_exceeds_floor(self):
        assert observe(self.thresholds(), 100, 20, 0.0) is OperatorState.CONGESTED

    def test_small_backlog_tolerated_as_stable(self):
        assert observe(self.thresholds(), 100, 3, 0.0) is OperatorState.STABLE

    def test_idle_when_queue_empty_and_operator_mostly_idle(self):
        assert observe(self.thresholds(), 100, 0, 0.8) is OperatorState.IDLE

    def test_not_idle_below_idle_threshold(self):
        assert observe(self.thresholds(), 100, 0, 0.05) is OperatorState.STABLE

    def test_pending_records_prevent_idle(self):
        assert observe(self.thresholds(), 100, 2, 0.9) is OperatorState.STABLE

    def test_record_idle_does_not_touch_pending(self):
        """An idle fraction does not mask a pending backlog: the stage
        still reads congested."""
        assert observe(self.thresholds(), 100, 50, 0.9) is OperatorState.CONGESTED

    def test_observation_counters(self):
        """A pipeline epoch reports its proxy's counts: half of ten records
        forwarded and processed, half drained."""
        pipeline = SourcePipeline(
            [WindowOperator("window", 10.0)], CostModel(), self.thresholds()
        )
        pipeline.set_load_factors([0.5])
        records = [Record(float(i)) for i in range(10)]
        (obs,) = pipeline.run_epoch(records, cpu_budget_fraction=1.0).observations
        assert obs.incoming_records == 10
        assert obs.forwarded_records == 5
        assert obs.drained_records == 5
        assert obs.processed_records == 5

    def test_counters_reset_between_epochs(self):
        """Each epoch reports its own counts: an empty epoch after a busy
        one reads zero."""
        pipeline = SourcePipeline(
            [WindowOperator("window", 10.0)], CostModel(), self.thresholds()
        )
        pipeline.set_load_factors([0.5])
        pipeline.run_epoch([Record(float(i)) for i in range(10)], 1.0)
        (obs,) = pipeline.run_epoch([], 1.0).observations
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
