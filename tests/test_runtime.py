"""Unit tests for the Jarvis runtime state machine."""

from __future__ import annotations

import pytest

from repro.config import AdaptationConfig, EpochConfig, JarvisConfig
from repro.core.control_proxy import ProxyObservation
from repro.core.runtime import EpochObservation, JarvisRuntime, RuntimeTrace
from repro.core.state import OperatorState, QueryState, RuntimePhase, classify_query_state
from repro.errors import PartitioningError


def obs_for(states, epoch=0, budget=0.6, records=1000, costs=None, relays=None, processed=None):
    proxy_obs = [
        ProxyObservation(
            state=state,
            incoming_records=records,
            forwarded_records=records,
            drained_records=0,
            processed_records=records,
            pending_records=100 if state is OperatorState.CONGESTED else 0,
            idle_fraction=0.9 if state is OperatorState.IDLE else 0.0,
        )
        for state in states
    ]
    return EpochObservation(
        epoch=epoch,
        proxy_observations=proxy_obs,
        compute_budget=budget,
        records_injected=records,
        measured_costs=costs,
        measured_relays=relays,
        records_processed=processed,
    )


S2S_COSTS = [0.0, 0.13 / 1000, 0.80 / 860]
S2S_RELAYS = [1.0, 0.86, 0.3]
NAMES = ["window", "filter", "group_aggregate"]


class TestStateClassification:
    def test_any_congested_wins(self):
        assert (
            classify_query_state([OperatorState.IDLE, OperatorState.CONGESTED])
            is QueryState.CONGESTED
        )

    def test_all_idle_is_idle(self):
        assert (
            classify_query_state([OperatorState.IDLE, OperatorState.IDLE])
            is QueryState.IDLE
        )

    def test_mixed_idle_and_stable_is_stable(self):
        assert (
            classify_query_state([OperatorState.IDLE, OperatorState.STABLE])
            is QueryState.STABLE
        )

    def test_empty_is_idle(self):
        assert classify_query_state([]) is QueryState.IDLE


class TestRuntimeStateMachine:
    def make_runtime(self, detect=3):
        config = JarvisConfig(epoch=EpochConfig(detect_epochs=detect))
        return JarvisRuntime(NAMES, config=config)

    def test_initial_state(self):
        runtime = self.make_runtime()
        assert runtime.phase is RuntimePhase.STARTUP
        assert runtime.current_load_factors() == [0.0, 0.0, 0.0]
        assert runtime.wants_profile is False

    def test_needs_at_least_one_operator(self):
        with pytest.raises(PartitioningError):
            JarvisRuntime([])

    def test_startup_transitions_to_probe(self):
        runtime = self.make_runtime()
        runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=0))
        assert runtime.phase is RuntimePhase.PROBE

    def test_detection_requires_consecutive_nonstable_epochs(self):
        runtime = self.make_runtime(detect=3)
        runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=0))  # startup
        runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=1))
        runtime.on_epoch_end(obs_for([OperatorState.STABLE] * 3, epoch=2))  # streak reset
        runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=3))
        runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=4))
        assert runtime.phase is RuntimePhase.PROBE
        runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=5))
        assert runtime.phase is RuntimePhase.PROFILE
        assert runtime.wants_profile is True

    def test_idle_with_full_load_factors_does_not_trigger(self):
        runtime = self.make_runtime(detect=1)
        runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=0))  # startup
        runtime.load_factors = [1.0, 1.0, 1.0]
        runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=1))
        assert runtime.phase is RuntimePhase.PROBE

    def test_congestion_always_triggers_detection(self):
        runtime = self.make_runtime(detect=1)
        runtime.on_epoch_end(obs_for([OperatorState.STABLE] * 3, epoch=0))  # startup
        runtime.load_factors = [1.0, 1.0, 1.0]
        runtime.on_epoch_end(obs_for([OperatorState.CONGESTED] * 3, epoch=1))
        assert runtime.phase is RuntimePhase.PROFILE

    def _drive_to_adapt(self, runtime, budget=0.6):
        runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=0, budget=budget))
        for epoch in range(1, 4):
            runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=epoch, budget=budget))
        assert runtime.phase is RuntimePhase.PROFILE
        factors = runtime.on_epoch_end(
            obs_for(
                [OperatorState.IDLE] * 3,
                epoch=4,
                budget=budget,
                costs=S2S_COSTS,
                relays=S2S_RELAYS,
                processed=[1000, 1000, 860],
            )
        )
        return factors

    def test_profile_phase_applies_lp_plan(self):
        runtime = self.make_runtime()
        factors = self._drive_to_adapt(runtime, budget=0.6)
        assert runtime.phase is RuntimePhase.ADAPT
        assert factors[1] == pytest.approx(1.0, abs=1e-6)
        assert 0.0 < factors[2] < 1.0

    def test_profile_without_measurements_stays_in_profile(self):
        runtime = self.make_runtime()
        for epoch in range(4):
            runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=epoch))
        assert runtime.phase is RuntimePhase.PROFILE
        runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=4))
        assert runtime.phase is RuntimePhase.PROFILE

    def test_adapt_returns_to_probe_when_stable(self):
        runtime = self.make_runtime()
        self._drive_to_adapt(runtime)
        runtime.on_epoch_end(obs_for([OperatorState.STABLE] * 3, epoch=5))
        assert runtime.phase is RuntimePhase.PROBE

    def test_adapt_fine_tunes_on_congestion(self):
        runtime = self.make_runtime()
        factors_before = self._drive_to_adapt(runtime)
        factors_after = runtime.on_epoch_end(
            obs_for([OperatorState.CONGESTED] * 3, epoch=5)
        )
        assert runtime.phase is RuntimePhase.ADAPT
        assert sum(factors_after) <= sum(factors_before)

    def test_reset_load_factors(self):
        runtime = self.make_runtime()
        self._drive_to_adapt(runtime)
        runtime.reset_load_factors()
        assert runtime.current_load_factors() == [0.0, 0.0, 0.0]
        assert runtime.phase is RuntimePhase.PROBE

    def test_observation_shape_mismatch_rejected(self):
        runtime = self.make_runtime()
        with pytest.raises(PartitioningError):
            runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 2))

    def test_trace_records_every_epoch(self):
        runtime = self.make_runtime()
        for epoch in range(5):
            runtime.on_epoch_end(obs_for([OperatorState.IDLE] * 3, epoch=epoch))
        assert len(runtime.trace.epochs) == 5
        assert runtime.trace.total_adaptation_seconds() >= 0.0


class TestRuntimeTrace:
    def test_convergence_epochs(self):
        trace = RuntimeTrace()
        trace.append(0, RuntimePhase.PROBE, QueryState.IDLE, [0.0], 0.0)
        trace.append(1, RuntimePhase.ADAPT, QueryState.CONGESTED, [0.5], 0.0)
        trace.append(2, RuntimePhase.PROBE, QueryState.STABLE, [0.5], 0.0)
        assert trace.convergence_epochs(since_epoch=0) == 2
        assert trace.convergence_epochs(since_epoch=3) is None
