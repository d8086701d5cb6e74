"""Unit tests for the partitioning strategies (Jarvis baselines and ablations)."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ground_truth_profile, make_strategy
from repro.baselines import (
    AllSPStrategy,
    AllSrcStrategy,
    BestOPStrategy,
    FilterSrcStrategy,
    JarvisStrategy,
    LoadBalanceDPStrategy,
    LPOnlyStrategy,
    NoLPInitStrategy,
    StaticLoadFactorStrategy,
    static_profile,
)
from repro.core.control_proxy import ProxyObservation
from repro.core.runtime import EpochObservation
from repro.core.state import OperatorState, RuntimePhase
from repro.errors import ConfigurationError, PartitioningError
from repro.query.builder import s2s_probe_query
from repro.workloads.pingmesh import s2s_cost_model


def observation(budget, epoch=0, states=(OperatorState.STABLE,) * 3):
    return EpochObservation(
        epoch=epoch,
        proxy_observations=[
            ProxyObservation(state, 100, 100, 0, 100, 0, 0.0) for state in states
        ],
        compute_budget=budget,
        records_injected=100,
    )


@pytest.fixture()
def profile():
    query = s2s_probe_query()
    operators = query.operators
    return static_profile(
        operators,
        s2s_cost_model(query, reference_records_per_second=1000),
        relay_ratios=[1.0, 0.86, 0.3],
        records_per_epoch=1000,
        compute_budget=0.6,
    )


class TestStaticStrategies:
    def test_all_sp_is_all_zero(self):
        assert AllSPStrategy().initial_load_factors(3) == [0.0, 0.0, 0.0]
        assert AllSPStrategy().on_epoch_end(observation(0.5)) is None

    def test_all_src_is_all_one_and_has_no_drain_path(self):
        strategy = AllSrcStrategy()
        assert strategy.initial_load_factors(3) == [1.0, 1.0, 1.0]
        assert strategy.supports_drain is False

    def test_filter_src_keeps_window_and_filter_only(self):
        operators = s2s_probe_query().operators
        strategy = FilterSrcStrategy(operators)
        assert strategy.initial_load_factors(3) == [1.0, 1.0, 0.0]

    def test_filter_src_stops_at_first_non_filter(self):
        from repro.query.builder import log_analytics_query

        operators = log_analytics_query().operators
        strategy = FilterSrcStrategy(operators)
        factors = strategy.initial_load_factors(len(operators))
        assert factors[0] == 1.0
        assert all(f == 0.0 for f in factors[1:])

    def test_filter_src_requires_operators(self):
        with pytest.raises(PartitioningError):
            FilterSrcStrategy([])

    def test_static_strategy_pads_and_truncates(self):
        strategy = StaticLoadFactorStrategy([1.0, 0.5])
        assert strategy.initial_load_factors(3) == [1.0, 0.5, 0.0]
        assert strategy.initial_load_factors(1) == [1.0]

    def test_static_strategy_validates_range(self):
        with pytest.raises(PartitioningError):
            StaticLoadFactorStrategy([1.5])


class TestBestOP:
    def test_boundary_depends_on_budget(self, profile):
        strategy = BestOPStrategy(profile)
        factors = strategy.initial_load_factors(3)
        assert factors == [1.0, 1.0, 0.0]  # 60% fits W+F but not G+R
        assert strategy.boundary == 2

    def test_recomputes_when_budget_changes(self, profile):
        strategy = BestOPStrategy(profile)
        strategy.initial_load_factors(3)
        new_factors = strategy.on_epoch_end(observation(budget=1.0))
        assert new_factors == [1.0, 1.0, 1.0]
        assert strategy.on_epoch_end(observation(budget=1.0)) is None

    def test_offload_limit(self, profile):
        strategy = BestOPStrategy(profile, offload_limit=1)
        assert strategy.initial_load_factors(3) == [1.0, 0.0, 0.0]

    def test_requires_profile(self):
        from repro.core.profiler import PipelineProfile

        with pytest.raises(PartitioningError):
            BestOPStrategy(PipelineProfile([], 1.0, 100))


class TestLBDP:
    def test_split_limited_by_feasibility(self, profile):
        strategy = LoadBalanceDPStrategy(profile, sp_compute_share=0.25)
        factors = strategy.initial_load_factors(3)
        # The query needs ~0.93 cores; 0.6 of a core can process ~64% of input.
        assert factors[0] == pytest.approx(0.6 / 0.93, rel=0.05)
        assert factors[1:] == [1.0, 1.0]

    def test_proportional_split_when_feasible(self, profile):
        strategy = LoadBalanceDPStrategy(profile, sp_compute_share=2.0)
        factors = strategy.on_epoch_end(observation(budget=0.5))
        assert factors[0] == pytest.approx(0.5 / 2.5, rel=0.05)
        assert factors[1:] == [1.0, 1.0]

    def test_recompute_on_budget_change(self, profile):
        strategy = LoadBalanceDPStrategy(profile)
        strategy.initial_load_factors(3)
        updated = strategy.on_epoch_end(observation(budget=0.9))
        assert updated is not None
        assert updated[0] > 0.6 / 0.93

    def test_validation(self, profile):
        with pytest.raises(PartitioningError):
            LoadBalanceDPStrategy(profile, sp_compute_share=-1.0)


class TestJarvisAndAblations:
    def test_jarvis_starts_in_startup_phase(self):
        strategy = JarvisStrategy(["window", "filter", "group_aggregate"])
        assert strategy.phase is RuntimePhase.STARTUP
        assert strategy.initial_load_factors(3) == [0.0, 0.0, 0.0]
        assert strategy.wants_profile() is False

    def test_jarvis_delegates_to_runtime(self):
        strategy = JarvisStrategy(["window", "filter", "group_aggregate"])
        factors = strategy.on_epoch_end(observation(0.6, states=(OperatorState.IDLE,) * 3))
        assert factors == [0.0, 0.0, 0.0]
        assert strategy.phase is RuntimePhase.PROBE

    def test_jarvis_reset_load_factors(self):
        strategy = JarvisStrategy(["a", "b"])
        strategy.runtime.load_factors = [0.7, 0.7]
        strategy.reset_load_factors()
        assert strategy.runtime.current_load_factors() == [0.0, 0.0]

    def test_jarvis_hands_out_only_changed_factors(self):
        """A steady Probe epoch keeps the plan (None, so the pipeline does
        not re-install it); a changed plan and a manual reset hand out."""
        strategy = JarvisStrategy(["window", "filter", "group_aggregate"])
        assert strategy.initial_load_factors(3) == [0.0, 0.0, 0.0]
        assert strategy.on_epoch_end(observation(0.6)) is None  # startup
        assert strategy.phase is RuntimePhase.PROBE
        assert strategy.on_epoch_end(observation(0.6, epoch=1)) is None
        strategy.runtime.load_factors = [1.0, 0.5, 0.0]
        assert strategy.on_epoch_end(observation(0.6, epoch=2)) == [1.0, 0.5, 0.0]
        assert strategy.on_epoch_end(observation(0.6, epoch=3)) is None
        strategy.reset_load_factors()
        assert strategy.on_epoch_end(observation(0.6, epoch=4)) == [0.0, 0.0, 0.0]
        assert strategy.on_epoch_end(observation(0.6, epoch=5)) is None

    def test_lp_only_disables_finetune(self):
        strategy = LPOnlyStrategy(["a", "b"])
        assert strategy.config.adaptation.use_lp_init is True
        assert strategy.config.adaptation.use_finetune is False

    def test_no_lp_init_disables_lp(self):
        strategy = NoLPInitStrategy(["a", "b"])
        assert strategy.config.adaptation.use_lp_init is False
        assert strategy.config.adaptation.use_finetune is True

    def test_strategy_names_match_paper_labels(self):
        assert JarvisStrategy(["a"]).name == "Jarvis"
        assert LPOnlyStrategy(["a"]).name == "LP only"
        assert NoLPInitStrategy(["a"]).name == "w/o LP-init"
        assert AllSPStrategy().name == "All-SP"
        assert AllSrcStrategy().name == "All-Src"


class TestStrategyFactory:
    def test_factory_builds_every_documented_strategy(self, s2s_setup):
        from repro.analysis.experiments import STRATEGY_NAMES

        for name in STRATEGY_NAMES:
            strategy = make_strategy(name, s2s_setup, compute_budget=0.6)
            assert strategy.name == name

    def test_factory_rejects_unknown_names(self, s2s_setup):
        with pytest.raises(ConfigurationError):
            make_strategy("Magic", s2s_setup, 0.5)

    def test_ground_truth_profile_uses_setup_relays(self, s2s_setup):
        profile = ground_truth_profile(s2s_setup, compute_budget=0.7)
        assert profile.compute_budget == 0.7
        assert len(profile) == 3
        assert profile.relay_ratios[1] == pytest.approx(s2s_setup.count_relays[1])


class TestStaticProfileHelper:
    def test_length_mismatch_rejected(self):
        query = s2s_probe_query()
        operators = query.operators
        with pytest.raises(PartitioningError):
            static_profile(
                operators,
                s2s_cost_model(query),
                relay_ratios=[1.0],
                records_per_epoch=100,
                compute_budget=0.5,
            )
