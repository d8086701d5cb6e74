"""End-to-end integration tests across the query, core, and simulation layers."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import make_setup, run_single_source
from repro.core.state import QueryState, RuntimePhase
from repro.query.builder import s2s_probe_query
from repro.simulation.node import BudgetSchedule
from repro.workloads.pingmesh import PingmeshConfig, PingmeshWorkload, s2s_cost_model
from repro.workloads.traces import record_trace


class TestExactnessOfDataLevelPartitioning:
    """Partitioned execution must produce the same answer as centralized execution.

    This is the key accuracy property that distinguishes Jarvis from data
    synopses (Section VI-D): splitting records between the data source and the
    stream processor, then merging partial aggregates, loses nothing.
    """

    def _final_rows(self, trace, load_factors, cost_model):
        """Run one window of the trace with the given source load factors and
        return the merged per-pair aggregate rows produced at the SP."""
        from repro.config import ProxyThresholds
        from repro.simulation.pipeline import SourcePipeline, StreamProcessorPipeline

        plan = s2s_probe_query().physical_plan()
        source = SourcePipeline(
            plan.source_operators(), cost_model, ProxyThresholds(), 10.0, 1.0
        )
        sp = StreamProcessorPipeline(
            plan.stream_processor_operators(), cost_model, 10.0, 1.0
        )
        source.set_load_factors(load_factors)
        rows = []
        for epoch in range(10):
            result = source.run_epoch(trace.epochs[epoch], cpu_budget_fraction=4.0)
            rows.extend(result.emitted)
            rows.extend(
                sp.process_arrivals(
                    result.drained, result.partial_states, collect_outputs=True
                ).outputs
            )
            rows.extend(sp.advance_epoch(collect_outputs=True))
        return {row.group_key: row for row in rows if hasattr(row, "group_key")}

    def test_partitioned_results_match_centralized_results(self):
        workload = PingmeshWorkload(
            PingmeshConfig(records_per_epoch=150, peers=100, seed=21)
        )
        trace = record_trace(workload, num_epochs=10)
        cost_model = s2s_cost_model(reference_records_per_second=150)

        centralized = self._final_rows(trace, [0.0, 0.0, 0.0], cost_model)
        partitioned = self._final_rows(trace, [1.0, 1.0, 0.6], cost_model)

        assert centralized, "centralized run must produce aggregate rows"
        assert set(partitioned) == set(centralized)
        for key, row in centralized.items():
            other = partitioned[key]
            assert other.count == row.count
            for column, value in row.values.items():
                assert other.values[column] == pytest.approx(value)


class TestAdaptationScenarios:
    def test_jarvis_stabilizes_after_budget_drop_and_rise(self, s2s_setup):
        schedule = BudgetSchedule([(0, 0.90), (12, 0.40), (26, 0.90)])
        metrics = run_single_source(
            s2s_setup, "Jarvis", schedule, num_epochs=40, warmup_epochs=0
        )
        states = metrics.state_timeline()
        # Re-stabilizes within roughly a dozen epochs of each change (3
        # detection epochs + profile + a few adapt epochs), the same order of
        # magnitude as the paper's seven-second convergence bound.
        assert metrics.convergence_epochs(12) is not None
        assert metrics.convergence_epochs(12) <= 12
        assert metrics.convergence_epochs(26) is not None
        assert metrics.convergence_epochs(26) <= 12
        assert states[-1] is QueryState.STABLE

    def test_jarvis_network_traffic_tracks_budget_direction(self, s2s_setup):
        """More compute at the source means less data drained over the network."""
        schedule = BudgetSchedule([(0, 0.30), (15, 0.90)])
        metrics = run_single_source(
            s2s_setup, "Jarvis", schedule, num_epochs=34, warmup_epochs=0
        )
        epoch_s = s2s_setup.config.epoch.duration_s
        low_window = metrics.epochs[8:14]
        high_window = metrics.epochs[28:]
        low_net = sum(em.network_bytes_offered for em in low_window) / len(low_window)
        high_net = sum(em.network_bytes_offered for em in high_window) / len(high_window)
        assert high_net < low_net
        factors_low = metrics.epochs[13].load_factors
        factors_high = metrics.epochs[-1].load_factors
        assert sum(factors_high) >= sum(factors_low)

    def test_runtime_phase_visits_profile_and_adapt(self, s2s_setup):
        metrics = run_single_source(s2s_setup, "Jarvis", 0.7, num_epochs=12, warmup_epochs=0)
        phases = [p for p in metrics.phase_timeline() if p is not None]
        assert RuntimePhase.PROFILE in phases
        assert RuntimePhase.ADAPT in phases
        assert phases[-1] is RuntimePhase.PROBE

    def test_replayed_trace_gives_identical_jarvis_behaviour(self):
        """Determinism: the same trace and config produce the same metrics."""
        setup = make_setup("s2s_probe", records_per_epoch=150, seed=5)

        def run_once():
            return run_single_source(setup, "Jarvis", 0.6, num_epochs=20, warmup_epochs=5, seed=9)

        a, b = run_once(), run_once()
        assert a.throughput_mbps() == pytest.approx(b.throughput_mbps())
        assert a.network_mbps() == pytest.approx(b.network_mbps())
        assert [em.load_factors for em in a.epochs] == [em.load_factors for em in b.epochs]


class TestCrossQueryBehaviour:
    def test_t2t_join_table_growth_raises_compute_demand(self, t2t_setup):
        from repro.query.records import IpToTorTable

        join = t2t_setup.plan.operators[2]
        base_cost = t2t_setup.cost_model.cost_per_record(join)
        original_table = join.table
        try:
            join.table = IpToTorTable.dense(10 * max(1, len(original_table)))
            grown_cost = t2t_setup.cost_model.cost_per_record(join)
        finally:
            join.table = original_table
        assert grown_cost > base_cost

    def test_log_analytics_runs_fully_local_with_enough_budget(self, log_setup):
        metrics = run_single_source(log_setup, "Jarvis", 0.8, num_epochs=25, warmup_epochs=12)
        # The whole query costs ~31% of a core, so at 80% nothing is drained
        # except the aggregate output at window boundaries.
        assert metrics.network_mbps() < 0.25 * metrics.offered_mbps()
        assert metrics.throughput_mbps() == pytest.approx(metrics.offered_mbps(), rel=0.15)

    def test_jarvis_beats_all_src_on_expensive_t2t_query(self, t2t_setup):
        jarvis = run_single_source(t2t_setup, "Jarvis", 0.4, num_epochs=25, warmup_epochs=12)
        all_src = run_single_source(t2t_setup, "All-Src", 0.4, num_epochs=25, warmup_epochs=12)
        assert jarvis.throughput_mbps() > 2.0 * all_src.throughput_mbps()
