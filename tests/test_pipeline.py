"""Unit/integration tests for the source and stream-processor pipelines."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import make_setup
from repro.config import ProxyThresholds
from repro.core.state import OperatorState
from repro.errors import SimulationError
from repro.query.builder import s2s_probe_query
from repro.query.records import FleetArena
from repro.simulation.pipeline import (
    SourcePipeline,
    StreamProcessorPipeline,
)
from repro.workloads.pingmesh import PingmeshConfig, PingmeshWorkload, s2s_cost_model

RATE = 200  # records per epoch used throughout these tests


@pytest.fixture()
def workload():
    return PingmeshWorkload(PingmeshConfig(records_per_epoch=RATE, peers=RATE * 5, seed=3))


@pytest.fixture()
def cost_model():
    return s2s_cost_model(reference_records_per_second=RATE)


def build_source(cost_model, thresholds=None):
    operators = s2s_probe_query().physical_plan().source_operators()
    return SourcePipeline(
        operators,
        cost_model,
        thresholds=thresholds or ProxyThresholds(),
        window_length_s=10.0,
        epoch_duration_s=1.0,
    )


def build_sp(cost_model):
    operators = s2s_probe_query().physical_plan().stream_processor_operators()
    return StreamProcessorPipeline(operators, cost_model, window_length_s=10.0)


class TestSourcePipelineBasics:
    def test_needs_operators(self, cost_model):
        with pytest.raises(SimulationError):
            SourcePipeline([], cost_model)

    def test_load_factor_management(self, cost_model):
        pipeline = build_source(cost_model)
        assert pipeline.load_factors == (0.0, 0.0, 0.0)
        pipeline.set_load_factors([1.0, 0.5, 0.2])
        assert pipeline.load_factors == (1.0, 0.5, 0.2)
        with pytest.raises(SimulationError):
            pipeline.set_load_factors([1.0])

    def test_operator_names(self, cost_model):
        pipeline = build_source(cost_model)
        assert pipeline.operator_names() == ["window", "filter", "group_aggregate"]

    def test_negative_budget_rejected(self, cost_model, workload):
        pipeline = build_source(cost_model)
        with pytest.raises(SimulationError):
            pipeline.run_epoch(workload.records_for_epoch(0), -0.1)


class TestCongestionReliefConservation:
    """Regression tests for the relief-drain duplication/loss bug.

    The old code drained ``queue[floor:][:cap]`` but truncated the queue from
    the *tail*, so a partial overflow kept the drained records locally
    (processed twice) while destroying an equal number of tail records.
    """

    def seed_stage_queue(self, cost_model, prefill):
        """A pipeline whose filter stage starts with ``prefill`` queued records."""
        pipeline = build_source(cost_model)  # all load factors 0.0
        pipeline.stages[1].queue = list(prefill)
        return pipeline

    def test_partial_overflow_drains_exact_middle_slice(self, cost_model, workload):
        records = workload.records_for_epoch(0)
        prefill = records[:40]
        injected = workload.records_for_epoch(1)  # drained at stage 0 (factor 0)
        pipeline = self.seed_stage_queue(cost_model, prefill)

        # Zero budget: nothing is processed, so the queue can only change via
        # congestion relief.  floor = congestion_pending_records = 16 and
        # relief_cap = ceil(0.05 * 200) = 10 < pending - floor: partial overflow.
        result = pipeline.run_epoch(injected, cpu_budget_fraction=0.0)

        relief_batches = [recs for stage, recs in result.drained if stage == 1]
        assert len(relief_batches) == 1
        drained_ids = [id(r) for r in relief_batches[0]]
        kept_ids = [id(r) for r in pipeline.stages[1].queue]
        original_ids = [id(r) for r in prefill]

        # Exactly the middle slice [16:26] was drained; head and tail remain.
        assert drained_ids == original_ids[16:26]
        assert kept_ids == original_ids[:16] + original_ids[26:]
        # No record is both drained and kept, and none vanished.
        assert not set(drained_ids) & set(kept_ids)
        assert set(drained_ids) | set(kept_ids) == set(original_ids)

    def test_full_overflow_drains_to_queue_end(self, cost_model, workload):
        records = workload.records_for_epoch(0)
        prefill = records[:20]
        injected = workload.records_for_epoch(1)
        pipeline = self.seed_stage_queue(cost_model, prefill)

        # pending(20) - floor(16) = 4 <= relief_cap(10): overflow reaches the
        # queue end, so the whole tail beyond the floor drains.
        result = pipeline.run_epoch(injected, cpu_budget_fraction=0.0)

        relief_batches = [recs for stage, recs in result.drained if stage == 1]
        assert len(relief_batches) == 1
        original_ids = [id(r) for r in prefill]
        assert [id(r) for r in relief_batches[0]] == original_ids[16:]
        assert [id(r) for r in pipeline.stages[1].queue] == original_ids[:16]

    def test_injected_records_drain_once_at_first_stage(self, cost_model, workload):
        injected = workload.records_for_epoch(0)
        pipeline = self.seed_stage_queue(cost_model, [])
        result = pipeline.run_epoch(injected, cpu_budget_fraction=0.0)
        stage0 = [recs for stage, recs in result.drained if stage == 0]
        assert [id(r) for batch in stage0 for r in batch] == [id(r) for r in injected]

    def test_per_stage_conservation_under_sustained_congestion(
        self, cost_model, workload
    ):
        """Every forwarded record is processed, drained, rejected, or queued.

        Runs the full plan at a starving budget for several windows so relief
        fires repeatedly with both partial and full overflow; the per-stage
        ledger must balance exactly at every epoch boundary.
        """
        pipeline = build_source(cost_model)
        pipeline.set_load_factors([1.0, 1.0, 1.0])
        forwarded = [0] * pipeline.num_stages
        processed = [0] * pipeline.num_stages
        queue_drained = [0] * pipeline.num_stages
        rejected = [0] * pipeline.num_stages
        for epoch in range(25):
            result = pipeline.run_epoch(
                workload.records_for_epoch(epoch), cpu_budget_fraction=0.15
            )
            for stage in range(pipeline.num_stages):
                forwarded[stage] += result.forwarded_per_stage[stage]
                processed[stage] += result.processed_per_stage[stage]
                queue_drained[stage] += result.queue_drained_per_stage[stage]
                rejected[stage] += result.rejected_per_stage[stage]
            for stage in range(pipeline.num_stages):
                queued = len(pipeline.stages[stage].queue)
                assert forwarded[stage] == (
                    processed[stage]
                    + queue_drained[stage]
                    + rejected[stage]
                    + queued
                ), f"stage {stage} leaked records at epoch {epoch}"
        # The scenario actually exercised congestion relief.
        assert sum(queue_drained) > 0


class TestBackpressure:
    def test_an_empty_epoch_keeps_the_earlier_backlog(self):
        """Regression: each queue's cap is sized from this epoch's input, and
        backpressure used to truncate the whole queue to it, so an epoch
        with no input dropped 306 of the 344 records admitted the epoch
        before.  Only this epoch's forwarded records may be turned away."""
        setup = make_setup("s2s_probe", records_per_epoch=400)
        pipeline = SourcePipeline(
            setup.plan.source_operators(),
            setup.cost_model,
            setup.config.thresholds,
            setup.plan.window_length_s,
            setup.config.epoch.duration_s,
        )
        pipeline.set_load_factors([1.0, 1.0, 1.0])
        pipeline.run_epoch(setup.workload_factory(1).records_for_epoch(0), 0.05)
        assert [len(stage.queue) for stage in pipeline.stages] == [0, 227, 117]

        result = pipeline.run_epoch([], 0.05)
        # The filter works 153 records off its backlog and relief drains one
        # more at each congested stage; nothing arrived, so nothing fresh
        # waits at the filter and none of its backlog is rejected.
        assert result.processed_per_stage == [0, 153, 0]
        assert result.queue_drained_per_stage == [0, 1, 1]
        assert result.rejected_per_stage[:2] == [0, 0]
        # The G+R queue turns away at most the filter output it was fed
        # this epoch and keeps its old backlog.
        assert result.rejected_per_stage[2] <= result.forwarded_per_stage[2]
        assert [len(stage.queue) for stage in pipeline.stages] == [0, 73, 116]


class TestSourcePipelineExecution:
    def test_zero_load_factors_drain_everything(self, cost_model, workload):
        pipeline = build_source(cost_model)
        result = pipeline.run_epoch(workload.records_for_epoch(0), 1.0)
        assert result.records_in == RATE
        assert result.drained_records == RATE
        assert result.cpu_used_seconds == 0.0
        # All drained records are tagged for the first stage.
        assert all(stage == 0 for stage, _ in result.drained)

    def test_full_load_factors_process_everything_within_budget(self, cost_model, workload):
        pipeline = build_source(cost_model)
        pipeline.set_load_factors([1.0, 1.0, 1.0])
        result = pipeline.run_epoch(workload.records_for_epoch(0), 1.0)
        assert result.drained_records == 0
        assert result.backlog_records == 0
        assert 0.8 <= result.cpu_used_seconds / 1.0 <= 1.0

    def test_budget_exhaustion_creates_backlog_and_congestion(self, cost_model, workload):
        pipeline = build_source(cost_model, ProxyThresholds(congestion_pending_records=4))
        pipeline.set_load_factors([1.0, 1.0, 1.0])
        result = pipeline.run_epoch(workload.records_for_epoch(0), 0.4)
        states = [obs.state for obs in result.observations]
        assert OperatorState.CONGESTED in states
        # Relief keeps the retained backlog bounded; the overflow is drained.
        assert result.drained_records > 0

    def test_congestion_relief_can_be_disabled(self, cost_model, workload):
        pipeline = build_source(cost_model)
        pipeline.allow_congestion_relief = False
        pipeline.set_load_factors([1.0, 1.0, 1.0])
        result = pipeline.run_epoch(workload.records_for_epoch(0), 0.4)
        assert result.drained_records == 0
        assert result.backlog_records > 0

    def test_partial_load_factor_splits_work(self, cost_model, workload):
        pipeline = build_source(cost_model)
        pipeline.set_load_factors([1.0, 1.0, 0.5])
        result = pipeline.run_epoch(workload.records_for_epoch(0), 1.0)
        drained_at_gr = sum(
            len(records) for stage, records in result.drained if stage == 2
        )
        assert drained_at_gr > 0
        assert result.processed_per_stage[2] > 0

    def test_idle_budget_reported(self, cost_model, workload):
        pipeline = build_source(cost_model)
        pipeline.set_load_factors([1.0, 1.0, 0.1])
        result = pipeline.run_epoch(workload.records_for_epoch(0), 1.0)
        idle_states = [obs.state for obs in result.observations]
        assert OperatorState.IDLE in idle_states

    def test_window_flush_ships_partial_state(self, cost_model, workload):
        pipeline = build_source(cost_model)
        pipeline.set_load_factors([1.0, 1.0, 1.0])
        partials_seen = 0
        for epoch in range(10):
            result = pipeline.run_epoch(workload.records_for_epoch(epoch), 1.0)
            if epoch < 9:
                assert result.partial_state_bytes == 0.0
        assert result.partial_state_bytes > 0.0
        assert 2 in result.partial_states
        # Flushing cleared the operator's window state.
        assert pipeline.stages[2].operator.group_count() == 0

    def test_profile_epoch_returns_measurements(self, cost_model, workload):
        pipeline = build_source(cost_model)
        result = pipeline.run_epoch(workload.records_for_epoch(0), 1.0, profile=True)
        assert result.measured_costs is not None
        assert result.measured_relays is not None
        assert len(result.measured_costs) == 3
        assert result.measured_costs[1] == pytest.approx(
            cost_model.cost_per_record(pipeline.stages[1].operator)
        )
        assert 0.0 <= result.measured_relays[1] <= 1.0

    def test_network_bytes_accounting(self, cost_model, workload):
        pipeline = build_source(cost_model)
        result = pipeline.run_epoch(workload.records_for_epoch(0), 1.0)
        assert result.network_bytes == pytest.approx(
            result.drained_bytes + result.emitted_bytes + result.partial_state_bytes
        )
        assert result.drained_bytes > result.input_bytes  # drain header overhead


class TestStreamProcessorPipeline:
    def test_needs_operators(self, cost_model):
        with pytest.raises(SimulationError):
            StreamProcessorPipeline([], cost_model)

    def test_processes_drained_records_from_their_stage(self, cost_model, workload):
        sp = build_sp(cost_model)
        records = workload.records_for_epoch(0)
        result = sp.process_arrivals([(0, records)])
        assert result.records_processed > 0
        assert result.cpu_used_seconds > 0

    def test_rejects_unknown_stage_index(self, cost_model, workload):
        sp = build_sp(cost_model)
        with pytest.raises(SimulationError):
            sp.process_arrivals([(9, workload.records_for_epoch(0))])

    def test_window_close_emits_final_rows(self, cost_model, workload):
        sp = build_sp(cost_model)
        outputs = []
        for epoch in range(10):
            result = sp.process_arrivals(
                [(0, workload.records_for_epoch(epoch))], collect_outputs=True
            )
            outputs.extend(result.outputs)
            outputs.extend(sp.advance_epoch(collect_outputs=True))
        assert outputs, "the closing window must emit aggregate rows"
        assert all(hasattr(row, "group_key") for row in outputs)

    def test_merges_source_partial_state(self, cost_model, workload):
        records = workload.records_for_epoch(0)
        # Source processes everything and ships only its partial state.
        source = build_source(cost_model)
        source.set_load_factors([1.0, 1.0, 1.0])
        partials = {}
        for epoch in range(10):
            result = source.run_epoch(workload.records_for_epoch(epoch), 1.0)
        partials = result.partial_states

        sp = build_sp(cost_model)
        merged_rows = []
        for epoch in range(10):
            out = sp.process_arrivals(
                [],
                partial_states=partials if epoch == 9 else None,
                collect_outputs=True,
            )
            merged_rows.extend(out.outputs)
            merged_rows.extend(sp.advance_epoch(collect_outputs=True))
        assert merged_rows, "merged partial state must produce final rows"

    @pytest.mark.parametrize("stage", [0, 1, 2])
    @pytest.mark.parametrize("layout", ["arena_views", "owned"])
    def test_budgeted_run_matches_one_call_per_batch(self, cost_model, stage, layout):
        """One budgeted call over a FIFO of batches processes, charges and
        folds exactly what one call per batch under the same budget does."""
        workloads = [
            PingmeshWorkload(
                PingmeshConfig(records_per_epoch=RATE, peers=RATE * 5, seed=seed)
            )
            for seed in range(6)
        ]
        arena = FleetArena()
        arena.begin_epoch()
        for source_id, source in enumerate(workloads):
            assert source.fill_arena(0, arena, source_id)
        views = [arena.view(source_id) for source_id in range(len(workloads))]
        batches = views if layout == "arena_views" else [arena.own(v) for v in views]
        drained = [(stage, batch) for batch in batches]
        alone = [
            build_sp(cost_model).process_arrivals([item])
            for item in drained
        ]
        cpus = [result.cpu_used_seconds for result in alone]
        used = 0.5 * cpus[0]
        for processed in range(1, len(drained) + 1):
            budget = used + sum(cpus[: processed - 1]) + 0.5 * cpus[processed - 1]
            reference, spent, expected = build_sp(cost_model), used, []
            for item in drained:
                if spent >= budget:
                    break
                cpu = reference.process_arrivals([item]).cpu_used_seconds
                spent += cpu
                expected.append(cpu)
            run = build_sp(cost_model)
            result = run.process_arrivals(
                drained, compute_budget_s=budget, cpu_used_s=used
            )
            assert len(expected) == processed
            assert result.batch_cpu_seconds == expected
            assert result.records_processed == sum(
                r.records_processed for r in alone[:processed]
            )
            groups = reference.operators[-1].group_count()
            assert run.operators[-1].group_count() == groups
