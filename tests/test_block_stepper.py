"""The block stepper: a block of pipelines stepped stage by stage.

Every source must get exactly the epoch its own pipeline gives it alone,
whatever the row-mask and G+R passes share across sources, down to its G+R
state; what a source keeps past the epoch must hold only its own rows; and
an engine serves one plan.
"""

from __future__ import annotations

from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import make_setup
from repro.baselines import AllSPStrategy
from repro.errors import SimulationError
from repro.query.operators import append_runs
from repro.query.records import FleetArena, RecordBatch
from repro.simulation import pipeline as pipeline_module
from repro.simulation.engine import EpochEngine
from repro.simulation.pipeline import (
    BlockEpoch,
    SourceEpochResult,
    SourcePipeline,
    run_block_epoch,
)

RECORDS_PER_EPOCH = 120
LOAD_FACTORS = (0.0, 0.3, 0.56, 1.0)
#: From starving (queues, relief and backpressure) to ample.
BUDGETS = (0.0, 0.02, 0.05, 0.12, 1.0)


@pytest.fixture(scope="module")
def setup():
    return make_setup("s2s_probe", records_per_epoch=RECORDS_PER_EPOCH)


def build_pipeline(setup) -> SourcePipeline:
    return SourcePipeline(
        setup.plan.source_operators(),
        setup.cost_model,
        setup.config.thresholds,
        setup.plan.window_length_s,
        setup.config.epoch.duration_s,
    )


def summary(result: SourceEpochResult, pipeline: SourcePipeline) -> tuple:
    """Everything one source epoch reports, with containers as lengths."""
    return (
        result.epoch,
        result.records_in,
        result.input_bytes,
        result.cpu_used_seconds,
        result.cpu_budget_seconds,
        [(stage, len(records)) for stage, records in result.drained],
        result.drained_bytes,
        len(result.emitted),
        result.emitted_bytes,
        sorted(result.partial_states),
        result.partial_state_bytes,
        result.rejected_records,
        result.forwarded_per_stage,
        result.processed_per_stage,
        result.pending_per_stage,
        result.queue_drained_per_stage,
        result.rejected_per_stage,
        result.observations,
        result.measured_costs,
        result.measured_relays,
        [len(stage.queue) for stage in pipeline.stages],
    )


def group_state(pipeline: SourcePipeline) -> tuple:
    """The G+R's state: its raw runs, latest event time, group counts."""
    operator = pipeline.stages[-1].operator
    state = operator._vector_state
    return (
        [tuple(column.tolist() for column in run) for run in state.runs],
        operator._last_event_time,
        state.group_count,
        sorted(operator._groups),
    )


factors_st = st.tuples(*[st.sampled_from(LOAD_FACTORS)] * 3)


class TestBlockEqualsSourceBySource:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        num_sources=st.integers(min_value=2, max_value=8),
        epochs=st.integers(min_value=2, max_value=12),
    )
    def test_every_source_gets_its_own_epoch(self, setup, data, num_sources, epochs):
        """Two identically seeded fleets: one steps as a block off a fleet
        arena, the other source by source through ``run_epoch`` on batches
        of its own.  Every epoch, every source reads the same."""
        factors = data.draw(st.lists(factors_st, min_size=num_sources, max_size=num_sources))
        budgets = data.draw(
            st.lists(st.sampled_from(BUDGETS), min_size=num_sources, max_size=num_sources)
        )
        idle = data.draw(st.integers(0, num_sources - 1))
        outside = data.draw(st.integers(0, num_sources - 1).filter(lambda i: i != idle))
        profile_epoch = data.draw(st.integers(0, epochs - 1))
        profiling = data.draw(st.sets(st.integers(0, num_sources - 1)))
        change_epoch = data.draw(st.integers(0, epochs - 1))
        new_factors = data.draw(
            st.lists(factors_st, min_size=num_sources, max_size=num_sources)
        )

        block = [build_pipeline(setup) for _ in range(num_sources)]
        alone = [build_pipeline(setup) for _ in range(num_sources)]
        for pipeline, own_factors in zip(block + alone, factors + factors):
            pipeline.set_load_factors(own_factors)
        block_workloads = [setup.workload_factory(1 + i) for i in range(num_sources)]
        alone_workloads = [setup.workload_factory(1 + i) for i in range(num_sources)]
        arena = FleetArena()

        for epoch in range(epochs):
            if epoch == change_epoch:
                # A new plan: both fleets drain the old plan's backlog next.
                for pipeline, own_factors in zip(block + alone, new_factors + new_factors):
                    pipeline.set_load_factors(own_factors)
            profiles = [
                epoch == profile_epoch and index in profiling
                for index in range(num_sources)
            ]

            # As the engine's fill phase hands them out: arena views, an
            # idle source's empty input, and one batch the arena never saw.
            arena.begin_epoch()
            inputs: List[Optional[object]] = []
            for index, workload in enumerate(block_workloads):
                if index == idle:
                    inputs.append([])
                elif index == outside:
                    inputs.append(workload.batch_for_epoch(epoch))
                else:
                    assert workload.fill_arena(epoch, arena, index)
                    inputs.append(None)
            views = [
                arena.view(index) if records is None else records
                for index, records in enumerate(inputs)
            ]
            stepped = run_block_epoch(block, views, budgets, profiles, arena)
            results = stepped.results
            # The block's arrays hold what its results report.
            gathered = BlockEpoch.from_results(results, 3)
            for name in vars(gathered):
                if name != "results":
                    assert getattr(stepped, name).tolist() == getattr(
                        gathered, name
                    ).tolist(), name
            for pipeline in block:
                for stage in pipeline.stages:
                    if isinstance(stage.queue, RecordBatch):
                        stage.queue = arena.own(stage.queue)
                    assert not arena.aliased_by(stage.queue)

            for index, (pipeline, workload) in enumerate(zip(alone, alone_workloads)):
                records = [] if index == idle else workload.batch_for_epoch(epoch)
                expected = pipeline.run_epoch(records, budgets[index], profiles[index])
                assert summary(results[index], block[index]) == summary(
                    expected, pipeline
                ), f"source {index} at epoch {epoch}"
                assert group_state(block[index]) == group_state(
                    pipeline
                ), f"source {index}'s G+R at epoch {epoch}"


class TestKeysOutsideThePacking:
    def test_only_the_failing_source_takes_its_object_path(self, setup, monkeypatch):
        """One source's window holds a negative ``dst_ip``, which the G+R's
        31-bit key packing cannot prove: that source alone folds into its
        group dict, the others keep raw runs, and every source reads what it
        reads stepped alone."""
        passes = []

        def counted(
            operators: list, batch: RecordBatch, parts: list, count: bool
        ) -> List[bool]:
            passes.append(len(parts))
            return append_runs(operators, batch, parts, count)

        monkeypatch.setattr(pipeline_module, "append_runs", counted)
        num_sources, bad = 4, 2
        block = [build_pipeline(setup) for _ in range(num_sources)]
        alone = [build_pipeline(setup) for _ in range(num_sources)]
        for pipeline in block + alone:
            pipeline.set_load_factors([1.0, 1.0, 1.0])
        block_workloads = [setup.workload_factory(1 + i) for i in range(num_sources)]
        alone_workloads = [setup.workload_factory(1 + i) for i in range(num_sources)]
        arena = FleetArena()

        def poison(batch: RecordBatch) -> None:
            batch.column("dst_ip")[0] = -5
            batch.column("err_code")[0] = 0

        for epoch in range(12):
            arena.begin_epoch()
            for index, workload in enumerate(block_workloads):
                assert workload.fill_arena(epoch, arena, index)
            views = [arena.view(index) for index in range(num_sources)]
            poison(views[bad])
            results = run_block_epoch(
                block, views, [1.0] * num_sources, [False] * num_sources, arena
            ).results
            for index, (pipeline, workload) in enumerate(zip(alone, alone_workloads)):
                records = workload.batch_for_epoch(epoch)
                if index == bad:
                    poison(records)
                expected = pipeline.run_epoch(records, 1.0, False)
                assert summary(results[index], block[index]) == summary(
                    expected, pipeline
                )
                assert group_state(block[index]) == group_state(pipeline)
            if epoch % 10 == 9:
                continue  # the window just closed
            for index, pipeline in enumerate(block):
                operator = pipeline.stages[-1].operator
                assert bool(operator._groups) == (index == bad), (epoch, index)
                runs = operator._vector_state.runs
                assert bool(runs) == (index != bad), (epoch, index)
        # The block's G+R inputs shared one pass each epoch.
        assert max(passes) == num_sources


class TestBudgetsAreCheckedFirst:
    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_a_bad_budget_leaves_every_pipeline_untouched(self, setup, bad):
        """A negative, NaN or infinite budget is refused before any
        pipeline of the block opens its epoch."""
        pipelines = [build_pipeline(setup) for _ in range(3)]
        workload = setup.workload_factory(1)
        records = [workload.batch_for_epoch(0) for _ in pipelines]
        with pytest.raises(SimulationError, match="cpu_budget_fraction"):
            run_block_epoch(pipelines, records, [0.5, bad, 0.5], [False] * 3)
        assert [pipeline._epoch_index for pipeline in pipelines] == [0, 0, 0]


class TestOwnRows:
    def test_queues_cut_from_the_shared_mask_pass_own_only_their_rows(self, setup):
        """The filter runs once over three sources' arena rows; each G+R
        queue is a view of that pass's survivors, which the arena took into
        buffers it recycles, so owning it copies just the source's rows."""
        arena = FleetArena()
        arena.begin_epoch()
        pipelines = [build_pipeline(setup) for _ in range(3)]
        for index, pipeline in enumerate(pipelines):
            pipeline.set_load_factors([1.0, 1.0, 1.0])
            # Relief would cut the queue in two and join the pieces.
            pipeline.allow_congestion_relief = False
            assert setup.workload_factory(1 + index).fill_arena(0, arena, index)
        views = [arena.view(index) for index in range(3)]
        run_block_epoch(pipelines, views, [0.2] * 3, [False] * 3, arena)
        queues = [pipeline.stages[2].queue for pipeline in pipelines]
        assert all(len(queue) for queue in queues)
        assert all(arena.aliased_by(queue) for queue in queues)
        owned = [arena.own(queue) for queue in queues]
        for mine, queue in zip(owned, queues):
            assert len(mine) == len(queue)
            assert all(column.base is None for column in mine.columns.values())
        arena.begin_epoch()
        # The taken rows are recycled like the arena's own: a queue left a
        # view would read the next epoch's rows, so it stays flagged.
        assert all(arena.aliased_by(queue) for queue in queues)
        assert not any(arena.aliased_by(mine) for mine in owned)


class TestOnePlanPerEngine:
    def engine(self, setup, name: str = "s2s") -> EpochEngine:
        engine = EpochEngine(setup.cost_model, setup.config, record_mode="arena")
        engine.add_source(
            name=name,
            workload=setup.workload_factory(1),
            strategy=AllSPStrategy(),
            budget=1.0,
            plan=setup.plan,
        )
        return engine

    def test_add_source_refuses_a_second_plan(self, setup):
        engine = self.engine(setup)
        other = make_setup("t2t_probe", records_per_epoch=RECORDS_PER_EPOCH)
        with pytest.raises(SimulationError, match="one plan"):
            engine.add_source(
                name="t2t",
                workload=other.workload_factory(2),
                strategy=AllSPStrategy(),
                budget=1.0,
                plan=other.plan,
            )
        assert engine.source_names() == ["s2s"]

    def test_add_source_accepts_the_same_plan_compiled_again(self, setup):
        engine = self.engine(setup)
        again = make_setup("s2s_probe", records_per_epoch=RECORDS_PER_EPOCH)
        engine.add_source(
            name="again",
            workload=again.workload_factory(2),
            strategy=AllSPStrategy(),
            budget=1.0,
            plan=again.plan,
        )
        assert [state.name for state in engine.step_sources().states] == ["s2s", "again"]

    def test_adopt_source_refuses_a_second_plan(self, setup):
        engine = self.engine(setup)
        other = make_setup("t2t_probe", records_per_epoch=RECORDS_PER_EPOCH)
        donor = EpochEngine(other.cost_model, other.config, record_mode="arena")
        donor.add_source(
            name="t2t",
            workload=other.workload_factory(2),
            strategy=AllSPStrategy(),
            budget=1.0,
            plan=other.plan,
        )
        state = donor.remove_source("t2t")
        with pytest.raises(SimulationError, match="one plan"):
            engine.adopt_source(state)
        assert engine.source_names() == ["s2s"]
