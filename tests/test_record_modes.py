"""Arena (columnar) vs object execution mode: bit-exact equivalence.

The simulators select their hot-path record representation through the
``record_mode`` knob (:class:`~repro.simulation.executor.ExecutorConfig` /
:class:`~repro.simulation.multisource.MultiSourceConfig`).  The arena mode
exists purely for speed; these tests pin down that it reproduces the object
mode's metrics *bit-exactly* — not approximately — on the configurations
the evaluation figures run (Fig. 10 multi-source/sharded, Fig. 11
co-located), with LogAnalytics' variable-size records (which run the
object path in both modes), under a changing budget that re-profiles
after window closes, and where the stream processor folds a run of batches in one pass
(cut by its budget, concatenated, or with a state-dependent cost), that
the :class:`~repro.query.records.FleetArena` container
honours its aliasing/ownership contract, that the columnar containers
survive empty inputs, and that record conservation holds in the fast mode
under arbitrary fleets (hypothesis property).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import make_setup, make_strategy
from repro.baselines import AllSPStrategy
from repro.query.aggregates import (
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
)
from repro.query.operators import FilterOperator
from repro.query.records import (
    EnrichedPingmeshRecord,
    FleetArena,
    PingmeshRecord,
    RecordBatch,
    coalesce_batches,
    covering_view,
    record_size_bytes,
)
from repro.scenarios import ScenarioRunner, spec_from_dict
from repro.scenarios.runner import run_multi_query, run_sharded
from repro.simulation.engine import EpochEngine, RECORD_MODES, validate_record_mode
from repro.simulation.executor import BuildingBlockExecutor, ExecutorConfig
from repro.simulation.multiquery import CoLocatedBlockExecutor, QuerySpec
from repro.simulation.multisource import (
    MultiSourceConfig,
    MultiSourceExecutor,
    homogeneous_sources,
)
from repro.simulation.network import plan_fifo_transfer
from repro.simulation.node import BudgetSchedule, StreamProcessorNode
from repro.simulation.sharding import ShardedClusterExecutor
from repro.errors import SimulationError


@pytest.fixture(scope="module")
def setup():
    return make_setup("s2s_probe", records_per_epoch=120)


def fleet(setup, num_sources, strategy_name="Jarvis", seed=10, budget=0.55):
    return homogeneous_sources(
        num_sources,
        workload_factory=lambda i: setup.workload_factory(seed + i),
        strategy_factory=lambda i: make_strategy(strategy_name, setup, budget),
        budget=budget,
    )


def assert_epochs_identical(object_run, arena_run):
    """Every epoch metric of every source must match bit-for-bit."""
    assert object_run.source_names() == arena_run.source_names()
    for name in object_run.source_names():
        obj_epochs = object_run.per_source[name].epochs
        arena_epochs = arena_run.per_source[name].epochs
        assert len(obj_epochs) == len(arena_epochs)
        for obj, arena in zip(obj_epochs, arena_epochs):
            assert obj == arena, (name, obj, arena)


class TestRecordModeValidation:
    def test_unknown_mode_rejected(self):
        for mode in ("vectorized", "batched"):
            with pytest.raises(SimulationError):
                validate_record_mode(mode)
        with pytest.raises(SimulationError):
            MultiSourceConfig(record_mode="columns")
        with pytest.raises(SimulationError):
            ExecutorConfig(record_mode="columns")

    def test_all_advertised_modes_accepted(self):
        assert RECORD_MODES == ("object", "arena")
        for mode in RECORD_MODES:
            validate_record_mode(mode)
            MultiSourceConfig(record_mode=mode)
            ExecutorConfig(record_mode=mode)


class TestRecordBatchContainer:
    def batch(self, n=10):
        workload = make_setup(
            "s2s_probe", records_per_epoch=n
        ).workload_factory(3)
        return workload.batch_for_epoch(0)

    def test_matches_materialized_records(self):
        batch = self.batch(16)
        records = batch.to_records()
        assert len(records) == len(batch) == 16
        assert all(isinstance(record, PingmeshRecord) for record in records)
        for name, column in batch.columns.items():
            assert [getattr(record, name) for record in records] == list(column), name
        assert record_size_bytes(batch) == record_size_bytes(records)
        assert record_size_bytes(batch, drain=True) == record_size_bytes(
            records, drain=True
        )

    def test_slicing_concat_take_compress(self):
        batch = self.batch(12)
        head, tail = batch[:5], batch[5:]
        assert len(head) == 5 and len(tail) == 7
        rejoined = head + tail
        assert list(rejoined.event_times) == list(batch.event_times)
        assert batch[0:12] is batch  # whole-batch slices alias
        taken = batch.take([0, 3, 4])
        assert list(taken.columns["dst_ip"]) == [
            batch.columns["dst_ip"][i] for i in (0, 3, 4)
        ]
        mask = [i % 2 == 0 for i in range(12)]
        assert len(batch.compress(mask)) == 6
        # Empty-list concatenation keeps the container columnar.
        assert ([] + batch) is batch
        assert (batch + []) is batch

    def test_row_index_out_of_range_raises(self):
        """A batch has no row-wise access: every integer index raises, in
        range or not, and so does iterating it row by row."""
        batch = self.batch(10)
        for index in (0, 9, -1, -10, 10, -11):
            with pytest.raises(SimulationError):
                batch[index]
        with pytest.raises(SimulationError):
            list(batch)

    def test_compress_gathers_every_column_by_mask(self):
        batch = self.batch(12)
        mask = np.asarray(batch.columns["err_code"]) == 0
        kept = batch.compress(mask)
        assert len(kept) == int(mask.sum())
        for name, column in batch.columns.items():
            assert np.array_equal(kept.columns[name], column[mask]), name

    def test_compress_rejects_a_short_mask_on_array_columns(self):
        batch = self.batch(6)
        assert isinstance(batch.columns["event_time"], np.ndarray)
        with pytest.raises(SimulationError):
            batch.compress(np.ones(3, dtype=bool))
        with pytest.raises(SimulationError):
            batch.compress(np.ones(7, dtype=bool))


class TestPlanFifoTransfer:
    def test_uniform_matches_sizes_walk(self):
        # The last budget is what shipping leaves after a 90-byte item
        # completed within the tolerance: overdrawn by about 1e-9.
        overdrawn = (90.0 - 1e-9) - 90.0
        for budget in (0.0, 85.9, 86.0, 200.0, 86.0 * 7, 1e9, overdrawn):
            uniform = plan_fifo_transfer(7, budget, uniform_size=86)
            walked = plan_fifo_transfer(7, budget, sizes=[86] * 7)
            assert uniform == walked

    def test_partial_progress_resumes(self):
        first = plan_fifo_transfer(3, 100.0, uniform_size=90)
        assert first.completed_records == 1
        assert first.new_progress_bytes == pytest.approx(10.0)
        second = plan_fifo_transfer(
            2, 80.0, progress_bytes=first.new_progress_bytes, uniform_size=90
        )
        assert second.completed_records == 1
        assert second.completed_bytes == 90

    def test_zero_budget_ships_nothing(self):
        plan = plan_fifo_transfer(5, 0.0, uniform_size=86)
        assert plan.completed_records == 0
        assert plan.sent_bytes == 0.0
        assert plan.new_progress_bytes == 0.0


class TestMultiSourceEquivalence:
    """Fig. 10 configurations: arena must equal object bit-for-bit."""

    @pytest.mark.parametrize("strategy_name", ["Jarvis", "Best-OP"])
    def test_fig10_multi_source_bit_exact(self, setup, strategy_name):
        runs = {}
        for mode in RECORD_MODES:
            runs[mode] = run_sharded(
                setup,
                strategy_name,
                0.55,
                num_sources=6,
                num_blocks=1,
                num_epochs=14,  # crosses a 10-epoch window boundary
                warmup_epochs=4,
                record_mode=mode,
            )
        obj, arena = runs["object"], runs["arena"]
        assert obj.aggregate_throughput_mbps() == arena.aggregate_throughput_mbps()
        assert obj.aggregate_offered_mbps() == arena.aggregate_offered_mbps()
        assert obj.network_utilization() == arena.network_utilization()
        assert obj.median_latency_s() == arena.median_latency_s()
        assert_epochs_identical(obj, arena)

    @pytest.mark.parametrize("record_mode", ["arena"])
    def test_fast_mode_run_conserves_records(self, setup, record_mode):
        executor = MultiSourceExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=fleet(setup, 4),
            cluster_config=MultiSourceConfig(
                config=setup.config,
                stream_processor=StreamProcessorNode(ingress_bandwidth_mbps=30.0),
                record_mode=record_mode,
            ),
        )
        for _ in range(13):
            executor.run_epoch()
        assert executor.verify_record_conservation() == []

    def test_sharded_fig10_bit_exact(self, setup):
        runs = {
            mode: run_sharded(
                setup,
                "Jarvis",
                0.55,
                num_sources=6,
                num_blocks=2,
                num_epochs=12,
                warmup_epochs=4,
                record_mode=mode,
            )
            for mode in RECORD_MODES
        }
        obj, arena = runs["object"], runs["arena"]
        assert obj.aggregate_throughput_mbps() == arena.aggregate_throughput_mbps()
        assert_epochs_identical(obj, arena)

    def test_generic_workload_runs_the_object_path(self, setup):
        """A workload without ``batch_for_epoch`` still runs arena mode: its
        record objects go to the pipeline as they are."""

        class PlainWorkload:
            def __init__(self, inner):
                self.inner = inner

            def records_for_epoch(self, epoch):
                return self.inner.records_for_epoch(epoch)

        runs = {}
        for mode in RECORD_MODES:
            specs = homogeneous_sources(
                3,
                workload_factory=lambda i: PlainWorkload(
                    setup.workload_factory(20 + i)
                ),
                strategy_factory=lambda i: AllSPStrategy(),
                budget=1.0,
            )
            executor = MultiSourceExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=specs,
                cluster_config=MultiSourceConfig(
                    config=setup.config, record_mode=mode
                ),
            )
            runs[mode] = executor.run(8, warmup_epochs=2)
        assert (
            runs["object"].aggregate_throughput_mbps()
            == runs["arena"].aggregate_throughput_mbps()
        )
        assert_epochs_identical(runs["object"], runs["arena"])


@pytest.fixture(scope="module")
def log_setup():
    return make_setup("log_analytics", records_per_epoch=200)


class TestVariableSizeFleetEquivalence:
    """LogAnalytics' variable-size log lines through arena-mode fleets.

    They have no columnar form, so in arena mode too each source's records
    run the object path.  Every epoch of every source must still match
    object mode, on one block and on two blocks with a live migration, and
    every epoch must conserve records.
    """

    BUDGET = 0.3
    EPOCHS = 12  # crosses the 10-epoch window boundary
    MIGRATE_AT = 5

    def executor(self, setup, strategy_name, mode, num_blocks):
        sources = homogeneous_sources(
            6,
            workload_factory=lambda i: setup.workload_factory(30 + i),
            strategy_factory=lambda i: make_strategy(
                strategy_name, setup, self.BUDGET
            ),
            budget=self.BUDGET,
        )
        config = MultiSourceConfig(
            config=setup.config,
            stream_processor=StreamProcessorNode(
                ingress_bandwidth_mbps=2 * setup.input_rate_mbps
            ),
            record_mode=mode,
        )
        if num_blocks == 1:
            return MultiSourceExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=sources,
                cluster_config=config,
            )
        return ShardedClusterExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=sources,
            num_blocks=num_blocks,
            cluster_config=config,
        )

    @pytest.mark.parametrize("num_blocks", [1, 2])
    @pytest.mark.parametrize("strategy_name", ["All-SP", "Best-OP", "Jarvis"])
    def test_epochs_match_object_mode(self, log_setup, strategy_name, num_blocks):
        epochs = {}
        for mode in RECORD_MODES:
            executor = self.executor(log_setup, strategy_name, mode, num_blocks)
            epochs[mode] = []
            for epoch in range(self.EPOCHS):
                if num_blocks > 1 and epoch == self.MIGRATE_AT:
                    executor.migrate("source-0", to_block=1)
                epochs[mode].append(executor.run_epoch())
                assert executor.verify_record_conservation() == [], (mode, epoch)
            if num_blocks > 1:
                assert executor.block_of("source-0") == 1
        for index, (obj, arena) in enumerate(zip(epochs["object"], epochs["arena"])):
            assert obj == arena, (strategy_name, num_blocks, index)


@pytest.fixture(scope="module")
def run_setup():
    return make_setup("s2s_probe", records_per_epoch=300)


class TestSPRunEquivalence:
    """Arena mode folds runs of SP backlog items in one columnar pass;
    object mode processes them one by one.  Every epoch must still match
    where a run is cut by the compute budget and where its batches are
    owned copies that must be concatenated."""

    SHAPES = {
        # The budget stops the SP partway through a run every epoch.
        "budget_cut": (1000.0, 0.02),
        # A tight link parks batches in the carryover, which owns them at
        # the epoch boundary, so runs concatenate instead of viewing.
        "owned_copies": (1.5, 0.02),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("strategy_name", ["All-SP", "Best-OP", "Jarvis"])
    def test_epochs_match_object_mode(self, run_setup, shape, strategy_name):
        ingress_mbps, sp_share = self.SHAPES[shape]
        epochs = {}
        for mode in RECORD_MODES:
            executor = MultiSourceExecutor(
                plan=run_setup.plan,
                cost_model=run_setup.cost_model,
                sources=fleet(run_setup, 12, strategy_name),
                cluster_config=MultiSourceConfig(
                    config=run_setup.config,
                    stream_processor=StreamProcessorNode(
                        ingress_bandwidth_mbps=ingress_mbps
                    ),
                    sp_compute_share=sp_share,
                    record_mode=mode,
                ),
            )
            group_aggregate = executor.sp_pipeline.operators[-1]
            # 14 epochs cross the 10-epoch window boundary.  The SP G+R's
            # group count shows which rows it folded: only processed ones.
            epochs[mode] = [
                (executor.run_epoch(), group_aggregate.group_count())
                for _ in range(14)
            ]
            assert executor.verify_record_conservation() == []
            if shape == "budget_cut":
                assert executor.sp_backlog_records() > 0
        for index, (obj, arena) in enumerate(zip(epochs["object"], epochs["arena"])):
            assert obj == arena, (shape, strategy_name, index)


class TestFilterRowMask:
    def batch(self, setup):
        batch = setup.workload_factory(3).batch_for_epoch(0)
        columns = dict(batch.columns)
        columns["err_code"] = np.arange(len(batch), dtype=np.int64) % 3
        return RecordBatch(
            batch.record_class, columns, uniform_size_bytes=batch.uniform_size_bytes
        )

    def filter_op(self, setup):
        return next(op for op in setup.plan.operators if op.kind == "filter")

    def test_mask_is_the_predicate_and_process_batch_compresses_by_it(self, setup):
        batch = self.batch(setup)
        op = self.filter_op(setup)
        assert op.masks_rows
        mask = op.row_mask(batch)
        assert mask.dtype == bool
        expected = [bool(op.predicate(record)) for record in batch.to_records()]
        assert mask.tolist() == expected
        assert 0 < sum(expected) < len(batch)
        kept, compressed = op.process_batch(batch), batch.compress(mask)
        assert len(kept) == len(compressed)
        for name, column in compressed.columns.items():
            assert list(kept.columns[name]) == list(column), name

    def test_missing_column_keeps_no_row(self, setup):
        batch = self.batch(setup)
        op = FilterOperator("f", lambda record: False, column_equals=("tor", 1))
        assert op.row_mask(batch).tolist() == [False] * len(batch)
        assert len(op.process_batch(batch)) == 0

    def test_only_row_filters_have_masks(self, setup):
        window, filter_op, gr = setup.plan.operators
        assert window.masks_rows and window.row_mask(self.batch(setup)).all()
        assert not gr.masks_rows
        opaque = FilterOperator("f", filter_op.predicate)
        assert not opaque.masks_rows
        with pytest.raises(NotImplementedError):
            opaque.row_mask(self.batch(setup))


class TestCoalesceBatches:
    def arena_views(self, setup, sources=4):
        arena = FleetArena()
        arena.begin_epoch()
        for source_id in range(sources):
            batch = setup.workload_factory(20 + source_id).batch_for_epoch(0)
            assert arena.append_batch(source_id, batch)
        return arena, [arena.view(source_id) for source_id in range(sources)]

    @staticmethod
    def chained(batches):
        total = batches[0]
        for batch in batches[1:]:
            total = total + batch
        return total

    @staticmethod
    def assert_same_rows(left, right):
        assert len(left) == len(right)
        assert left.uniform_size_bytes == right.uniform_size_bytes
        assert left.columns.keys() == right.columns.keys()
        for name, column in left.columns.items():
            assert list(column) == list(right.columns[name]), name

    def test_adjacent_views_coalesce_into_one_view(self, setup):
        arena, views = self.arena_views(setup)
        # Consecutive sources, one of them split in two, as the link ships.
        parts = [views[0], views[1][:50], views[1][50:], views[2]]
        joined = coalesce_batches(parts)
        self.assert_same_rows(joined, self.chained(parts))
        assert arena.aliased_by(joined)
        for name, column in joined.columns.items():
            assert column.base is views[0].columns[name].base, name
            assert np.shares_memory(column, views[2].columns[name]), name
        # A view of the span coalesces further.
        self.assert_same_rows(
            coalesce_batches([joined, views[3]]), self.chained(views)
        )

    def test_owned_or_gapped_batches_are_concatenated(self, setup):
        arena, views = self.arena_views(setup)
        cases = [
            [views[0], views[2]],
            [arena.own(views[0]), arena.own(views[1])],
            [views[0], arena.own(views[1])],
            [views[1][::2], views[1][1::2]],
        ]
        for parts in cases:
            joined = coalesce_batches(parts)
            self.assert_same_rows(joined, self.chained(parts))
            assert not arena.aliased_by(joined)

    def test_batches_of_different_row_sizes_refuse_to_concatenate(self, setup):
        """Every row of a batch has one size, so two batches whose sizes
        differ have no joint batch: joining them raises instead of
        miscounting bytes."""
        batch = setup.workload_factory(5).batch_for_epoch(0)
        resized = RecordBatch(
            batch.record_class, dict(batch.columns), uniform_size_bytes=90
        )
        for parts in ([batch, resized], [batch[:10], batch[10:], resized]):
            with pytest.raises(SimulationError):
                coalesce_batches(parts)
        with pytest.raises(SimulationError):
            batch + resized

    def test_a_single_batch_is_returned_as_is(self, setup):
        _, views = self.arena_views(setup, sources=1)
        assert coalesce_batches([views[0]]) is views[0]
        assert coalesce_batches([views[0][:0], views[0]]) is views[0]


class TestBuildingBlockEquivalence:
    @pytest.mark.parametrize("strategy_name", ["Jarvis", "All-SP", "Best-OP"])
    def test_single_block_bit_exact(self, setup, strategy_name):
        runs = {}
        for mode in RECORD_MODES:
            executor = BuildingBlockExecutor(
                plan=setup.plan,
                workload=setup.workload_factory(5),
                cost_model=setup.cost_model,
                strategy=make_strategy(strategy_name, setup, 0.55),
                budget=0.55,
                executor_config=ExecutorConfig(
                    config=setup.config,
                    bandwidth_mbps=setup.bandwidth_mbps,
                    record_mode=mode,
                ),
            )
            runs[mode] = executor.run(14, warmup_epochs=4)
        obj, arena = runs["object"], runs["arena"]
        assert obj.throughput_mbps() == arena.throughput_mbps()
        assert obj.offered_mbps() == arena.offered_mbps()
        assert obj.epochs == arena.epochs


class _RelayRecorder:
    """Strategy wrapper logging the relays every profiling epoch measured."""

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def on_epoch_end(self, observation):
        if observation.measured_relays is not None:
            self.log.append((observation.epoch, observation.measured_relays))
        return self.inner.on_epoch_end(observation)


class TestWindowCloseRelay:
    def test_reprofiling_after_a_window_close_reads_the_same_relay(self):
        """Budget changes after the first window close make Jarvis
        re-profile, and profiling reads the G+R relay measured when the last
        window closed.  Arena must report the object path's relay there, not
        fall back to the live group-count estimate."""
        setup = make_setup("s2s_probe", records_per_epoch=300)
        schedule = BudgetSchedule.steps((0, 0.55), (23, 0.30), (37, 0.8))
        logs, runs = {}, {}
        for mode in RECORD_MODES:
            log = logs[mode] = []
            specs = homogeneous_sources(
                4,
                workload_factory=lambda i: setup.workload_factory(10 + i),
                strategy_factory=lambda i: _RelayRecorder(
                    make_strategy("Jarvis", setup, 0.55), log
                ),
                budget=schedule,
            )
            executor = MultiSourceExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=specs,
                cluster_config=MultiSourceConfig(
                    config=setup.config, record_mode=mode
                ),
            )
            runs[mode] = executor.run(60, warmup_epochs=10)
        # Profiling happened after windows closed (10-epoch windows).
        assert any(epoch > 20 for epoch, _ in logs["object"])
        assert logs["arena"] == logs["object"]
        assert_epochs_identical(runs["object"], runs["arena"])


class TestColocatedEquivalence:
    """Fig. 11 configuration: the co-located sweep must be mode-agnostic."""

    def test_fig11_colocated_bit_exact(self, setup):
        runs = {
            mode: run_multi_query(
                setup,
                num_queries=3,
                per_query_budget=0.4,
                load_factors=[1.0, 1.0, 0.6],
                num_epochs=12,
                warmup_epochs=4,
                record_mode=mode,
            )
            for mode in RECORD_MODES
        }
        obj, arena = runs["object"], runs["arena"]
        assert obj.aggregate_throughput_mbps() == arena.aggregate_throughput_mbps()
        assert obj.median_latency_s() == arena.median_latency_s()
        assert sorted(obj.per_query.keys()) == sorted(arena.per_query.keys())
        for name, obj_cluster in obj.per_query.items():
            arena_cluster = arena.per_query[name]
            assert (
                obj_cluster.aggregate_throughput_mbps()
                == arena_cluster.aggregate_throughput_mbps()
            ), name
            assert_epochs_identical(obj_cluster, arena_cluster)

    def test_fig11_sweep_rows_bit_exact(self):
        rows = {
            mode: ScenarioRunner().run(
                spec_from_dict(
                    {
                        "scenario": {"name": "f11", "kind": "colocated", "mode": "simulated"},
                        "run": {"epochs": 8, "warmup_epochs": 2, "record_mode": mode},
                        "workload": {"records_per_epoch": 80},
                        "sweep": {"queries": [1, 2]},
                    }
                )
            ).raw
            for mode in RECORD_MODES
        }
        assert rows["object"] == rows["arena"]


class TestFleetArenaContainer:
    """The arena's aliasing/ownership/recycling contract, in isolation."""

    def batch(self, setup, n, seed=3):
        return setup.workload_factory(seed).batch_for_epoch(0)[:n]

    def test_views_alias_block_buffers_and_spans_stack(self, setup):
        arena = FleetArena()
        arena.begin_epoch()
        a, b = self.batch(setup, 7, seed=3), self.batch(setup, 5, seed=4)
        assert arena.append_batch(0, a)
        assert arena.append_batch(1, b)
        assert arena.span(0) == (0, 7)
        assert arena.span(1) == (7, 12)
        view = arena.view(0)
        for name, column in view.columns.items():
            assert arena.aliases(column), name
            assert np.array_equal(column, np.asarray(a.columns[name])), name

    def test_epoch_recycling_reuses_buffers(self, setup):
        arena = FleetArena()
        arena.begin_epoch()
        assert arena.append_batch(0, self.batch(setup, 9))
        base = arena.view(0).columns["event_time"].base
        assert base is not None
        arena.begin_epoch()
        # The idle source keeps an (empty) view — the schema survives the
        # epoch boundary even though the rows were recycled.
        assert arena.span(0) == (0, 0)
        assert len(arena.view(0)) == 0
        assert arena.append_batch(0, self.batch(setup, 9, seed=5))
        # Allocation-free steady state: the refill lands in the same buffer.
        assert arena.view(0).columns["event_time"].base is base

    def test_growth_preserves_earlier_rows(self, setup):
        arena = FleetArena()
        arena.begin_epoch()
        first = self.batch(setup, 3)
        assert arena.append_batch(0, first)
        big = self.batch(setup, 120, seed=6)
        for source_id in range(1, 40):  # force several _grow() doublings
            assert arena.append_batch(source_id, big)
        view = arena.view(0)
        for name, column in view.columns.items():
            assert np.array_equal(column, np.asarray(first.columns[name])), name

    def test_own_copies_only_aliasing_columns(self, setup):
        arena = FleetArena()
        arena.begin_epoch()
        assert arena.append_batch(0, self.batch(setup, 6))
        view = arena.view(0)
        owned = arena.own(view)
        assert owned is not view
        for name, column in owned.columns.items():
            assert not arena.aliases(column), name
            assert np.array_equal(column, view.columns[name]), name
        # Already-detached batches pass through untouched.
        assert arena.own(owned) is owned
        # A zero-row view reads no buffer memory, so there is nothing to copy.
        empty = view[:0]
        assert arena.own(empty) is empty
        assert not arena.aliased_by(empty)
        assert arena.aliased_by(view) and not arena.aliased_by(owned)

    def test_schema_strictness_refuses_incompatible_batches(self, setup):
        arena = FleetArena()
        arena.begin_epoch()
        good = self.batch(setup, 4)
        assert arena.append_batch(0, good)
        # One reservation per source per epoch.
        assert not arena.append_batch(0, good)
        # A second reservation of the accepted schema takes the fast path
        # that skips the dtype checks; every refusal below runs after it.
        assert arena.append_batch(2, good)
        # The same columns at another row size.
        resized = RecordBatch(
            good.record_class, dict(good.columns), uniform_size_bytes=90
        )
        assert not arena.append_batch(1, resized)
        # One column cast to another dtype.
        for name, dtype in (("rtt_us", np.float32), ("err_code", np.int32)):
            cast = RecordBatch(
                good.record_class,
                {
                    k: (v.astype(dtype) if k == name else v)
                    for k, v in good.columns.items()
                },
                uniform_size_bytes=good.uniform_size_bytes,
            )
            assert not arena.append_batch(3, cast), name
        # Another record class with the very same columns.
        other = RecordBatch(
            EnrichedPingmeshRecord,
            dict(good.columns),
            uniform_size_bytes=good.uniform_size_bytes,
        )
        assert not arena.append_batch(4, other)
        # Refused requests reserve nothing; the accepted schema still fits.
        assert arena.span(3) == arena.span(4) == (0, 0)
        assert arena.append_batch(5, good)
        assert arena.span(5) == (8, 12)
        # A source the arena has never seen still reads as an empty view
        # once a schema exists (migration-drained sources hit this path).
        unknown = arena.view(99)
        assert unknown is not None and len(unknown) == 0

    def test_taken_rows_are_recycled_and_outgrown_buffers_stay_readable(self, setup):
        """``take`` writes selected rows into buffers reused every epoch;
        outgrowing them mid-epoch leaves earlier views intact and flagged."""
        arena = FleetArena()
        arena.begin_epoch()
        assert arena.append_batch(0, self.batch(setup, 120))
        view = arena.view(0)
        every_third = np.arange(0, 120, 3)
        first = arena.take(view, every_third)
        # A later stage's survivors, taken from the first's.
        second = arena.take(first, np.arange(1, 40, 2))
        assert second.columns["event_time"].base is first.columns["event_time"].base
        members, _, parts = covering_view([first, second])
        assert members == [0, 1] and parts == [(0, 40), (40, 60)]
        expected = [view.take(every_third), view.take(every_third[1:40:2])]
        for _ in range(9):  # outgrow the first buffers within the epoch
            arena.take(view, np.arange(120))
        for batch, want in zip((first, second), expected):
            assert arena.aliased_by(batch)
            for name, column in batch.columns.items():
                assert np.array_equal(column, want.columns[name]), name
        arena.begin_epoch()
        assert arena.append_batch(0, self.batch(setup, 120, seed=4))
        base = arena.take(arena.view(0), np.arange(10)).columns["event_time"].base
        arena.begin_epoch()
        assert arena.append_batch(0, self.batch(setup, 120, seed=5))
        again = arena.take(arena.view(0), np.arange(10))
        # Steady state: the next epoch writes into the same buffers.
        assert again.columns["event_time"].base is base

    def test_fresh_arena_has_no_schema(self):
        arena = FleetArena()
        arena.begin_epoch()
        assert arena.view(0) is None
        assert arena.span(0) == (0, 0)


class TestEmptyInputEdgeCases:
    """Zero-row batches and empty folds must behave like their object
    equivalents (an idle epoch, a drained source, an empty window)."""

    def empty(self, setup):
        return setup.workload_factory(3).batch_for_epoch(0)[:0]

    def test_empty_batch_container_operations(self, setup):
        empty = self.empty(setup)
        full = setup.workload_factory(3).batch_for_epoch(0)
        assert len(empty) == 0
        assert empty.to_records() == []
        assert record_size_bytes(empty) == 0
        # Concat in both orders, on both sides of emptiness.
        assert len(empty + self.empty(setup)) == 0
        rejoined = empty + full
        assert list(rejoined.event_times) == list(full.event_times)
        rejoined = full + empty
        assert list(rejoined.event_times) == list(full.event_times)
        # take/compress on zero rows.
        assert len(empty.take([])) == 0
        assert len(empty.compress([])) == 0
        assert len(full.take([])) == 0
        assert len(full.compress([False] * len(full))) == 0

    def test_add_many_empty_sequence_is_identity(self):
        for aggregate in (
            SumAggregate("x"),
            CountAggregate("x"),
            MinAggregate("x"),
            MaxAggregate("x"),
            AvgAggregate("x"),
        ):
            state = aggregate.create()
            seeded = aggregate.add(aggregate.create(), 3.5)
            for empty_values in ([], np.asarray([], dtype=np.float64)):
                assert aggregate.add_many(state, empty_values) == state
                assert aggregate.add_many(seeded, empty_values) == seeded

    def test_arena_engine_steps_an_idle_source(self, setup):
        """A source whose workload produces no records still steps cleanly
        through the arena path (the migration-drain shape)."""

        class IdleWorkload:
            def records_for_epoch(self, epoch):
                return []

        engine = EpochEngine(
            cost_model=setup.cost_model,
            config=setup.config,
            record_mode="arena",
        )
        engine.add_source(
            name="busy",
            workload=setup.workload_factory(1),
            strategy=AllSPStrategy(),
            budget=1.0,
            plan=setup.plan,
        )
        engine.add_source(
            name="idle",
            workload=IdleWorkload(),
            strategy=AllSPStrategy(),
            budget=1.0,
            plan=setup.plan,
        )
        for _ in range(3):
            step = engine.step_sources()
            results = {state.name: src for state, src in zip(step.states, step.results)}
            assert results["busy"].records_in == 120
            assert results["idle"].records_in == 0


class TestFastModeConservationProperty:
    @pytest.mark.parametrize("record_mode", ["arena"])
    @given(
        num_sources=st.integers(min_value=1, max_value=4),
        records_per_epoch=st.integers(min_value=1, max_value=60),
        num_epochs=st.integers(min_value=1, max_value=12),
        budget=st.floats(min_value=0.0, max_value=1.0),
        ingress_mbps=st.sampled_from([0.5, 2.0, 30.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_record_conservation_in_fast_modes(
        self,
        record_mode,
        num_sources,
        records_per_epoch,
        num_epochs,
        budget,
        ingress_mbps,
    ):
        """Every injected record is accounted for exactly once, whatever the
        fleet shape, budget, or link capacity — in the fast mode."""
        setup = make_setup("s2s_probe", records_per_epoch=records_per_epoch)
        specs = homogeneous_sources(
            num_sources,
            workload_factory=lambda i: setup.workload_factory(40 + i),
            strategy_factory=lambda i: make_strategy("Jarvis", setup, max(budget, 0.05)),
            budget=budget,
        )
        executor = MultiSourceExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=specs,
            cluster_config=MultiSourceConfig(
                config=setup.config,
                stream_processor=StreamProcessorNode(
                    ingress_bandwidth_mbps=ingress_mbps
                ),
                record_mode=record_mode,
            ),
        )
        for _ in range(num_epochs):
            executor.run_epoch()
        assert executor.verify_record_conservation() == []


class TestArenaOwnershipBetweenEpochs:
    """Between block epochs no executor-held batch aliases an arena.

    Executors keep drained and emitted arena views queued for the rest of
    the block epoch and own what is still queued when it ends; the next
    fill overwrites every row a missed view reads.
    """

    def _block(
        self, setup, num_sources, strategy="All-SP", budget=1.0, **config
    ):
        return MultiSourceExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=fleet(setup, num_sources, strategy, budget=budget),
            cluster_config=MultiSourceConfig(
                config=setup.config, record_mode="arena", **config
            ),
        )

    def _fleet(self, setup, kind):
        if kind == "link_saturated":
            link = StreamProcessorNode(ingress_bandwidth_mbps=0.15)
            return self._block(setup, 3, stream_processor=link)
        if kind == "sp_compute_capped":
            return self._block(setup, 3, sp_compute_share=0.001)
        if kind == "operator_backlog":
            return self._block(setup, 3, "All-Src", budget=0.1)
        if kind == "sharded_migration":
            return ShardedClusterExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=fleet(setup, 4),
                num_blocks=2,
                cluster_config=MultiSourceConfig(
                    config=setup.config,
                    stream_processor=StreamProcessorNode(ingress_bandwidth_mbps=0.1),
                    record_mode="arena",
                ),
            )
        return CoLocatedBlockExecutor(
            [
                QuerySpec(
                    name=name,
                    plan=setup.plan,
                    cost_model=setup.cost_model,
                    sources=fleet(setup, 2, "All-SP", seed=seed, budget=1.0),
                    sp_compute_share=0.5,
                    config=setup.config,
                )
                for name, seed in (("a", 10), ("b", 20))
            ],
            stream_processor=StreamProcessorNode(ingress_bandwidth_mbps=0.2),
            record_mode="arena",
        )

    @pytest.mark.parametrize(
        "kind",
        [
            "link_saturated",
            "sp_compute_capped",
            "operator_backlog",
            "sharded_migration",
            "colocated",
        ],
    )
    def test_no_queued_batch_aliases_the_arena(self, setup, kind):
        executor = self._fleet(setup, kind)
        for epoch in range(8):
            if kind == "sharded_migration" and epoch == 3:
                executor.migrate("source-0", 1 - executor.block_of("source-0"))
            executor.run_epoch()
            assert executor.verify_record_conservation() == [], epoch
        report = executor.record_conservation_report()
        if kind == "colocated":
            report = {
                name: stats
                for per_query in report.values()
                for name, stats in per_query.items()
            }
        # The fleet really keeps records queued across epochs.
        assert sum(
            stats["drain_in_flight_records"] + sum(stats["queued_per_stage"])
            for stats in report.values()
        )

    @pytest.mark.parametrize("kind", ["link_saturated", "sp_compute_capped"])
    def test_queued_batch_keeps_its_epoch_values(self, setup, kind):
        """An All-SP source drains every record as one batch per epoch.
        While that batch waits — in the carryover, shrinking from its head as
        the link ships it, or whole in the SP backlog — the next epoch's
        fill must not change the values it holds."""
        executor = self._fleet(setup, kind)
        # The last source of the fleet: its batch is the SP backlog's tail.
        twin = setup.workload_factory(12)
        held = None
        checked = 0
        for epoch in range(8):
            executor.run_epoch()
            if held is not None:
                item, generated = held
                rows = len(item.records)
                for name in ("dst_ip", "err_code"):
                    assert np.array_equal(
                        item.records.columns[name],
                        generated.columns[name][len(generated) - rows :],
                    ), (epoch, name)
                checked += rows > 0
            generated = twin.batch_for_epoch(epoch)
            if kind == "link_saturated":
                item = executor._sources_by_name["source-2"].carryover[-1]
            else:
                item = [
                    item for name, item in executor._sp_pending if name == "source-2"
                ][-1]
            assert item.stage_index == 0 and len(item.records), epoch
            held = (item, generated)
        assert checked


class TestCrossModeMigrationProperty:
    @given(
        num_sources=st.integers(min_value=2, max_value=4),
        records_per_epoch=st.integers(min_value=5, max_value=40),
        moves=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),  # epoch of the move
                st.integers(min_value=0, max_value=3),  # source index (mod fleet)
            ),
            max_size=3,
        ),
        ingress_mbps=st.sampled_from([0.05, 0.5, 30.0]),
    )
    @settings(max_examples=8, deadline=None)
    def test_modes_identical_under_random_migration_schedules(
        self, num_sources, records_per_epoch, moves, ingress_mbps
    ):
        """Both record modes agree bit-for-bit on every per-source epoch
        metric under a random fleet and a random live-migration schedule, and
        each conserves records throughout."""
        schedule = sorted((epoch, index % num_sources) for epoch, index in moves)
        setup = make_setup("s2s_probe", records_per_epoch=records_per_epoch)
        runs = {}
        for mode in RECORD_MODES:
            executor = ShardedClusterExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=fleet(setup, num_sources, seed=30),
                num_blocks=2,
                cluster_config=MultiSourceConfig(
                    config=setup.config,
                    stream_processor=StreamProcessorNode(
                        ingress_bandwidth_mbps=ingress_mbps
                    ),
                    record_mode=mode,
                ),
            )
            per_epoch = []
            for epoch in range(10):
                for move_epoch, index in schedule:
                    if move_epoch == epoch:
                        name = f"source-{index}"
                        executor.migrate(name, 1 - executor.block_of(name))
                per_epoch.append(executor.run_epoch())
            assert executor.verify_record_conservation() == [], mode
            runs[mode] = per_epoch
        assert runs["object"] == runs["arena"]


class TestEngineSingleHome:
    """The accounting helpers must exist in exactly one module."""

    def test_executors_share_the_engine(self, setup):
        # Enforced AST-accurately by simlint's SL001 (accounting-single-home)
        # so this test and the linter can never disagree: no simulation/
        # module other than engine.py may construct EpochMetrics or
        # EpochObservation, call classify_query_state, re-derive the
        # half-epoch batching-delay term, or redefine the accountant helpers.
        import inspect

        from simlint import lint_source, rules_by_id
        from repro.simulation import engine, executor, multiquery, multisource

        engine_src = inspect.getsource(engine)
        assert "def goodput_bytes" in engine_src
        assert "def finish_source_epoch" in engine_src
        (sl001,) = rules_by_id(["SL001"])
        for module in (executor, multisource, multiquery):
            violations = lint_source(
                inspect.getsource(module),
                display_path=module.__file__,
                module_path="repro/simulation/"
                + module.__name__.rsplit(".", 1)[-1]
                + ".py",
                rules=[sl001],
            )
            assert violations == [], [v.render() for v in violations]

    def test_engine_steps_any_executor_source(self, setup):
        engine = EpochEngine(cost_model=setup.cost_model, config=setup.config)
        engine.add_source(
            name="s",
            workload=setup.workload_factory(1),
            strategy=AllSPStrategy(),
            budget=1.0,
            plan=setup.plan,
        )
        (src,) = engine.step_sources().results
        assert src.records_in == 120
        assert engine.epochs_run == 1
        with pytest.raises(SimulationError):
            engine.ensure_fresh()
