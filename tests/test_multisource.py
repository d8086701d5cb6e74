"""Tests for the true multi-source shared-link executor."""

from __future__ import annotations

import pytest

from repro.baselines import AllSPStrategy, StaticLoadFactorStrategy
from repro.errors import SimulationError
from repro.analysis.experiments import make_setup, make_strategy, run_single_source
from repro.query.builder import Stream
from repro.simulation.cluster import ClusterModel
from repro.simulation.executor import BuildingBlockExecutor, ExecutorConfig
from repro.simulation.metrics import ClusterEpochMetrics, ClusterMetrics, RunMetrics
from repro.simulation.multisource import (
    MultiSourceConfig,
    MultiSourceExecutor,
    SourceSpec,
    homogeneous_sources,
)
from repro.simulation.node import StreamProcessorNode


@pytest.fixture(scope="module")
def setup():
    return make_setup("s2s_probe", records_per_epoch=120)


def build_executor(setup, specs, ingress_mbps=100.0, sp_cores=64, sp_compute_share=1.0):
    return MultiSourceExecutor(
        plan=setup.plan,
        cost_model=setup.cost_model,
        sources=specs,
        cluster_config=MultiSourceConfig(
            config=setup.config,
            stream_processor=StreamProcessorNode(
                cores=sp_cores, ingress_bandwidth_mbps=ingress_mbps
            ),
            sp_compute_share=sp_compute_share,
        ),
    )


def all_sp_specs(setup, num_sources, seed=10):
    return homogeneous_sources(
        num_sources,
        workload_factory=lambda i: setup.workload_factory(seed + i),
        strategy_factory=lambda i: AllSPStrategy(),
        budget=1.0,
    )


class TestConstruction:
    def test_requires_sources(self, setup):
        with pytest.raises(SimulationError):
            build_executor(setup, [])

    def test_rejects_duplicate_names(self, setup):
        specs = all_sp_specs(setup, 2)
        specs[1].name = specs[0].name
        with pytest.raises(SimulationError):
            build_executor(setup, specs)

    def test_rejects_shared_strategy_instance(self, setup):
        shared = AllSPStrategy()
        specs = [
            SourceSpec(name=f"s{i}", workload=setup.workload_factory(i), strategy=shared)
            for i in range(2)
        ]
        with pytest.raises(SimulationError):
            build_executor(setup, specs)

    def test_sp_compute_share_validated(self, setup):
        with pytest.raises(SimulationError):
            MultiSourceConfig(sp_compute_share=0.0)

    @pytest.mark.parametrize("record_mode", ["object", "arena"])
    def test_rejects_stream_processor_only_operators(self, setup, record_mode):
        """Rule R-1 keeps an exact-quantile G+R on the SP.  The source runs
        only the Window and Filter, and every executor takes their output as
        final, so the G+R would never run and never be charged CPU; building
        an executor for such a plan must fail, naming the SP-only stage."""
        plan = (
            Stream("sp_only_tail")
            .window(10.0)
            .filter(lambda r: r.err_code == 0, column_equals=("err_code", 0))
            .group_apply(
                lambda r: (r.src_ip, r.dst_ip), key_columns=("src_ip", "dst_ip")
            )
            .aggregate("quantile:rtt")
            .build()
            .physical_plan()
        )
        assert [stage.operator.name for stage in plan.remote_only_stages()] == [
            "group_aggregate"
        ]
        specs = [
            SourceSpec(
                name=f"s{i}",
                workload=setup.workload_factory(i),
                strategy=StaticLoadFactorStrategy([1.0, 1.0, 1.0]),
            )
            for i in range(2)
        ]
        with pytest.raises(SimulationError, match="group_aggregate"):
            MultiSourceExecutor(
                plan=plan,
                cost_model=setup.cost_model,
                sources=specs,
                cluster_config=MultiSourceConfig(
                    config=setup.config,
                    stream_processor=StreamProcessorNode(
                        ingress_bandwidth_mbps=1000.0
                    ),
                    record_mode=record_mode,
                ),
            )
        with pytest.raises(SimulationError, match="group_aggregate"):
            BuildingBlockExecutor(
                plan,
                setup.workload_factory(0),
                setup.cost_model,
                StaticLoadFactorStrategy([1.0, 1.0, 1.0]),
                1.0,
                ExecutorConfig(config=setup.config, record_mode=record_mode),
            )


class TestFairShareArbitration:
    def test_saturated_sources_each_get_fair_share(self, setup):
        """Equal contenders on a saturated link split it evenly."""
        num_sources = 3
        specs = all_sp_specs(setup, num_sources)
        # All-SP drains every record: per-source demand is the full input
        # (plus drain headers).  Size the link at ~1.5x one source's demand so
        # all three sources are permanently backlogged.
        per_source_demand = setup.input_rate_mbps * 1.2
        ingress = 1.5 * per_source_demand
        executor = build_executor(setup, specs, ingress_mbps=ingress)
        metrics = executor.run(20, warmup_epochs=5)

        fair_bytes = ingress / num_sources * 1e6 / 8.0  # bytes per 1s epoch
        for name, run in metrics.per_source.items():
            sent = [em.network_bytes_sent for em in run.measured_epochs()]
            mean_sent = sum(sent) / len(sent)
            # Record granularity keeps each epoch within a record of the share.
            assert mean_sent == pytest.approx(fair_bytes, rel=0.05), name

    def test_light_source_is_not_throttled(self, setup):
        """Max-min: an under-demand source keeps its demand; heavies split the rest."""
        light = SourceSpec(
            name="light",
            workload=setup.workload_factory(1),
            # Full local processing: only partial state / emitted bytes drain.
            strategy=StaticLoadFactorStrategy([1.0, 1.0, 1.0], name="light"),
            budget=1.0,
        )
        heavies = [
            SourceSpec(
                name=f"heavy-{i}",
                workload=setup.workload_factory(2 + i),
                strategy=AllSPStrategy(),
                budget=1.0,
            )
            for i in range(2)
        ]
        ingress = setup.input_rate_mbps * 1.4  # not enough for both heavies
        executor = build_executor(setup, [light] + heavies, ingress_mbps=ingress)
        metrics = executor.run(16, warmup_epochs=4)

        # The light source's average demand fits its fair share: its
        # window-boundary partial-state burst drains back to (near) zero
        # within the run instead of accumulating.  The heavies' backlogs only
        # ever grow, and max-min treats them identically.
        light_queues = [
            em.network_queue_bytes for em in metrics.per_source["light"].epochs
        ]
        assert light_queues[-1] < 0.2 * max(light_queues)
        for i in range(2):
            heavy_queues = [
                em.network_queue_bytes
                for em in metrics.per_source[f"heavy-{i}"].epochs
            ]
            assert heavy_queues[-1] == max(heavy_queues)
            assert heavy_queues[-1] > max(light_queues)
        # Both heavies stay saturated and get equal treatment.
        heavy_sent = [
            sum(em.network_bytes_sent for em in metrics.per_source[f"heavy-{i}"].measured_epochs())
            for i in range(2)
        ]
        assert heavy_sent[0] == pytest.approx(heavy_sent[1], rel=0.05)

    def test_total_sent_never_exceeds_capacity(self, setup):
        specs = all_sp_specs(setup, 4)
        ingress = setup.input_rate_mbps  # far below 4 sources' demand
        executor = build_executor(setup, specs, ingress_mbps=ingress)
        metrics = executor.run(12, warmup_epochs=0)
        capacity_bytes = ingress * 1e6 / 8.0
        for em in metrics.cluster_epochs:
            assert em.network_sent_bytes <= capacity_bytes + 1e-6


class TestRecordConservation:
    def test_uncongested_run_conserves_records(self, setup):
        specs = all_sp_specs(setup, 3)
        executor = build_executor(setup, specs, ingress_mbps=1000.0)
        executor.run(15, warmup_epochs=0)
        assert executor.verify_record_conservation() == []

    def test_congested_run_conserves_records(self, setup):
        """Relief fires repeatedly (partial and full overflow): no dup/loss."""
        specs = homogeneous_sources(
            3,
            workload_factory=lambda i: setup.workload_factory(30 + i),
            strategy_factory=lambda i: StaticLoadFactorStrategy(
                [1.0, 1.0, 1.0], name=f"static-{i}"
            ),
            budget=0.15,  # starved: backlog builds, relief drains overflow
        )
        executor = build_executor(setup, specs, ingress_mbps=0.2)
        executor.run(25, warmup_epochs=0)
        report = executor.record_conservation_report()
        assert executor.verify_record_conservation() == []
        # The scenario exercised the congestion-relief path.
        assert any(
            sum(stats["queue_drained_per_stage"]) > 0 for stats in report.values()
        )

    def test_adaptive_strategy_run_conserves_records(self, setup):
        specs = homogeneous_sources(
            2,
            workload_factory=lambda i: setup.workload_factory(60 + i),
            strategy_factory=lambda i: make_strategy("Jarvis", setup, 0.4),
            budget=0.4,
        )
        executor = build_executor(setup, specs, ingress_mbps=50.0)
        executor.run(20, warmup_epochs=0)
        assert executor.verify_record_conservation() == []


class _SilentWorkload:
    """A registered source that never produces records (zero demand)."""

    def records_for_epoch(self, epoch):
        return []


class TestPartialRecordShipping:
    def test_sp_items_only_contain_completed_record_bytes(self, setup):
        """Regression: a mid-record link exhaustion must not ship the partial
        head record's bytes to the SP backlog item."""
        from repro.query.records import record_size_bytes

        specs = all_sp_specs(setup, 2)
        # ~1.5 records of link capacity per epoch shared by two saturated
        # sources: allocations routinely die mid-record, and a starved SP
        # parks the shipped items so their recorded sizes stay inspectable.
        record_bytes = 86.0 + 16.0  # payload + drain header, roughly
        ingress = 1.5 * record_bytes * 8.0 / 1e6
        executor = build_executor(
            setup, specs, ingress_mbps=ingress, sp_compute_share=0.0001
        )
        checked = 0
        for _ in range(10):
            executor.run_epoch()
            for _, item in executor._sp_pending:
                if item.stage_index >= 0:
                    checked += 1
                    assert item.size_bytes == pytest.approx(
                        record_size_bytes(item.records, drain=True)
                    )
            assert executor.verify_record_conservation() == []
        assert checked > 0  # the scenario really parked record batches

    def test_partial_progress_stays_in_source_carryover(self, setup):
        """With less than one record of capacity, nothing reaches the SP and
        the crossed bytes remain accounted in the source's carryover."""
        specs = all_sp_specs(setup, 1)
        ingress = 0.0005  # 62.5 bytes/epoch, below one drained record
        executor = build_executor(setup, specs, ingress_mbps=ingress)
        metrics = executor.run_epoch()
        assert executor.sp_backlog_records() == 0
        (em,) = metrics.values()
        # The carryover queue still counts every enqueued byte: the sliver
        # that crossed the link belongs to an incomplete record.
        assert em.network_queue_bytes == pytest.approx(em.network_bytes_offered)
        assert em.network_bytes_sent == pytest.approx(62.5)
        assert executor.verify_record_conservation() == []

    def test_in_flight_progress_is_not_demanded_again(self, setup):
        """Regression: a head item's already-crossed bytes stay out of the
        fair-share demand, so the allocator never strands link capacity a
        backlogged peer could use."""
        from repro.query.records import record_size_bytes
        from repro.simulation.multisource import _TransferItem

        specs = [
            SourceSpec(
                name=f"quiet-{i}",
                workload=_SilentWorkload(),
                strategy=StaticLoadFactorStrategy(
                    [1.0, 1.0, 1.0], name=f"quiet-{i}"
                ),
                budget=1.0,
            )
            for i in range(2)
        ]
        capacity = 100.0  # bytes per epoch
        executor = build_executor(
            setup, specs, ingress_mbps=capacity * 8.0 / 1e6
        )
        records = setup.workload_factory(99).records_for_epoch(0)
        record = records[0]
        record_bytes = float(record_size_bytes([record], drain=True))

        # Source 0: one record nearly across the link (10 bytes remaining).
        # Source 1: a deep backlog.  With the in-flight progress re-demanded,
        # max-min would grant [50, 50] and waste 40 bytes of capacity.
        light, heavy = executor._sources
        light.carryover.append(
            _TransferItem(
                stage_index=0,
                records=[record],
                size_bytes=record_bytes,
                progress_bytes=record_bytes - 10.0,
            )
        )
        light.carryover_bytes = record_bytes
        heavy_batch = list(records[1:41])
        heavy_bytes = float(record_size_bytes(heavy_batch, drain=True))
        heavy.carryover.append(
            _TransferItem(stage_index=0, records=heavy_batch, size_bytes=heavy_bytes)
        )
        heavy.carryover_bytes = heavy_bytes
        executor.link.offer(10.0 + heavy_bytes)  # bytes still to cross

        executor.run_epoch()
        assert executor._last_cluster_epoch.network_sent_bytes == pytest.approx(
            capacity
        )

    def test_forced_mid_record_exhaustion_conserves_records(self, setup):
        """Property: conservation holds across many epochs of tiny allocations
        (records take several epochs to cross, one completes at a time)."""
        specs = all_sp_specs(setup, 2, seed=40)
        executor = build_executor(setup, specs, ingress_mbps=0.002)
        for _ in range(25):
            executor.run_epoch()
            assert executor.verify_record_conservation() == []
        assert executor.sp_backlog_records() >= 0


class TestFreeItemsNeverBlock:
    def test_free_items_drain_past_capped_batches(self, setup):
        """Regression: state merges / final records queued behind record
        batches parked at the SP compute cap must still drain this epoch."""
        heavies = [
            SourceSpec(
                name=f"heavy-{i}",
                workload=setup.workload_factory(1 + i),
                strategy=AllSPStrategy(),
                budget=1.0,
            )
            for i in range(2)
        ]
        local = SourceSpec(
            name="local",
            workload=setup.workload_factory(3),
            strategy=StaticLoadFactorStrategy([1.0, 1.0, 1.0], name="local"),
            budget=1.0,
        )
        executor = MultiSourceExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=heavies + [local],
            cluster_config=MultiSourceConfig(
                config=setup.config,
                stream_processor=StreamProcessorNode(ingress_bandwidth_mbps=1000.0),
                sp_compute_share=0.0001,  # batches park at the compute cap
            ),
        )
        saw_backlog = False
        for _ in range(25):
            executor.run_epoch()
            # Only record batches may remain parked; every free item (-1/-2)
            # shipped this epoch must have been drained despite the cap.
            assert all(
                item.stage_index >= 0 for _, item in executor._sp_pending
            )
            assert len(executor._sp_free) == 0
            saw_backlog = saw_backlog or executor.sp_backlog_records() > 0
        assert saw_backlog
        assert executor.verify_record_conservation() == []


class TestZeroByteItems:
    def test_zero_byte_state_item_ships_without_allocation(self, setup):
        """Regression: a zero-byte transfer item at the carryover head of a
        source with no byte demand (fair share grants it 0 bytes) must still
        be delivered — pre-fix it parked forever and blocked the queue."""
        from repro.simulation.multisource import _TransferItem

        spec = SourceSpec(
            name="quiet",
            workload=_SilentWorkload(),
            strategy=StaticLoadFactorStrategy([1.0, 1.0, 1.0], name="quiet"),
            budget=1.0,
        )
        executor = build_executor(setup, [spec], ingress_mbps=100.0)
        runtime = executor._sources[0]
        # The scenario behind the bug: partial_state_bytes == 0 with a
        # non-empty partial_states map enqueues a size-0 state item.
        runtime.carryover.append(
            _TransferItem(stage_index=-2, state=None, state_stage=0, size_bytes=0.0)
        )
        for _ in range(3):
            executor.run_epoch()
        assert not runtime.carryover
        assert len(executor._sp_free) == 0

    def test_zero_byte_head_does_not_block_real_data(self, setup):
        """A zero-byte head item followed by a real batch: both ship in the
        epoch their bytes fit, with conservation intact."""
        from repro.query.records import record_size_bytes
        from repro.simulation.multisource import _TransferItem

        spec = SourceSpec(
            name="quiet",
            workload=_SilentWorkload(),
            strategy=StaticLoadFactorStrategy([1.0, 1.0, 1.0], name="quiet"),
            budget=1.0,
        )
        executor = build_executor(setup, [spec], ingress_mbps=100.0)
        runtime = executor._sources[0]
        records = setup.workload_factory(7).records_for_epoch(0)[:3]
        batch_bytes = float(record_size_bytes(records, drain=True))
        runtime.carryover.append(
            _TransferItem(stage_index=-2, state=None, state_stage=0, size_bytes=0.0)
        )
        runtime.carryover.append(
            _TransferItem(stage_index=0, records=list(records), size_bytes=batch_bytes)
        )
        runtime.carryover_bytes = batch_bytes
        runtime.drained_records += len(records)
        executor.link.offer(batch_bytes)
        executor.run_epoch()
        assert not runtime.carryover
        assert runtime.sp_processed_records == len(records)
        assert executor.verify_record_conservation() == []


class TestNetworkDelayAccounting:
    def test_network_delay_counts_only_uncrossed_bytes(self, setup):
        """Regression: the latency estimate must exclude the head item's
        already-crossed progress bytes, mirroring the demand-side fix."""
        from repro.simulation.multisource import _TransferItem

        spec = SourceSpec(
            name="quiet",
            workload=_SilentWorkload(),
            strategy=StaticLoadFactorStrategy([1.0, 1.0, 1.0], name="quiet"),
            budget=1.0,
        )
        capacity = 100.0  # bytes per epoch
        executor = build_executor(setup, [spec], ingress_mbps=capacity * 8.0 / 1e6)
        runtime = executor._sources[0]
        blob_bytes = 1000.0
        runtime.carryover.append(
            _TransferItem(
                stage_index=-2, state=None, state_stage=0, size_bytes=blob_bytes
            )
        )
        runtime.carryover_bytes = blob_bytes
        executor.link.offer(blob_bytes)

        metrics = executor.run_epoch()
        em = metrics["quiet"]
        # One epoch moved `capacity` bytes of the blob; the full blob stays
        # in carryover_bytes (it only completes when all bytes cross) but
        # only the uncrossed remainder contributes transfer delay.
        assert em.network_bytes_sent == pytest.approx(capacity)
        assert em.network_queue_bytes == pytest.approx(blob_bytes)
        epoch_s = setup.config.epoch.duration_s
        rate = executor.link.bytes_per_second
        expected = 0.5 * epoch_s + (blob_bytes - capacity) / rate
        buggy = 0.5 * epoch_s + blob_bytes / rate
        assert em.latency_s == pytest.approx(expected)
        assert em.latency_s != pytest.approx(buggy)


class TestRunReuseGuard:
    def test_run_twice_raises(self, setup):
        executor = build_executor(setup, all_sp_specs(setup, 1))
        executor.run(3, warmup_epochs=0)
        with pytest.raises(SimulationError, match="fresh executor"):
            executor.run(3, warmup_epochs=0)

    def test_run_after_run_epoch_raises(self, setup):
        executor = build_executor(setup, all_sp_specs(setup, 1))
        executor.run_epoch()
        with pytest.raises(SimulationError, match="fresh executor"):
            executor.run(3, warmup_epochs=0)

    def test_run_epoch_stepping_stays_allowed(self, setup):
        """Lockstep drivers may keep calling run_epoch; only run() is guarded."""
        executor = build_executor(setup, all_sp_specs(setup, 1))
        for _ in range(3):
            executor.run_epoch()
        assert executor.epochs_run == 3


class TestContentionAwareFairRate:
    def test_idle_sources_do_not_inflate_latency(self, setup):
        """Regression: the network-delay estimate divides the link among the
        sources that contended this epoch, not the whole registered fleet."""
        active = SourceSpec(
            name="active",
            workload=setup.workload_factory(3),
            strategy=AllSPStrategy(),
            budget=1.0,
        )
        idle = [
            SourceSpec(
                name=f"idle-{i}",
                workload=_SilentWorkload(),
                strategy=StaticLoadFactorStrategy([1.0, 1.0, 1.0], name=f"idle-{i}"),
                budget=1.0,
            )
            for i in range(3)
        ]
        ingress = 0.5 * setup.input_rate_mbps  # active source saturates alone
        executor = build_executor(setup, [active] + idle, ingress_mbps=ingress)
        epoch_s = setup.config.epoch.duration_s
        for _ in range(5):
            metrics = executor.run_epoch()
        em = metrics["active"]
        assert executor.sp_backlog_records() == 0  # ample SP compute
        # All-SP drains at the proxy: no source backlog, no SP backlog — the
        # latency is exactly batching delay plus draining the still-to-cross
        # carryover bytes at the full link rate (one contender), not at a 1/4
        # fleet share and not re-counting the head item's crossed progress.
        active = executor._sources_by_name["active"]
        expected = 0.5 * epoch_s + executor._remaining_demand(active) / (
            executor.link.bytes_per_second
        )
        assert em.latency_s == pytest.approx(expected)


class TestAnalyticAgreement:
    def test_matches_cluster_model_below_knee(self, setup):
        """Acceptance: N identical sources within 10% of ClusterModel.scale()."""
        num_sources = 3
        budget = 0.5
        sp_node = StreamProcessorNode(ingress_bandwidth_mbps=100.0)

        per_source = run_single_source(
            setup,
            "Best-OP",
            budget,
            num_epochs=20,
            warmup_epochs=6,
            bandwidth_mbps=4.0 * setup.input_rate_mbps,
        )
        analytic = ClusterModel(
            sp_node, epoch_duration_s=setup.config.epoch.duration_s
        ).scale(per_source, num_sources)
        assert not analytic.saturated  # below the knee by construction

        specs = homogeneous_sources(
            num_sources,
            workload_factory=lambda i: setup.workload_factory(1 + i),
            strategy_factory=lambda i: make_strategy("Best-OP", setup, budget),
            budget=budget,
        )
        executor = MultiSourceExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=specs,
            cluster_config=MultiSourceConfig(
                config=setup.config, stream_processor=sp_node
            ),
        )
        simulated = executor.run(20, warmup_epochs=6)

        assert simulated.aggregate_throughput_mbps() == pytest.approx(
            analytic.aggregate_throughput_mbps, rel=0.10
        )

    def test_sp_compute_saturation_degrades_goodput(self, setup):
        """A compute-bound SP must show up in goodput, not just in backlog."""
        specs = all_sp_specs(setup, 2)
        executor = MultiSourceExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=specs,
            cluster_config=MultiSourceConfig(
                config=setup.config,
                stream_processor=StreamProcessorNode(ingress_bandwidth_mbps=1000.0),
                sp_compute_share=0.0001,  # the link is ample; compute is not
            ),
        )
        metrics = executor.run(15, warmup_epochs=3)
        assert executor.sp_backlog_records() > 0
        assert (
            metrics.aggregate_throughput_mbps()
            <= 0.6 * metrics.aggregate_offered_mbps()
        )
        assert executor.verify_record_conservation() == []

    def test_contention_degrades_throughput_vs_analytic_expectation(self, setup):
        """Above the knee the simulated aggregate falls below N x offered."""
        specs = all_sp_specs(setup, 5)
        executor = build_executor(setup, specs, ingress_mbps=setup.input_rate_mbps)
        metrics = executor.run(16, warmup_epochs=4)
        assert (
            metrics.aggregate_throughput_mbps()
            < 0.9 * metrics.aggregate_offered_mbps()
        )
        assert metrics.network_utilization() > 0.9


class TestHeterogeneousSources:
    def test_per_source_budgets_yield_per_source_throughput(self, setup):
        rich = SourceSpec(
            name="rich",
            workload=setup.workload_factory(5),
            strategy=StaticLoadFactorStrategy([1.0, 1.0, 1.0], name="rich"),
            budget=1.0,
        )
        poor = SourceSpec(
            name="poor",
            workload=setup.workload_factory(6),
            strategy=StaticLoadFactorStrategy([1.0, 1.0, 1.0], name="poor"),
            budget=0.1,
        )
        executor = build_executor(setup, [rich, poor], ingress_mbps=0.5)
        metrics = executor.run(20, warmup_epochs=5)
        assert (
            metrics.per_source["rich"].throughput_mbps()
            > metrics.per_source["poor"].throughput_mbps()
        )

    def test_budget_schedules_are_per_source(self, setup):
        from repro.simulation.node import BudgetSchedule

        stepped = SourceSpec(
            name="stepped",
            workload=setup.workload_factory(7),
            strategy=StaticLoadFactorStrategy([1.0, 1.0, 1.0], name="stepped"),
            budget=BudgetSchedule([(0, 0.1), (5, 1.0)]),
        )
        flat = SourceSpec(
            name="flat",
            workload=setup.workload_factory(8),
            strategy=StaticLoadFactorStrategy([1.0, 1.0, 1.0], name="flat"),
            budget=1.0,
        )
        executor = build_executor(setup, [stepped, flat], ingress_mbps=100.0)
        metrics = executor.run(10, warmup_epochs=0)
        stepped_epochs = metrics.per_source["stepped"].epochs
        assert stepped_epochs[0].cpu_budget_seconds == pytest.approx(0.1)
        assert stepped_epochs[6].cpu_budget_seconds == pytest.approx(1.0)


class TestClusterMetrics:
    def make_run(self, latency=1.0):
        run = RunMetrics(epoch_duration_s=1.0)
        from repro.simulation.metrics import EpochMetrics

        for epoch in range(4):
            run.record(
                EpochMetrics(
                    epoch=epoch,
                    input_bytes=1000.0,
                    goodput_bytes=800.0,
                    network_bytes_offered=100.0,
                    network_bytes_sent=100.0,
                    network_queue_bytes=0.0,
                    cpu_used_seconds=0.5,
                    cpu_budget_seconds=1.0,
                    sp_cpu_seconds=0.1,
                    source_backlog_records=0,
                    latency_s=latency,
                )
            )
        return run

    def make_cluster(self):
        cluster = ClusterMetrics(epoch_duration_s=1.0)
        cluster.register_source("a", self.make_run(latency=1.0))
        cluster.register_source("b", self.make_run(latency=3.0))
        for epoch in range(4):
            cluster.record_cluster_epoch(
                ClusterEpochMetrics(
                    epoch=epoch,
                    network_offered_bytes=200.0,
                    network_sent_bytes=150.0,
                    network_queued_bytes=50.0,
                    network_capacity_bytes=300.0,
                    sp_cpu_used_seconds=0.2,
                    sp_cpu_capacity_seconds=1.0,
                    sp_backlog_records=5,
                )
            )
        return cluster

    def test_aggregates_sum_per_source(self):
        cluster = self.make_cluster()
        assert cluster.num_sources == 2
        single = self.make_run().throughput_mbps()
        assert cluster.aggregate_throughput_mbps() == pytest.approx(2 * single)

    def test_shared_resource_utilisation(self):
        cluster = self.make_cluster()
        assert cluster.network_utilization() == pytest.approx(0.5)
        assert cluster.sp_cpu_utilization() == pytest.approx(0.2)

    def test_latency_distribution(self):
        cluster = self.make_cluster()
        assert cluster.median_latency_s() == pytest.approx(2.0)
        assert cluster.max_latency_s() == pytest.approx(3.0)
        assert cluster.latency_percentile_s(1.0) == pytest.approx(3.0)

    def test_duplicate_source_rejected(self):
        cluster = self.make_cluster()
        with pytest.raises(SimulationError):
            cluster.register_source("a", self.make_run())

    def test_summary_fields(self):
        summary = self.make_cluster().summary()
        for key in (
            "num_sources",
            "aggregate_throughput_mbps",
            "network_utilization",
            "sp_cpu_utilization",
            "median_latency_s",
            "p95_latency_s",
            "max_latency_s",
        ):
            assert key in summary
