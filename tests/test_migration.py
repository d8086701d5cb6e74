"""Tests for dynamic re-placement: live source migration between blocks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import HotspotWorkload, make_setup
from repro.baselines import AllSPStrategy
from repro.errors import SimulationError
from repro.scenarios import ScenarioRunner, spec_from_dict
from repro.simulation.metrics import ClusterEpochMetrics
from repro.simulation.multisource import MultiSourceConfig, homogeneous_sources
from repro.simulation.node import StreamProcessorNode
from repro.simulation.sharding import (
    NeverMigrate,
    SaturationMigrationPolicy,
    ShardedClusterExecutor,
)


@pytest.fixture(scope="module")
def setup():
    return make_setup("s2s_probe", records_per_epoch=120)


def fleet(setup, num_sources, seed=10, budget=1.0):
    return homogeneous_sources(
        num_sources,
        workload_factory=lambda i: setup.workload_factory(seed + i),
        strategy_factory=lambda i: AllSPStrategy(),
        budget=budget,
    )


def build(setup, num_sources=4, num_blocks=2, ingress_mbps=0.5,
          record_mode="object", migration=None, seed=10, placement="round_robin"):
    return ShardedClusterExecutor(
        plan=setup.plan,
        cost_model=setup.cost_model,
        sources=fleet(setup, num_sources, seed=seed),
        num_blocks=num_blocks,
        placement=placement,
        cluster_config=MultiSourceConfig(
            config=setup.config,
            stream_processor=StreamProcessorNode(ingress_bandwidth_mbps=ingress_mbps),
            record_mode=record_mode,
        ),
        migration=migration,
    )


def link_queues_consistent(executor):
    """Every block's link queue equals its sources' remaining demand."""
    for block in executor.blocks:
        demand = sum(block._remaining_demand(s) for s in block._sources)
        if abs(demand - block.link.queued_bytes) > 1e-3:
            return False
    return True


def cluster_epoch(epoch=0, sent=80.0, queued=0.0, capacity=100.0, backlog=0):
    return ClusterEpochMetrics(
        epoch=epoch,
        network_offered_bytes=sent,
        network_sent_bytes=sent,
        network_queued_bytes=queued,
        network_capacity_bytes=capacity,
        sp_cpu_used_seconds=0.0,
        sp_cpu_capacity_seconds=1.0,
        sp_backlog_records=backlog,
    )


class TestMigrationMechanics:
    @pytest.mark.parametrize("record_mode", ["object", "arena"])
    def test_migrate_conserves_records_and_link_queues(self, setup, record_mode):
        """The handoff moves queued bytes between links and keeps every
        record accounted for, on a link tight enough that carryover queues,
        partial-transfer progress, and SP backlogs are all non-empty."""
        executor = build(setup, ingress_mbps=0.05, record_mode=record_mode)
        for _ in range(5):
            executor.run_epoch()
        queued_before = executor.blocks[0].link.queued_bytes
        assert queued_before > 0
        event = executor.migrate("source-0", 1)
        assert event.moved_bytes > 0
        assert event.in_flight_records > 0
        assert executor.assignment()["source-0"] == 1
        assert link_queues_consistent(executor)
        assert executor.verify_record_conservation() == []
        for _ in range(6):
            executor.run_epoch()
        assert executor.verify_record_conservation() == []
        assert link_queues_consistent(executor)

    def test_migrated_source_timeline_is_continuous(self, setup):
        """The source keeps producing per-epoch metrics under its own name
        across the move — one continuous timeline, no gap, no rename."""
        executor = build(setup)
        seen = []
        for epoch in range(6):
            if epoch == 3:
                executor.migrate("source-0", 1)
            metrics = executor.run_epoch()
            assert "source-0" in metrics
            seen.append(metrics["source-0"].epoch)
        assert seen == list(range(6))

    def test_migration_drains_block_and_block_keeps_stepping(self, setup):
        """Regression companion to the empty-block fix: migrating every
        source off a block leaves it stepping zero-byte epochs with its
        capacity still in the merge."""
        executor = build(setup, num_sources=4, num_blocks=2)
        executor.run_epoch()
        for name, block in executor.assignment().items():
            if block == 0:
                executor.migrate(name, 1)
        assert executor.blocks[0].num_sources == 0
        for _ in range(3):
            executor.run_epoch()
        assert executor.verify_record_conservation() == []
        merged = executor._last_cluster_epoch
        single = executor.blocks[0].link.capacity_bytes_per_epoch
        assert merged.network_capacity_bytes == pytest.approx(2 * single)

    def test_migrate_validations(self, setup):
        executor = build(setup)
        with pytest.raises(SimulationError, match="unknown source"):
            executor.migrate("nope", 1)
        with pytest.raises(SimulationError, match="only"):
            executor.migrate("source-0", 5)
        with pytest.raises(SimulationError, match="already on block"):
            executor.migrate("source-0", executor.block_of("source-0"))

    def test_attach_rejects_misaligned_blocks(self, setup):
        """Blocks must be step-aligned: attaching a source detached at a
        different epoch count would tear its timeline."""
        executor = build(setup)
        executor.run_epoch()
        handoff = executor.blocks[0].detach_source("source-0")
        other = build(setup, seed=50)  # fresh: zero epochs stepped
        with pytest.raises(SimulationError, match="lockstep"):
            other.blocks[0].attach_source(handoff)

    def test_attach_rejects_record_mode_mismatch(self, setup):
        executor = build(setup, record_mode="object")
        handoff = executor.blocks[0].detach_source("source-0")
        other = build(setup, seed=50, record_mode="arena")
        with pytest.raises(SimulationError, match="record mode"):
            other.blocks[0].attach_source(handoff)

    def test_attach_rejects_duplicate_source(self, setup):
        executor = build(setup)
        handoff = executor.blocks[0].detach_source("source-0")
        other = build(setup)  # same source names
        with pytest.raises(SimulationError, match="already registered"):
            other.blocks[0].attach_source(handoff)

    def test_detach_unknown_source_rejected(self, setup):
        executor = build(setup)
        with pytest.raises(SimulationError, match="unknown source"):
            executor.blocks[0].detach_source("source-1")  # lives on block 1


class TestDisabledMigrationEquivalence:
    @pytest.mark.parametrize("record_mode", ["object", "arena"])
    def test_never_migrating_run_matches_static_run_exactly(self, setup, record_mode):
        """Acceptance: with migration disabled (or a policy that never
        moves), the sharded executor's output is bit-identical to the
        static per-block-completion path."""
        static = build(setup, ingress_mbps=0.2, record_mode=record_mode)
        dynamic = build(
            setup, ingress_mbps=0.2, record_mode=record_mode,
            migration=NeverMigrate(),
        )
        a = static.run(12, warmup_epochs=3)
        b = dynamic.run(12, warmup_epochs=3)
        assert b.summary() == a.summary()
        assert sorted(b.source_names()) == sorted(a.source_names())
        for name in a.source_names():
            assert b.per_source[name].epochs == a.per_source[name].epochs
        for mine, theirs in zip(b.cluster_epochs, a.cluster_epochs):
            assert mine == theirs
        assert b.num_migrations() == 0
        timeline = b.placement_timeline()
        assert len(timeline) == 12
        assert all(snapshot == dynamic.assignment() for snapshot in timeline)


class TestSaturationPolicy:
    def test_hysteresis_requires_consecutive_saturation(self):
        policy = SaturationMigrationPolicy(hot_epochs=2, cooldown_epochs=0)
        assignment = {"a": 0, "b": 1}
        offered = {"a": 30.0, "b": 10.0}
        hot = cluster_epoch(sent=100.0, queued=50.0)   # pressure 1.5
        cold = cluster_epoch(sent=10.0)                # pressure 0.1
        calm = cluster_epoch(sent=50.0)                # pressure 0.5
        # One saturated epoch: streak too short, no move.
        assert policy.decide(1, [hot, cold], assignment, offered) == []
        # The streak resets when the block cools down.
        assert policy.decide(2, [calm, cold], assignment, offered) == []
        assert policy.decide(3, [hot, cold], assignment, offered) == []
        # Two consecutive saturated epochs: the move fires.
        decisions = policy.decide(4, [hot, cold], assignment, offered)
        assert [ (d.source, d.from_block, d.to_block) for d in decisions ] == [
            ("a", 0, 1)
        ]

    def test_cooldown_freezes_migrated_source(self):
        policy = SaturationMigrationPolicy(hot_epochs=1, cooldown_epochs=10)
        hot = cluster_epoch(sent=100.0, queued=50.0)
        cold = cluster_epoch(sent=10.0)
        decisions = policy.decide(1, [hot, cold], {"a": 0}, {"a": 30.0})
        assert len(decisions) == 1
        # Still on the hot block (the executor normally applies the move;
        # here it did not), but frozen: no decision until the cooldown ends.
        assert policy.decide(2, [hot, cold], {"a": 0}, {"a": 30.0}) == []

    def test_no_move_without_a_target_that_fits(self):
        policy = SaturationMigrationPolicy(
            hot_epochs=1, cooldown_epochs=0, relief_pressure=0.5
        )
        hot = cluster_epoch(sent=100.0, queued=50.0)
        busy = cluster_epoch(sent=45.0)  # 0.45 + 120/100 would blow past 0.5
        assert policy.decide(1, [hot, busy], {"a": 0, "b": 1}, {"a": 120.0, "b": 45.0}) == []

    def test_heaviest_movable_source_moves_first(self):
        policy = SaturationMigrationPolicy(
            hot_epochs=1, cooldown_epochs=0, rate_smoothing=1.0
        )
        hot = cluster_epoch(sent=100.0, queued=100.0, capacity=100.0)
        cold = cluster_epoch(sent=0.0, capacity=10_000.0)
        assignment = {"small": 0, "big": 0, "other": 1}
        offered = {"small": 10.0, "big": 90.0, "other": 0.0}
        decisions = policy.decide(1, [hot, cold], assignment, offered)
        assert decisions[0].source == "big"

    def test_multiple_moves_account_for_each_other(self):
        """Regression: with max_moves_per_epoch > 1, the second decision
        must project against post-first-move pressures — two hot blocks must
        not both dump their heaviest source onto one target past
        relief_pressure on stale numbers."""
        policy = SaturationMigrationPolicy(
            hot_epochs=1, cooldown_epochs=0, max_moves_per_epoch=2,
            relief_pressure=0.85, rate_smoothing=1.0,
        )
        hot_a = cluster_epoch(sent=100.0, queued=50.0)  # pressure 1.5
        hot_b = cluster_epoch(sent=100.0, queued=40.0)  # pressure 1.4
        cold = cluster_epoch(sent=40.0)                 # pressure 0.4
        assignment = {"a": 0, "b": 1, "c": 2}
        offered = {"a": 40.0, "b": 40.0, "c": 0.0}
        decisions = policy.decide(1, [hot_a, hot_b, cold], assignment, offered)
        # First move fits (0.4 + 0.4 = 0.8 <= 0.85); the second would project
        # 0.8 + 0.4 = 1.2 on the updated pressures and must be refused.
        assert [(d.source, d.to_block) for d in decisions] == [("a", 2)]

    def test_sp_backlog_threshold_triggers(self):
        policy = SaturationMigrationPolicy(
            hot_epochs=1, cooldown_epochs=0, sp_backlog_records=100
        )
        compute_bound = cluster_epoch(sent=10.0, backlog=500)  # link is fine
        cold = cluster_epoch(sent=10.0)
        decisions = policy.decide(1, [compute_bound, cold], {"a": 0}, {"a": 10.0})
        assert len(decisions) == 1

    def test_knob_validation(self):
        with pytest.raises(SimulationError):
            SaturationMigrationPolicy(relief_pressure=1.2, saturation_pressure=1.0)
        with pytest.raises(SimulationError):
            SaturationMigrationPolicy(hot_epochs=0)
        with pytest.raises(SimulationError):
            SaturationMigrationPolicy(cooldown_epochs=-1)
        with pytest.raises(SimulationError):
            SaturationMigrationPolicy(max_moves_per_epoch=0)
        with pytest.raises(SimulationError):
            SaturationMigrationPolicy(rate_smoothing=0.0)


def hotspot_run(record_mode, epochs, shift_epoch):
    """The mid-run hotspot scenario: 16 All-SP sources on 2 blocks at full
    budget, block 0's sources doubling their rate at ``shift_epoch``."""
    spec = spec_from_dict(
        {
            "scenario": {"name": "hotspot", "kind": "dynamic_replacement"},
            "run": {"epochs": epochs, "record_mode": record_mode},
            "workload": {
                "records_per_epoch": 120,
                "hotspot": {"shift_epoch": shift_epoch},
            },
            "fleet": {"sources": 16, "strategy": "All-SP", "budget": 1.0},
            "tiling": {"blocks": 2},
        }
    )
    return ScenarioRunner().run(spec).raw


class TestHotspotRecovery:
    @pytest.mark.parametrize("record_mode", ["object", "arena"])
    def test_dynamic_recovers_half_the_goodput_gap(self, record_mode):
        """Acceptance: on the mid-run hotspot scenario, dynamic re-placement
        recovers >= 50% of the static-to-oracle goodput gap, migrations
        execute, and records are conserved (enforced inside the runner) —
        in both record modes."""
        result = hotspot_run(record_mode, epochs=30, shift_epoch=8)
        assert result["oracle_mbps"] > result["static_mbps"]
        assert result["dynamic_mbps"] > result["static_mbps"]
        assert result["gap_recovered"] >= 0.5
        assert len(result["migrations"]) >= 1
        # Every migration moved a hot-block source off block 0.
        hot = set(result["scenario"]["hot_sources"])
        for event in result["migrations"]:
            assert event["source"] in hot
            assert event["from_block"] == 0
        # Run metadata carries the dynamic-placement story.
        dynamic = result["dynamic"]
        assert dynamic.num_migrations() == len(result["migrations"])
        timeline = dynamic.placement_timeline()
        assert len(timeline) == 30
        assert timeline[0] == result["scenario"]["static_assignment"]
        assert timeline[-1] == dynamic.metadata["final_assignment"]

    def test_both_modes_agree_exactly(self):
        results = {
            mode: hotspot_run(mode, epochs=24, shift_epoch=6)
            for mode in ("object", "arena")
        }
        for key in ("static_mbps", "dynamic_mbps", "oracle_mbps"):
            assert results["object"][key] == results["arena"][key]
        assert [
            (e["epoch"], e["source"], e["to_block"])
            for e in results["object"]["migrations"]
        ] == [
            (e["epoch"], e["source"], e["to_block"])
            for e in results["arena"]["migrations"]
        ]


class TestHotspotWorkload:
    def test_rate_shifts_but_declared_rate_stays_nominal(self, setup):
        base = setup.workload_factory(3)
        nominal = base.input_rate_mbps
        shifted = HotspotWorkload(setup.workload_factory(3), shift_epoch=2, factor=2.0)
        assert shifted.input_rate_mbps == nominal
        before = shifted.batch_for_epoch(0)
        after = shifted.batch_for_epoch(2)
        assert len(after) == 2 * len(before)

    def test_object_and_batched_views_agree(self, setup):
        a = HotspotWorkload(setup.workload_factory(3), shift_epoch=1, factor=2.5)
        b = HotspotWorkload(setup.workload_factory(3), shift_epoch=1, factor=2.5)
        for epoch in range(3):
            records = a.records_for_epoch(epoch)
            batch = b.batch_for_epoch(epoch)
            assert len(records) == len(batch)

    def test_rejects_shrinking_factor(self, setup):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            HotspotWorkload(setup.workload_factory(0), shift_epoch=1, factor=0.5)


class TestMigrationScheduleProperty:
    @settings(max_examples=6, deadline=None)
    @given(
        data=st.data(),
        num_sources=st.integers(min_value=2, max_value=5),
        num_blocks=st.integers(min_value=2, max_value=3),
        ingress=st.floats(min_value=0.005, max_value=2.0),
        record_mode=st.sampled_from(["object", "arena"]),
    )
    def test_conservation_holds_across_arbitrary_schedules(
        self, setup, data, num_sources, num_blocks, ingress, record_mode
    ):
        """Property (acceptance): record conservation and goodput accounting
        hold across arbitrary migration schedules — random sources moved to
        random blocks at random epochs — in both record modes."""
        executor = build(
            setup,
            num_sources=num_sources,
            num_blocks=num_blocks,
            ingress_mbps=ingress,
            record_mode=record_mode,
        )
        for epoch in range(8):
            metrics = executor.run_epoch()
            for name, em in metrics.items():
                assert 0.0 <= em.goodput_bytes <= em.input_bytes + 1e-9, name
            if data.draw(st.booleans(), label=f"migrate@{epoch}"):
                source = data.draw(
                    st.sampled_from(sorted(executor.assignment())),
                    label="source",
                )
                current = executor.block_of(source)
                target = data.draw(
                    st.sampled_from(
                        [b for b in range(num_blocks) if b != current]
                    ),
                    label="target",
                )
                executor.migrate(source, target)
                assert executor.verify_record_conservation() == []
                assert link_queues_consistent(executor)
        assert executor.verify_record_conservation() == []
        assert link_queues_consistent(executor)
