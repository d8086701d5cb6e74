"""Tests for process-parallel fleet execution (``simulation/parallel.py``).

The contract under test: a :class:`ParallelBlockController` is a drop-in
execution substrate for :class:`ShardedClusterExecutor` — bit-identical
metrics per epoch per source in both record modes, including under
migration schedules — plus the OS-resource half of the story: shared-memory
arenas in the workers, and pool/segment teardown on every path out,
error paths included.
"""

from __future__ import annotations

import concurrent.futures
import gc
import os
import pickle
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import make_setup
from repro.baselines import AllSPStrategy
from repro.errors import SimulationError
from repro.query.records import FleetArena
from repro.scenarios.loader import spec_from_dict
from repro.scenarios.runner import run_sharded
from repro.scenarios.setups import make_strategy
from repro.simulation.multisource import MultiSourceConfig, homogeneous_sources
from repro.simulation.node import StreamProcessorNode
from repro.simulation.parallel import (
    ParallelBlockController,
    _ShmBumpAllocator,
)
from repro.simulation.sharding import (
    NeverMigrate,
    SaturationMigrationPolicy,
    ShardedClusterExecutor,
)

# Tests are exempt from simlint, so the shm module can be imported here
# directly to cross-check the controller's segment handling.
from multiprocessing import shared_memory

RECORD_MODES = ["object", "arena"]


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


def cluster_config(setup, ingress_mbps=0.5, record_mode="object"):
    return MultiSourceConfig(
        config=setup.config,
        stream_processor=StreamProcessorNode(ingress_bandwidth_mbps=ingress_mbps),
        record_mode=record_mode,
    )


def build_serial(setup, num_sources=4, num_blocks=2, ingress_mbps=0.5,
                 record_mode="object", migration=None, seed=10,
                 placement="round_robin"):
    return ShardedClusterExecutor(
        plan=setup.plan,
        cost_model=setup.cost_model,
        sources=fleet(setup, num_sources, seed=seed),
        num_blocks=num_blocks,
        placement=placement,
        cluster_config=cluster_config(setup, ingress_mbps, record_mode),
        migration=migration,
    )


def build_parallel(setup, num_sources=4, num_blocks=2, ingress_mbps=0.5,
                   record_mode="object", migration=None, seed=10, workers=2,
                   placement="round_robin"):
    return ParallelBlockController(
        plan=setup.plan,
        cost_model=setup.cost_model,
        sources=fleet(setup, num_sources, seed=seed),
        num_blocks=num_blocks,
        placement=placement,
        cluster_config=cluster_config(setup, ingress_mbps, record_mode),
        migration=migration,
        workers=workers,
    )


def assert_runs_identical(serial_run, parallel_run):
    """Every epoch metric of every source must match bit-for-bit."""
    assert serial_run.source_names() == parallel_run.source_names()
    for name in serial_run.source_names():
        serial_epochs = serial_run.per_source[name].epochs
        parallel_epochs = parallel_run.per_source[name].epochs
        assert len(serial_epochs) == len(parallel_epochs)
        for left, right in zip(serial_epochs, parallel_epochs):
            assert left == right, (name, left, right)


def assert_same_fleet_view(serial, controller):
    """Fleet introspection reads the same from both executors."""
    assert serial.source_names() == controller.source_names()
    assert serial.placement_report() == controller.placement_report()
    assert serial.migration_events() == controller.migration_events()
    assert serial.num_sources == controller.num_sources
    assert serial.sp_backlog_records() == controller.sp_backlog_records()


# ---------------------------------------------------------------------------
# Worker-side probes: must stay module-level so map_blocks can pickle them
# by reference into the forked workers.
# ---------------------------------------------------------------------------


def _probe_arena_shm(index, block):
    """Is every arena column buffer a view into shared memory?"""
    arena = block.epoch_engine.arena
    if arena is None:
        return None
    return {
        name: isinstance(buffer.base, memoryview)
        for name, buffer in arena._buffers.items()
        if buffer.size
    }


def _probe_rng(index, block):
    """Per-source workload RNG states (both generators), by source name."""
    out = {}
    for state in block.epoch_engine.sources:
        workload = state.workload
        out[state.name] = (
            getattr(workload, "_rng").getstate(),
            repr(getattr(workload, "_np_rng").bit_generator.state),
        )
    return out


def _probe_num_sources(index, block):
    return len(block.epoch_engine.sources)


def _probe_pid(index, block):
    return os.getpid()


def _kill_self_on_block_1(index, block):
    """SIGKILL the worker process while it runs block 1's task."""
    if index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return index


class _FailAfter:
    """Workload wrapper raising SimulationError from a given epoch on.

    Intercepts every fetch entry point the engine may pick — including the
    arena-mode native ``fill_arena`` — so the failure fires in both record
    modes.
    """

    def __init__(self, inner, fail_at):
        self.inner = inner
        self.fail_at = fail_at

    def _guard(self, epoch):
        if epoch >= self.fail_at:
            raise SimulationError("injected mid-epoch failure")

    def fill_arena(self, epoch, arena, arena_id):
        self._guard(epoch)
        fill = getattr(self.inner, "fill_arena", None)
        return False if fill is None else fill(epoch, arena, arena_id)

    def batch_for_epoch(self, epoch, *args, **kwargs):
        self._guard(epoch)
        return self.inner.batch_for_epoch(epoch, *args, **kwargs)

    def records_for_epoch(self, epoch, *args, **kwargs):
        self._guard(epoch)
        return self.inner.records_for_epoch(epoch, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


# ---------------------------------------------------------------------------
# Bit-identity: parallel is an execution substrate, never a model change.
# ---------------------------------------------------------------------------


class TestBitIdentityRun:
    @pytest.mark.parametrize("record_mode", RECORD_MODES)
    def test_run_matches_serial(self, setup, record_mode):
        serial = build_serial(setup, record_mode=record_mode)
        serial_metrics = serial.run(5, warmup_epochs=1)
        with build_parallel(setup, record_mode=record_mode) as controller:
            parallel_metrics = controller.run(5, warmup_epochs=1)
        assert_runs_identical(serial_metrics, parallel_metrics)
        assert serial_metrics.metadata == parallel_metrics.metadata
        assert (
            serial_metrics.aggregate_throughput_mbps()
            == parallel_metrics.aggregate_throughput_mbps()
        )

    @pytest.mark.parametrize("record_mode", RECORD_MODES)
    def test_lockstep_with_policy_matches_serial(self, setup, record_mode):
        """A saturating fleet under a live SaturationMigrationPolicy: the
        policy must see byte-identical inputs and fire identical moves."""

        def policy():
            return SaturationMigrationPolicy(
                saturation_pressure=1.0, relief_pressure=0.95, hot_epochs=1,
                cooldown_epochs=1,
            )

        # Pile four of the six sources onto block 0: it saturates, blocks 1
        # and 2 stay cool enough to absorb the spillover.
        kwargs = dict(
            num_sources=6, num_blocks=3, ingress_mbps=0.2,
            record_mode=record_mode,
            placement={f"source-{i}": (0 if i < 4 else i - 3) for i in range(6)},
        )
        serial = build_serial(setup, migration=policy(), **kwargs)
        serial_metrics = serial.run(8, warmup_epochs=2)
        with build_parallel(setup, migration=policy(), **kwargs) as controller:
            parallel_metrics = controller.run(8, warmup_epochs=2)
        assert_runs_identical(serial_metrics, parallel_metrics)
        assert serial_metrics.metadata == parallel_metrics.metadata
        # The scenario is tight enough that migration actually happened —
        # otherwise this test silently stops covering the handoff path.
        assert serial_metrics.metadata["migrations"]

    @pytest.mark.parametrize("record_mode", RECORD_MODES)
    def test_per_epoch_stepping_and_manual_migration(self, setup, record_mode):
        serial = build_serial(setup, ingress_mbps=0.05, record_mode=record_mode)
        controller = build_parallel(
            setup, ingress_mbps=0.05, record_mode=record_mode
        )
        with controller:
            for epoch in range(6):
                if epoch == 2:
                    serial_event = serial.migrate("source-0", 1)
                    parallel_event = controller.migrate("source-0", 1)
                    assert serial_event.moved_bytes == parallel_event.moved_bytes
                    assert (
                        serial_event.in_flight_records
                        == parallel_event.in_flight_records
                    )
                serial_epoch = serial.run_epoch()
                parallel_epoch = controller.run_epoch()
                assert serial_epoch == parallel_epoch
            assert serial.assignment() == controller.assignment()
            assert (
                serial.sp_backlog_records() == controller.sp_backlog_records()
            )
            assert_same_fleet_view(serial, controller)
            assert controller.verify_record_conservation() == []
            assert (
                serial.record_conservation_report()
                == controller.record_conservation_report()
            )


class TestMigrationScheduleIdentityProperty:
    @settings(max_examples=5, deadline=None)
    @given(
        data=st.data(),
        num_sources=st.integers(min_value=2, max_value=5),
        num_blocks=st.integers(min_value=2, max_value=3),
        ingress=st.floats(min_value=0.005, max_value=2.0),
        record_mode=st.sampled_from(RECORD_MODES),
        workers=st.integers(min_value=2, max_value=3),
    )
    def test_identity_under_random_schedules(
        self, setup, data, num_sources, num_blocks, ingress, record_mode,
        workers,
    ):
        """Property (acceptance): random fleets under random live-migration
        schedules produce bit-identical per-epoch metrics from the worker
        pool and the serial lockstep, in every record mode."""
        kwargs = dict(
            num_sources=num_sources, num_blocks=num_blocks,
            ingress_mbps=ingress, record_mode=record_mode,
        )
        serial = build_serial(setup, **kwargs)
        with build_parallel(setup, workers=workers, **kwargs) as controller:
            for epoch in range(6):
                serial_epoch = serial.run_epoch()
                parallel_epoch = controller.run_epoch()
                assert serial_epoch == parallel_epoch
                if data.draw(st.booleans(), label=f"migrate@{epoch}"):
                    source = data.draw(
                        st.sampled_from(sorted(serial.assignment())),
                        label="source",
                    )
                    current = serial.block_of(source)
                    target = data.draw(
                        st.sampled_from(
                            [b for b in range(num_blocks) if b != current]
                        ),
                        label="target",
                    )
                    serial.migrate(source, target)
                    controller.migrate(source, target)
                    assert serial.assignment() == controller.assignment()
                assert_same_fleet_view(serial, controller)
            assert controller.verify_record_conservation() == []
            assert (
                serial.record_conservation_report()
                == controller.record_conservation_report()
            )


class TestSharedBookkeeping:
    def test_epoch_counter_after_whole_run(self, setup):
        """run() without a policy advances the epoch counter of both
        executors, so a migration after it carries the same epoch and the
        next epoch continues the count."""
        serial = build_serial(setup)
        with build_parallel(setup) as controller:
            serial.run(3, warmup_epochs=1)
            controller.run(3, warmup_epochs=1)
            serial_event = serial.migrate("source-0", 1)
            parallel_event = controller.migrate("source-0", 1)
            assert serial_event.epoch == parallel_event.epoch == 3
            assert serial_event == parallel_event
            assert serial.run_epoch() == controller.run_epoch()
            assert (
                serial.migrate("source-0", 0).epoch
                == controller.migrate("source-0", 0).epoch
                == 4
            )

    def test_migration_before_a_policy_run(self, setup):
        """A source moved before run() keeps its new place in the per-source
        order of a policy-driven run, in both executors."""
        serial = build_serial(setup, migration=NeverMigrate())
        with build_parallel(setup, migration=NeverMigrate()) as controller:
            serial.migrate("source-0", 1)
            controller.migrate("source-0", 1)
            serial_metrics = serial.run(4, warmup_epochs=1)
            parallel_metrics = controller.run(4, warmup_epochs=1)
        assert serial_metrics.source_names()[-1] == "source-0"
        assert_runs_identical(serial_metrics, parallel_metrics)
        assert serial_metrics.metadata == parallel_metrics.metadata


# ---------------------------------------------------------------------------
# RNG independence: per-source streams never depend on worker count or
# block stepping order.
# ---------------------------------------------------------------------------


class TestRngIndependence:
    def test_worker_count_does_not_change_draws(self, setup):
        """Regression (satellite): after identical epochs, every source's
        RNG state is identical under workers=1 and workers=4 — per-source
        generators are seeded at construction, so stepping order and worker
        placement cannot leak into the draws."""
        states = {}
        for workers in (1, 4):
            with build_parallel(
                setup, num_sources=8, num_blocks=4, record_mode="arena",
                workers=workers,
            ) as controller:
                for _ in range(3):
                    controller.run_epoch()
                per_block = controller.map_blocks(_probe_rng)
            merged = {}
            for block_states in per_block.values():
                merged.update(block_states)
            states[workers] = merged
        assert set(states[1]) == set(states[4]) and len(states[1]) == 8
        assert states[1] == states[4]


# ---------------------------------------------------------------------------
# Shared-memory arenas.
# ---------------------------------------------------------------------------


class TestShmBumpAllocator:
    def test_alignment_and_exhaustion(self):
        shm = shared_memory.SharedMemory(
            name="repro_test_alloc", create=True, size=64
        )
        try:
            alloc = _ShmBumpAllocator(shm)
            small = alloc(3, np.int8)
            assert small is not None and small.nbytes == 3
            wide = alloc(4, np.int64)
            assert wide is not None
            # The second buffer starts on the next dtype-aligned offset.
            offset = wide.__array_interface__["data"][0] - (
                small.__array_interface__["data"][0]
            )
            assert offset == 8
            assert alloc(100, np.int64) is None  # exhausted -> decline
            del small, wide
        finally:
            shm.close()
            shm.unlink()

    def test_round_trip_through_second_attachment(self):
        """Writes through an allocator-carved view are visible to a second
        attachment of the same segment (the cross-process contract)."""
        shm = shared_memory.SharedMemory(
            name="repro_test_roundtrip", create=True, size=1024
        )
        try:
            view = _ShmBumpAllocator(shm)(4, np.int64)
            view[:] = [11, 22, 33, 44]
            other = shared_memory.SharedMemory(name="repro_test_roundtrip")
            try:
                mirrored = np.frombuffer(other.buf, dtype=np.int64, count=4)
                assert mirrored.tolist() == [11, 22, 33, 44]
                del mirrored
            finally:
                other.close()
            del view
        finally:
            shm.close()
            shm.unlink()
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name="repro_test_roundtrip")


class TestArenaOnSharedMemory:
    def arena_with_shm(self, size=1 << 16, name="repro_test_arena"):
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        arena = FleetArena()
        arena.set_buffer_allocator(_ShmBumpAllocator(shm))
        return shm, arena

    def test_reserve_alias_recycle_detach(self):
        shm, arena = self.arena_with_shm()
        try:
            dtypes = {"event_time": np.float64, "value": np.int64}
            arena.begin_epoch()
            views = arena.reserve(0, 8, tuple, dtypes, 16)
            assert views is not None
            # Reserved slices are views into the shm segment...  (generator
            # expressions on purpose: a loop variable would keep a view
            # alive in this frame and pin the segment at close time)
            assert all(
                isinstance(c.base.base, memoryview) for c in views.values()
            )
            assert all(arena.aliases(c) for c in views.values())
            views["value"][:] = np.arange(8)
            # ...recycling for a new epoch reuses the same buffers
            # (allocation-free steady state even on the shm path)...
            buffer_ids = {id(b) for b in arena._buffers.values()}
            arena.begin_epoch()
            views2 = arena.reserve(0, 8, tuple, dtypes, 16)
            assert {id(b) for b in arena._buffers.values()} == buffer_ids
            assert views2 is not None and arena.aliases(views2["value"])
            # ...and detaching the allocator sends future growth back to the
            # private heap without touching existing buffers.
            arena.set_buffer_allocator(None)
            arena.begin_epoch()
            grown = arena.reserve(0, 100_000, tuple, dtypes, 16)
            assert grown is not None
            assert grown["value"].base.base is None
            del views, views2, grown
        finally:
            del arena
            gc.collect()
            shm.close()
            shm.unlink()

    def test_exhausted_segment_falls_back_to_heap(self):
        shm, arena = self.arena_with_shm(size=128)
        try:
            arena.begin_epoch()
            views = arena.reserve(
                0, 4096, tuple, {"event_time": np.float64}, 8
            )
            # The segment cannot hold 4096 rows: the arena silently fell
            # back to heap buffers and stayed fully functional.
            assert views is not None
            assert views["event_time"].base.base is None
            del views
        finally:
            del arena
            gc.collect()
            shm.close()
            shm.unlink()

    def test_worker_columns_are_shm_backed_and_stay_recycled(self, setup):
        with build_parallel(
            setup, num_sources=4, num_blocks=2, record_mode="arena"
        ) as controller:
            assert len(controller.shared_segment_names()) == 2
            controller.run_epoch()
            first = controller.map_blocks(_probe_arena_shm)
            assert set(first) == {0, 1}
            for flags in first.values():
                assert flags and all(flags.values())
            for _ in range(4):
                controller.run_epoch()
            # Buffers recycled across epochs remain in shared memory.
            later = controller.map_blocks(_probe_arena_shm)
            for flags in later.values():
                assert flags and all(flags.values())

    def test_non_arena_modes_create_no_segments(self, setup):
        with build_parallel(setup, record_mode="object") as controller:
            assert controller.shared_segment_names() == []


# ---------------------------------------------------------------------------
# Lifecycle: idle blocks, drained blocks, teardown on error paths.
# ---------------------------------------------------------------------------


class TestIdleAndDrainedBlocks:
    def test_more_blocks_than_sources(self, setup):
        """Blocks with no sources are legitimate idle blocks in a worker:
        they step zero-byte epochs and the run matches serial exactly."""
        kwargs = dict(num_sources=3, num_blocks=5, record_mode="arena")
        serial_metrics = build_serial(setup, **kwargs).run(4, warmup_epochs=1)
        with build_parallel(setup, **kwargs) as controller:
            parallel_metrics = controller.run(4, warmup_epochs=1)
        assert_runs_identical(serial_metrics, parallel_metrics)
        assert serial_metrics.metadata == parallel_metrics.metadata

    def test_block_drained_by_migration_keeps_stepping(self, setup):
        serial = build_serial(setup, num_sources=4, num_blocks=2)
        controller = build_parallel(setup, num_sources=4, num_blocks=2)
        with controller:
            serial.run_epoch()
            controller.run_epoch()
            for name, block in sorted(controller.assignment().items()):
                if block == 0:
                    serial.migrate(name, 1)
                    controller.migrate(name, 1)
            assert controller.map_blocks(_probe_num_sources)[0] == 0
            for _ in range(3):
                assert serial.run_epoch() == controller.run_epoch()
            assert controller.verify_record_conservation() == []


class TestTeardown:
    def failing_controller(self, setup, record_mode="arena", fail_at=2):
        specs = homogeneous_sources(
            4,
            workload_factory=lambda i: _FailAfter(
                setup.workload_factory(10 + i), fail_at
            ),
            strategy_factory=lambda i: AllSPStrategy(),
            budget=1.0,
        )
        return ParallelBlockController(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=specs,
            num_blocks=2,
            cluster_config=cluster_config(setup, record_mode=record_mode),
            workers=2,
        )

    @pytest.mark.parametrize("record_mode", RECORD_MODES)
    def test_error_mid_epoch_tears_everything_down(self, setup, record_mode):
        """A block raising SimulationError mid-epoch cancels the sibling
        futures, shuts the pools down, and unlinks every shm segment."""
        controller = self.failing_controller(setup, record_mode=record_mode)
        segments = controller.shared_segment_names()
        if record_mode == "arena":
            assert len(segments) == 2
            for name in segments:
                assert os.path.exists(f"/dev/shm/{name}")
        controller.run_epoch()  # epochs 0-1 are fine
        controller.run_epoch()
        with pytest.raises(SimulationError, match="injected mid-epoch"):
            controller.run_epoch()
        assert controller._closed
        assert controller._pools == []
        # Resource-tracker check: the segments are gone from /dev/shm and a
        # re-attach by name fails — nothing leaked for the tracker to nag
        # about at interpreter exit.
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        with pytest.raises(SimulationError, match="closed"):
            controller.run_epoch()

    @pytest.mark.parametrize("action", ["run_epoch", "migrate", "map_blocks"])
    def test_killed_worker_ends_in_simulation_error(self, setup, action):
        """SIGKILL one worker between epochs — the next dispatch to it, an
        epoch or a migration handoff — or while it runs a task (the
        ``map_blocks`` callback kills its own process on block 1).  Either
        way the call raises SimulationError chained to the broken pool, with
        the controller closed and no segment linked."""
        controller = build_parallel(
            setup, num_sources=8, num_blocks=4, record_mode="arena"
        )
        segments = controller.shared_segment_names()
        assert len(segments) == 4
        controller.run_epoch()
        if action != "map_blocks":
            # Block 1 lives on worker 1; source-0 lives on block 0 (worker 0).
            os.kill(controller.map_blocks(_probe_pid)[1], signal.SIGKILL)
        with pytest.raises(SimulationError, match="died") as raised:
            if action == "run_epoch":
                controller.run_epoch()
            elif action == "migrate":
                controller.migrate("source-0", 1)
            else:
                controller.map_blocks(_kill_self_on_block_1)
        assert isinstance(raised.value.__cause__, concurrent.futures.BrokenExecutor)
        assert controller._closed
        assert controller._pools == []
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        with pytest.raises(SimulationError, match="closed"):
            controller.run_epoch()

    def test_close_is_idempotent_and_unlinks(self, setup):
        controller = build_parallel(setup, record_mode="arena")
        segments = controller.shared_segment_names()
        assert segments
        controller.close()
        controller.close()
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_context_manager_closes_on_exception(self, setup):
        with pytest.raises(KeyError):
            with build_parallel(setup, record_mode="arena") as controller:
                segments = controller.shared_segment_names()
                raise KeyError("boom")
        assert controller._closed
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_invalid_worker_count_rejected(self, setup):
        with pytest.raises(SimulationError):
            build_parallel(setup, workers=0)

    def test_run_requires_fresh_controller(self, setup):
        with build_parallel(setup) as controller:
            controller.run_epoch()
            with pytest.raises(SimulationError, match="fresh"):
                controller.run(3)


# ---------------------------------------------------------------------------
# Migration-state transport: the handoff pickles across workers.
# ---------------------------------------------------------------------------


class TestMigrationStateTransport:
    @pytest.mark.parametrize("record_mode", RECORD_MODES)
    def test_detached_state_survives_pickling(self, setup, record_mode):
        """detach -> pickle -> unpickle -> attach is lossless: the rebuilt
        run continues bit-identically to a twin that never detached."""
        twin = build_serial(setup, ingress_mbps=0.05, record_mode=record_mode)
        subject = build_serial(
            setup, ingress_mbps=0.05, record_mode=record_mode
        )
        for _ in range(3):
            twin.run_epoch()
            subject.run_epoch()
        block = subject.blocks[0]
        state = block.detach_source("source-0")
        restored = pickle.loads(pickle.dumps(state))
        assert restored.record_mode == record_mode
        assert restored.requeue_bytes == state.requeue_bytes
        assert restored.in_flight_records == state.in_flight_records
        block.attach_source(restored)
        for _ in range(3):
            assert twin.run_epoch() == subject.run_epoch()
        assert subject.verify_record_conservation() == []


# ---------------------------------------------------------------------------
# Runner/spec plumbing: the `workers` knob end to end.
# ---------------------------------------------------------------------------


class TestRunnerPlumbing:
    def test_run_sharded_workers_knob_is_bit_identical(self, setup):
        def run(workers):
            return run_sharded(
                setup, "Jarvis", 0.55, num_sources=6, num_blocks=3,
                num_epochs=5, warmup_epochs=1, seed=1, record_mode="arena",
                workers=workers,
            )

        serial_metrics = run(1)
        parallel_metrics = run(2)
        assert_runs_identical(serial_metrics, parallel_metrics)
        assert serial_metrics.metadata == parallel_metrics.metadata

    def test_spec_validates_workers(self):
        base = {
            "scenario": {"name": "x", "kind": "parallel"},
            "tiling": {"blocks": 4, "workers": 2},
        }
        spec = spec_from_dict(base)
        assert spec.tiling.workers == 2
        with pytest.raises(Exception, match="workers"):
            spec_from_dict(
                {
                    "scenario": {"name": "x", "kind": "parallel"},
                    "tiling": {"blocks": 4, "workers": 0},
                }
            )
        # kind "parallel" with the serial default is a configuration error:
        # there would be nothing to compare against.
        with pytest.raises(Exception, match="workers"):
            spec_from_dict({"scenario": {"name": "x", "kind": "parallel"}})

    def test_spec_plumbs_parallel_min_speedup(self):
        spec = spec_from_dict(
            {
                "scenario": {"name": "x", "kind": "parallel"},
                "run": {"parallel_min_speedup": 2.5},
                "tiling": {"blocks": 2, "workers": 2},
            }
        )
        assert spec.parallel_min_speedup == 2.5

    def test_make_strategy_fleet_matches_through_controller(self, setup):
        """The scenario-harness fleet construction (make_strategy) also
        produces bit-identical serial/parallel runs — the gate's exact
        code path at miniature scale."""
        def specs():
            return homogeneous_sources(
                4,
                workload_factory=lambda i: setup.workload_factory(1 + i),
                strategy_factory=lambda i: make_strategy(
                    "Jarvis", setup, 0.55
                ),
                budget=0.55,
            )

        config = cluster_config(setup, record_mode="arena")
        serial_metrics = ShardedClusterExecutor(
            plan=setup.plan, cost_model=setup.cost_model, sources=specs(),
            num_blocks=2, cluster_config=config,
        ).run(4, warmup_epochs=1)
        with ParallelBlockController(
            plan=setup.plan, cost_model=setup.cost_model, sources=specs(),
            num_blocks=2, cluster_config=config, workers=2,
        ) as controller:
            parallel_metrics = controller.run(4, warmup_epochs=1)
        assert_runs_identical(serial_metrics, parallel_metrics)
