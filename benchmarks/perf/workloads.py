"""The four benchmark workloads and one measured repeat of each.

Every workload is built through the simulator's public API only and runs
the ``s2s_probe`` query with ``record_mode="arena"``; every source's
workload is seeded ``seed + index``.  Ingress is sized at
``ingress_headroom`` x the block's all-drained byte rate, so queues stay
bounded and per-epoch cost does not depend on run length (the existing perf
configs are link-saturated and grow their carryover queues every epoch).
``hotspot_migration`` is the deliberate exception: its hot block saturates
after the shift until migrations relieve it.

:func:`run_repeat` is what one benchmark subprocess executes: build, step
with host time measured around the public calls, then check the run.
"""

from __future__ import annotations

import functools
import hashlib
import os
import resource
import statistics
from dataclasses import asdict, dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional

from repro.analysis.experiments import HotspotWorkload, make_setup, make_strategy
from repro.config import PINGMESH_RECORD_BYTES
from repro.query.records import DRAIN_HEADER_BYTES
from repro.simulation import (
    MultiSourceConfig,
    MultiSourceExecutor,
    ParallelBlockController,
    SaturationMigrationPolicy,
    ShardedClusterExecutor,
    StreamProcessorNode,
    homogeneous_sources,
)

from . import hostspeed, trace

#: Bytes one drained record occupies on the link, per byte of its input.
_DRAIN_FACTOR = (PINGMESH_RECORD_BYTES + DRAIN_HEADER_BYTES) / PINGMESH_RECORD_BYTES

#: Fleet epochs between host-speed calibrations on the stepped workloads.
CALIBRATE_EVERY = 4

#: Stationarity guard: end-of-run carryover plus SP backlog, in epochs of input.
MAX_QUEUED_EPOCHS = 2.0


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload's shape; every field enters the reference fingerprint."""

    name: str
    strategy: str
    budget: float
    sources: int
    records_per_epoch: int
    epochs: int
    blocks: int = 1
    #: Worker processes of a ParallelBlockController; 0 steps one serial block.
    workers: int = 0
    ingress_headroom: float = 1.25
    #: Block 0's sources turn into HotspotWorkloads at this epoch (None: no
    #: hotspot, no migration policy).
    hotspot_shift_epoch: Optional[int] = None
    hotspot_factor: float = 2.0
    #: Drive the no-migration whole-run ``run()`` path instead of ``run_epoch()``.
    whole_run: bool = False

    @property
    def parallel(self) -> bool:
        return self.workers > 0

    def toy(self) -> "WorkloadSpec":
        """The same shape at smoke-test size: 8 sources, 4 epochs."""
        return replace(
            self,
            sources=8,
            records_per_epoch=200,
            epochs=4,
            blocks=min(self.blocks, 2 if self.hotspot_shift_epoch is not None else 4),
            workers=min(self.workers, 2),
            # A milder hotspot from epoch 0, so one migration fires and
            # relieves the hot block within four epochs.
            hotspot_shift_epoch=None if self.hotspot_shift_epoch is None else 0,
            hotspot_factor=min(self.hotspot_factor, 1.8),
        )


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="source_fold",
            strategy="Jarvis",
            budget=0.55,
            sources=128,
            records_per_epoch=2500,
            epochs=70,
        ),
        WorkloadSpec(
            name="sp_drain",
            strategy="All-SP",
            budget=0.55,
            sources=128,
            records_per_epoch=2500,
            epochs=80,
        ),
        WorkloadSpec(
            name="tiled_fleet",
            strategy="Jarvis",
            budget=0.55,
            sources=1024,
            records_per_epoch=400,
            epochs=16,
            blocks=64,
            workers=2,
            whole_run=True,
        ),
        WorkloadSpec(
            name="hotspot_migration",
            strategy="All-SP",
            budget=1.0,
            sources=256,
            records_per_epoch=600,
            epochs=80,
            blocks=8,
            workers=2,
            ingress_headroom=1.67,
            hotspot_shift_epoch=20,
        ),
    )
}


def resolve(name: str, toy: bool = False) -> WorkloadSpec:
    spec = WORKLOADS[name]
    return spec.toy() if toy else spec


def spec_fingerprint(spec: WorkloadSpec) -> Dict[str, object]:
    return asdict(spec)


# ---------------------------------------------------------------------------
# Building.
# ---------------------------------------------------------------------------


def build(spec: WorkloadSpec, seed: int, serial: bool = False):
    """Build ``(setup, executor)``; ``serial`` swaps the worker pool for the
    serial :class:`ShardedClusterExecutor` reference (same blocks, same
    placement, same policy)."""
    with trace.span("scenarios.make_setup"):
        setup = make_setup(
            "s2s_probe", records_per_epoch=spec.records_per_epoch, seed=seed
        )
    with trace.span("scenarios.fleet"):
        per_block = spec.sources // spec.blocks
        hot = spec.hotspot_shift_epoch

        def workload(index: int):
            base = setup.workload_factory(seed + index)
            if hot is not None and index < per_block:
                return HotspotWorkload(base, shift_epoch=hot, factor=spec.hotspot_factor)
            return base

        specs = homogeneous_sources(
            spec.sources,
            workload_factory=workload,
            strategy_factory=lambda index: make_strategy(
                spec.strategy, setup, spec.budget
            ),
            budget=spec.budget,
        )
        node = StreamProcessorNode(
            cores=128,
            ingress_bandwidth_mbps=spec.ingress_headroom
            * per_block
            * setup.input_rate_mbps
            * _DRAIN_FACTOR,
        )
        config = MultiSourceConfig(
            config=setup.config, stream_processor=node, record_mode="arena"
        )
        if spec.blocks == 1 and not spec.parallel:
            executor = MultiSourceExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=specs,
                cluster_config=config,
            )
            return setup, executor
        kwargs = dict(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=specs,
            num_blocks=spec.blocks,
            cluster_config=config,
        )
        if hot is not None:
            # Contiguous static placement: sources 0..per_block-1 on block 0.
            kwargs["placement"] = {
                item.name: index // per_block for index, item in enumerate(specs)
            }
            kwargs["migration"] = SaturationMigrationPolicy(
                saturation_pressure=0.95,
                relief_pressure=0.92,
                hot_epochs=2,
                cooldown_epochs=2,
            )
        if serial:
            executor = ShardedClusterExecutor(**kwargs)
        else:
            executor = ParallelBlockController(workers=spec.workers, **kwargs)
        return setup, executor


# ---------------------------------------------------------------------------
# Digests and checks.
# ---------------------------------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def epoch_digest(metrics) -> str:
    """Digest of every source's ``EpochMetrics`` repr for one fleet epoch."""
    return _digest("\n".join(f"{name}={metrics[name]!r}" for name in sorted(metrics)))


def source_digest(run_metrics) -> str:
    """Digest of one source's whole ``EpochMetrics`` timeline."""
    return _digest(repr(run_metrics.epochs))


class _Tally:
    """Fleet-wide sums over the EpochMetrics the run produced."""

    def __init__(self) -> None:
        self.offered_bytes = 0.0
        self.sent_bytes = 0.0
        self.goodput_bytes = 0.0
        self.latencies: List[float] = []

    def add(self, metrics) -> None:
        for em in metrics:
            self.offered_bytes += em.network_bytes_offered
            self.sent_bytes += em.network_bytes_sent
            self.goodput_bytes += em.goodput_bytes
            self.latencies.append(em.latency_s)


def _segments_left(names: List[str]) -> int:
    return sum(os.path.exists(os.path.join("/dev/shm", name)) for name in names)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


# ---------------------------------------------------------------------------
# One repeat.
# ---------------------------------------------------------------------------


def run_repeat(
    spec: WorkloadSpec, seed: int, traced: bool = False, serial: bool = False
) -> Dict[str, object]:
    """Build, step and check one repeat of ``spec``; returns a JSON-able record.

    Host time is measured with ``perf_counter`` around the public calls:
    ``run_epoch()`` per fleet epoch on the stepped workloads, ``run()`` on the
    whole-run workload, and everything from ``make_setup`` until the executor
    is ready to step (fork and adopt included) as ``setup_s``.
    """
    collector = trace.install() if traced else None
    try:
        return _run(spec, seed, serial, collector)
    finally:
        if traced:
            trace.restore()


def _worker_kernel_s(index: int, block: object, workers: int, samples: int):
    """``map_blocks`` callback: the kernel time in the worker owning ``index``.

    Block ``i`` lives on worker ``i % workers``, so blocks ``0..workers-1``
    measure every worker exactly once, all of them concurrently.
    """
    if index >= workers:
        return None
    return statistics.median(hostspeed.kernel_s() for _ in range(samples))


def _calibrate(samples: int, executor=None, workers: int = 0) -> float:
    """Host-speed factor: reference kernel time over the time measured now.

    With a worker pool the kernel runs inside the workers, on the CPUs that
    do the stepping; otherwise in this process.
    """
    with trace.span("bench.calibrate"):
        if isinstance(executor, ParallelBlockController):
            times = executor.map_blocks(
                functools.partial(_worker_kernel_s, workers=workers, samples=samples)
            )
            measured = statistics.mean(t for t in times.values() if t is not None)
        else:
            measured = statistics.median(hostspeed.kernel_s() for _ in range(samples))
    return hostspeed.REFERENCE_KERNEL_S / measured


def _run(spec, seed, serial, collector) -> Dict[str, object]:
    started = perf_counter()
    before = _calibrate(2)
    start = perf_counter()
    setup, executor = build(spec, seed, serial=serial)
    setup_s = perf_counter() - start
    setup_factor = (before + _calibrate(2)) / 2
    parallel = isinstance(executor, ParallelBlockController)
    segments = executor.shared_segment_names() if parallel else []
    epoch_s: List[float] = []
    #: Host-speed factor in force for each entry of epoch_s.
    epoch_factor: List[float] = []
    digests: List[str] = []
    tally = _Tally()
    problems: List[str] = []
    worker_spans: List[list] = []
    try:
        if spec.whole_run:
            # run() cannot be interrupted, so the host is calibrated around it.
            before = _calibrate(5, executor, spec.workers)
            start = perf_counter()
            cluster = executor.run(spec.epochs)
            epoch_s.append((perf_counter() - start) / spec.epochs)
            epoch_factor.append((before + _calibrate(5, executor, spec.workers)) / 2)
            stepping_s = epoch_s[0] * spec.epochs
            with trace.span("bench.digest"):
                names = sorted(cluster.per_source)
                digests = [source_digest(cluster.per_source[name]) for name in names]
                for name in names:
                    tally.add(cluster.per_source[name].epochs)
                last = [cluster.per_source[name].epochs[-1] for name in names]
            migrations = 0
        else:
            # Each group of CALIBRATE_EVERY epochs is scaled by the mean of
            # the calibrations bracketing it, so a host-speed switch mid-run
            # is tracked without lag.
            marks: List[float] = []
            for epoch in range(spec.epochs):
                if epoch % CALIBRATE_EVERY == 0:
                    marks.append(_calibrate(1, executor, spec.workers))
                start = perf_counter()
                metrics = executor.run_epoch()
                epoch_s.append(perf_counter() - start)
                with trace.span("bench.digest"):
                    digests.append(epoch_digest(metrics))
                    tally.add(metrics.values())
            marks.append(_calibrate(1, executor, spec.workers))
            epoch_factor = [
                (marks[epoch // CALIBRATE_EVERY] + marks[epoch // CALIBRATE_EVERY + 1]) / 2
                for epoch in range(spec.epochs)
            ]
            stepping_s = sum(epoch_s)
            last = list(metrics.values())
            migrations = (
                len(executor.migration_events())
                if hasattr(executor, "migration_events")
                else 0
            )
        with trace.span("bench.checks"):
            violations = executor.verify_record_conservation()
            if violations:
                problems.append(f"conservation: {violations[0]}")
            backlog_bytes = executor.sp_backlog_records() * PINGMESH_RECORD_BYTES
            carryover_bytes = sum(em.network_queue_bytes for em in last)
            input_bytes = sum(em.input_bytes for em in last)
            if spec.hotspot_shift_epoch is None:
                queued = carryover_bytes + backlog_bytes
                if queued > MAX_QUEUED_EPOCHS * input_bytes:
                    problems.append(
                        f"not stationary: {queued:.0f} B queued at the end "
                        f"> {MAX_QUEUED_EPOCHS} epochs of input ({input_bytes:.0f} B)"
                    )
            else:
                hot_pressure = _hot_block_pressure(spec, setup, executor, metrics)
                if migrations < 1:
                    problems.append("hotspot: no migration fired")
                if hot_pressure >= 1.0:
                    problems.append(f"hotspot: block 0 link pressure {hot_pressure:.3f} >= 1")
            if collector is not None and parallel:
                worker_spans = [
                    spans
                    for spans in executor.map_blocks(trace.worker_spans).values()
                    if spans is not None
                ]
    finally:
        if parallel:
            executor.close()
    leaked = _segments_left(segments)
    if leaked:
        problems.append(f"{leaked} shared-memory segment(s) left in /dev/shm")
    wall_s = perf_counter() - started

    epoch_duration_s = setup.config.epoch.duration_s
    record: Dict[str, object] = {
        "workload": spec.name,
        "seed": seed,
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "stepping_s": stepping_s,
        "epoch_s": epoch_s,
        "epoch_factor": epoch_factor,
        "source_epochs": spec.sources * spec.epochs,
        "peak_rss_mb": _peak_rss_mb(),
        "digests": digests,
        "problems": problems,
        "counts": {
            "offered_mb": tally.offered_bytes / 1e6,
            "sent_mb": tally.sent_bytes / 1e6,
            "link_util": tally.sent_bytes
            / (spec.blocks * _capacity_bytes(spec, setup) * spec.epochs),
            "carryover_mb_end": carryover_bytes / 1e6,
            "sp_backlog_end": backlog_bytes / PINGMESH_RECORD_BYTES,
            "migrations": migrations,
        },
        "display": {
            "goodput_mbps": tally.goodput_bytes * 8 / 1e6 / (spec.epochs * epoch_duration_s),
            "latency_ms_p50": statistics.median(tally.latencies) * 1000,
            "migrations": migrations,
        },
    }
    if collector is not None:
        record["trace"] = _trace_summary(collector, worker_spans, wall_s)
    return record


def _capacity_bytes(spec: WorkloadSpec, setup) -> float:
    """One block's link capacity per epoch (bytes)."""
    per_block = spec.sources // spec.blocks
    mbps = spec.ingress_headroom * per_block * setup.input_rate_mbps * _DRAIN_FACTOR
    return mbps * 1e6 / 8 * setup.config.epoch.duration_s


def _hot_block_pressure(spec, setup, executor, metrics) -> float:
    """Block 0's final link demand (sent plus still-queued) over capacity."""
    on_block = [name for name, block in executor.assignment().items() if block == 0]
    demand = sum(
        metrics[name].network_bytes_sent + metrics[name].network_queue_bytes
        for name in on_block
    )
    return demand / _capacity_bytes(spec, setup)


def _trace_summary(collector, worker_spans, wall_s) -> Dict[str, object]:
    main = collector.local_spans()
    main_totals = trace.layer_totals(main)
    totals = trace.merge_totals([main_totals] + [trace.layer_totals(s) for s in worker_spans])
    busy = [trace.root_busy_s(spans) for spans in worker_spans]
    wait_s = sum(
        main_totals.get(layer, {}).get("self_s", 0.0)
        for layer in ("parallel.epoch", "parallel.run")
    )
    return {
        "wall_s": wall_s,
        "main_self_s": sum(entry["self_s"] for entry in main_totals.values()),
        "layers": totals,
        "worker_busy_s": busy,
        "wait_s": wait_s,
        "spans": len(main) + sum(len(spans) for spans in worker_spans),
    }
