"""True multi-source shared-link execution of one core building block.

The paper's scaling results (Figure 10, §VI-E) are about *hundreds of data
sources* contending for the stream processor's shared ingress link and
compute.  :class:`MultiSourceExecutor` steps N :class:`SourcePipeline`
instances concurrently per epoch:

1. every source runs one epoch of its own pipeline under its own CPU budget,
   driven by its own decentralized strategy instance (each source runs its
   own Jarvis runtime, §IV-A — sources never coordinate).  The engine steps
   the block's pipelines together, stage by stage, so in arena mode a
   row-masking operator runs one pass over every source's rows; every
   source still gets exactly its own pipeline's epoch;
2. the bytes each source wants to ship (drained records, emitted results,
   partial aggregation state) enter a per-source FIFO carryover queue, and
   one epoch's worth of the shared link's capacity is divided among the
   contending sources max-min fairly (:func:`max_min_fair_share`);
3. whatever crossed the link this epoch is handed to one shared
   :class:`StreamProcessorPipeline` whose compute is capped per epoch at the
   stream-processor node's capacity; arrivals that do not fit wait in an
   SP-side backlog queue.  In arena mode the SP takes that backlog a run at
   a time — consecutive batches that enter the same stage, up to
   :data:`SP_RUN_MAX_ROWS` rows — with one pass of each operator over the
   run, and still charges every batch its own CPU in FIFO order.

Sources may be fully heterogeneous: each :class:`SourceSpec` carries its own
workload, budget schedule, and strategy instance.  The closed-form
:class:`~repro.simulation.cluster.ClusterModel` remains available as a fast
analytic cross-check for the homogeneous case.

Source stepping, strategy feedback, conservation counters, and all
goodput/latency accounting live in the shared
:mod:`repro.simulation.engine`; this module contributes the genuinely
multi-source parts — carryover queues, max-min link arbitration
(count-based FIFO transfer arithmetic from
:func:`~repro.simulation.network.plan_fifo_transfer`), and the compute-capped
SP drain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import JarvisConfig
from ..errors import SimulationError, require_finite
from ..query.physical_plan import PhysicalPlan
from ..query.records import (
    DRAIN_HEADER_BYTES,
    FleetArena,
    RecordBatch,
)
from .cost_model import CostModel
from .engine import (
    BlockStep,
    EpochAccountant,
    EpochEngine,
    SourceState,
    validate_record_mode,
)
from .executor import Strategy, WorkloadSource
from .metrics import ClusterEpochMetrics, ClusterMetrics, EpochMetrics, RunMetrics
from .network import NetworkLink, TransferPlan, max_min_fair_share, plan_fifo_transfer
from .node import BudgetSchedule, StreamProcessorNode, as_budget_schedule
from .pipeline import RecordContainer, SourceEpochResult, StreamProcessorPipeline

#: Row cap of one arena-mode SP run (:meth:`MultiSourceExecutor.
#: _drain_sp_pending`).  A longer run spreads one pass's fixed costs over
#: more rows until its columns outgrow the cache, and every row of a run
#: adds about 90 bytes of temporaries to peak memory.  The s2s chain
#: (Window, Filter, G+R) per item, one process on a 2-vCPU Xeon host with
#: 2 MB of L2 per core: 2,500-row items took 58-63 us one at a time, 49-54
#: us in runs of 6 (15k rows), 44-46 us in runs of 13 (32.5k), 42-45 us in
#: runs of 26 (65k) and 46-50 us in one 320k-row pass; 600-row items took
#: 35 us alone and 12 us in runs of 16 to 64.  A 32,768-row cap raised the
#: perf benchmark's ``sp_drain`` peak RSS by 1.8% (3 MB).
SP_RUN_MAX_ROWS = 16_384


@dataclass
class SourceSpec:
    """One data source's identity and per-source knobs.

    Attributes:
        name: Unique source identifier.
        workload: Produces this source's records per epoch.
        strategy: This source's own strategy instance.  Instances must not be
            shared between sources — adaptive strategies carry runtime state.
        budget: CPU budget schedule (fraction of a core, may vary per epoch).
    """

    name: str
    workload: WorkloadSource
    strategy: Strategy
    budget: "float | BudgetSchedule" = 1.0

    def __post_init__(self) -> None:
        self.budget = as_budget_schedule(self.budget)


@dataclass
class MultiSourceConfig:
    """Cluster-level knobs of a multi-source simulation.

    Attributes:
        config: Jarvis configuration bundle shared by every source.
        stream_processor: The shared stream-processor node; its ingress
            bandwidth is the shared link's capacity and its cores cap the
            per-epoch compute spent on this query's arrivals.
        sp_compute_share: Fraction of the SP's cores available to this query
            (the paper's SP is shared by ~20 queries).
        warmup_epochs: Epochs excluded from metric aggregation.
        record_mode: Record representation on the simulation hot path.
            ``"object"`` keeps one Python object per record (the reference);
            ``"arena"`` stacks every source in the block into one reusable
            :class:`~repro.query.records.FleetArena`, steps columnar
            :class:`~repro.query.records.RecordBatch` views of it, and folds
            group aggregates with segmented array ops (bit-identical
            metrics, many times faster at fleet scale).
    """

    config: JarvisConfig = field(default_factory=JarvisConfig)
    stream_processor: StreamProcessorNode = field(default_factory=StreamProcessorNode)
    sp_compute_share: float = 1.0
    warmup_epochs: int = 0
    record_mode: str = "object"

    def __post_init__(self) -> None:
        require_finite(
            "sp_compute_share", self.sp_compute_share, error=SimulationError
        )
        if not 0.0 < self.sp_compute_share <= 1.0:
            raise SimulationError(
                f"sp_compute_share must be within (0, 1], got {self.sp_compute_share!r}"
            )
        validate_record_mode(self.record_mode)


@dataclass
class _TransferItem:
    """One unit of data waiting in a source's carryover queue.

    ``stage_index`` is the SP stage where processing resumes for drained
    records, ``-1`` for records emitted by the source's final stage, and
    ``-2`` for partial aggregation state.  ``records`` is a
    :data:`~repro.simulation.pipeline.RecordContainer` — a record list in
    object mode, a columnar batch in arena mode.  An arena batch may view the
    fleet arena until the block epoch ends, when
    :meth:`MultiSourceExecutor._finish_epoch` owns every such batch still
    queued; queued items therefore survive the arena's next-epoch buffer
    reuse, and a migrating source's partial-transfer state stays valid in
    the adopting block's arena.  ``size_bytes`` is the exact byte total of
    the records the item still holds (drain headers included), or the state
    blob's size.  ``progress_bytes`` tracks how much of the head record (or
    of the state blob) has already crossed the link: transfers larger than
    one epoch's allocation simply take several epochs, they never starve
    behind head-of-line blocking.
    """

    stage_index: int
    records: RecordContainer = field(default_factory=list)
    state: Optional[object] = None
    state_stage: int = -1
    size_bytes: float = 0.0
    progress_bytes: float = 0.0


class _CarryoverSourceState(SourceState):
    """Engine source state extended with the shared-link carryover queue."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.carryover: Deque[_TransferItem] = deque()
        self.carryover_bytes = 0.0
        #: How many items at the carryover's tail this epoch enqueued.
        self.fresh_items = 0


@dataclass
class SourceMigrationState:
    """Everything one source hands off when it moves between building blocks.

    Produced by :meth:`MultiSourceExecutor.detach_source` and consumed by
    :meth:`MultiSourceExecutor.attach_source`.  The handoff keeps every
    accounting invariant continuous across the move:

    * ``state`` is the engine-owned :class:`SourceState` — pipeline (with its
      epoch clock and operator queues), strategy, previous-epoch queue levels
      (goodput debits difference against them), and the cumulative
      record-conservation counters;
    * the carryover queue travels *inside* ``state`` with the head item's
      partial-transfer progress intact, so bytes that already crossed the old
      link are never re-transmitted;
    * ``sp_pending`` / ``sp_free`` are the source's items that crossed the old
      link but were still waiting for stream-processor compute — they re-queue
      at the destination SP so the drain-path conservation invariant
      (``drained == sp_processed + in-flight``) holds at every instant;
    * ``requeue_bytes`` is what the source still needed to move across the old
      link (its queued demand); the detach withdrew it from the old ingress
      :class:`~repro.simulation.network.NetworkLink` and the attach re-offers
      it on the new one.
    """

    state: _CarryoverSourceState
    sp_pending: List[_TransferItem] = field(default_factory=list)
    sp_free: List[_TransferItem] = field(default_factory=list)
    requeue_bytes: float = 0.0
    epochs_run: int = 0
    record_mode: str = "object"

    @property
    def name(self) -> str:
        return self.state.name

    @property
    def in_flight_records(self) -> int:
        """Drained records travelling with this migration (carryover + SP)."""
        count = sum(
            len(item.records)
            for item in self.state.carryover
            if item.stage_index >= 0
        )
        count += sum(
            len(item.records) for item in self.sp_pending if item.stage_index >= 0
        )
        return count


class MultiSourceExecutor:
    """Simulates N data sources sharing one stream processor, epoch by epoch.

    Replaces :meth:`ClusterModel.scale` extrapolation with measured
    aggregates: congestion at the shared link and the SP's compute emerges
    from actual contention between concurrently-stepped sources instead of a
    closed-form utilisation formula.
    """

    def __init__(
        self,
        plan: PhysicalPlan,
        cost_model: CostModel,
        sources: Sequence[SourceSpec],
        cluster_config: Optional[MultiSourceConfig] = None,
        allow_empty_fleet: bool = False,
    ) -> None:
        """``allow_empty_fleet`` permits construction with zero sources: the
        one sharded executor uses it so a block whose fleet migrated away (or
        a tiling wider than the fleet) keeps stepping zero-byte epochs with
        its capacity still counted, instead of being a construction error."""
        if not sources and not allow_empty_fleet:
            raise SimulationError("multi-source executor needs at least one source")
        names = [spec.name for spec in sources]
        if len(set(names)) != len(names):
            raise SimulationError(f"source names must be unique, got {names!r}")
        strategies = [id(spec.strategy) for spec in sources]
        if len(set(strategies)) != len(strategies):
            raise SimulationError(
                "each source needs its own strategy instance (decentralized "
                "runtimes, Section IV-A); strategy objects must not be shared"
            )

        self.plan = plan
        self.cost_model = cost_model
        self.cluster_config = cluster_config or MultiSourceConfig()
        self.config = self.cluster_config.config
        epoch_s = self.config.epoch.duration_s

        sp_node = self.cluster_config.stream_processor
        self.link: NetworkLink = sp_node.ingress_link(epoch_s)
        self.sp_pipeline = StreamProcessorPipeline(
            operators=plan.stream_processor_operators(),
            cost_model=cost_model,
            window_length_s=plan.window_length_s,
            epoch_duration_s=epoch_s,
        )
        self.sp_compute_capacity_s = (
            sp_node.compute_capacity_per_epoch(epoch_s)
            * self.cluster_config.sp_compute_share
        )

        self.epoch_engine = EpochEngine(
            cost_model=cost_model,
            config=self.config,
            record_mode=self.cluster_config.record_mode,
        )
        self._sources: List[_CarryoverSourceState] = []
        self._sources_by_name: Dict[str, _CarryoverSourceState] = {}
        for spec in sources:
            state = self.epoch_engine.add_source(
                name=spec.name,
                workload=spec.workload,
                strategy=spec.strategy,
                budget=spec.budget,
                plan=plan,
                state_factory=_CarryoverSourceState,
            )
            self._sources.append(state)
            self._sources_by_name[spec.name] = state

        #: SP-side backlog: arrivals that crossed the link but did not fit in
        #: the SP's per-epoch compute yet, FIFO across sources.  Only record
        #: batches wait here; free items (state merges, already-final records)
        #: go through ``_sp_free`` and drain every epoch.
        self._sp_pending: Deque[Tuple[str, _TransferItem]] = deque()
        self._sp_free: Deque[Tuple[str, _TransferItem]] = deque()
        #: How many items at the SP backlog's tail this epoch's shipping added.
        self._fresh_sp_pending = 0
        self._epoch_index = 0
        #: The engine's step this epoch, between the source and accounting
        #: phases (None between epochs), and each of its sources'
        #: ``network_bytes`` as enqueued (empty between epochs).
        self._epoch_step: Optional[BlockStep] = None
        self._network_bytes: List[float] = []

    # -- introspection -----------------------------------------------------------

    @property
    def num_sources(self) -> int:
        return self.epoch_engine.num_sources

    def source_names(self) -> List[str]:
        return self.epoch_engine.source_names()

    def sp_backlog_records(self) -> int:
        """Records waiting at the stream processor for compute."""
        return sum(len(item.records) for _, item in self._sp_pending)

    def _drain_in_flight(self) -> Dict[str, int]:
        """Drained records that have not reached SP processing yet, per source."""
        counts: Dict[str, int] = {}
        for name, item in self._sp_pending:
            if item.stage_index >= 0:
                counts[name] = counts.get(name, 0) + len(item.records)
        for state in self._sources:
            in_flight = sum(
                len(item.records)
                for item in state.carryover
                if item.stage_index >= 0
            )
            if in_flight:
                counts[state.name] = counts.get(state.name, 0) + in_flight
        return counts

    def record_conservation_report(self) -> Dict[str, Dict[str, object]]:
        """Record-accounting snapshot per source (used by property tests).

        See :meth:`~repro.simulation.engine.EpochEngine.conservation_report`
        for the invariants; this executor contributes its in-flight view (the
        carryover queues and the SP compute backlog).
        """
        return self.epoch_engine.conservation_report(self._drain_in_flight())

    def verify_record_conservation(self) -> List[str]:
        """Check the conservation invariants; returns violation descriptions.

        An empty list means every record is accounted for exactly once.
        Between epochs, a carryover, SP-backlog or SP-free batch still
        viewing the block's arena is a violation too: the next fill
        overwrites the records it holds.
        """
        violations = self.epoch_engine.verify_conservation(self._drain_in_flight())
        arena = self.epoch_engine.arena
        if arena is None:
            return violations
        queued = [
            (state.name, "carryover", item)
            for state in self._sources
            for item in state.carryover
        ]
        queued += [(name, "SP backlog", item) for name, item in self._sp_pending]
        queued += [(name, "SP free queue", item) for name, item in self._sp_free]
        violations.extend(
            f"{name} {queue}: a queued item's {len(item.records)} records "
            "alias the recycled arena"
            for name, queue, item in queued
            if arena.aliased_by(item.records)
        )
        return violations

    # -- execution ----------------------------------------------------------------
    #
    # ``run_epoch`` is a composition of phase methods so an external arbiter —
    # the co-located multi-query executor — can drive the same machinery with
    # an externally granted byte budget (its slice of a link shared by several
    # queries) and compute budget (its ``sp_compute_share`` of the SP node)
    # instead of this executor's own link capacity and compute cap.

    def run_epoch(self) -> Dict[str, EpochMetrics]:
        """Step every source, arbitrate the shared link, and run the SP.

        Returns per-source epoch metrics keyed by source name.
        """
        offered_bytes_total = self._run_sources()
        self.link.offer(offered_bytes_total)
        shipped_bytes, unsent_bytes, contending_sources = self._ship_fair_share(
            self.link.capacity_bytes_per_epoch
        )
        transmit = self.link.transmit_epoch(max_bytes=sum(shipped_bytes))
        self._drain_sp_free()
        sp_cpu_by_source = self._drain_sp_pending(self.sp_compute_capacity_s)
        # Phase 3c: tick the SP's epoch clock exactly once.  Final window
        # outputs are not consumed by the scale executors, so the boundary
        # discards them instead of materializing one row per group.
        self.sp_pipeline.advance_epoch()
        return self._finish_epoch(
            offered_bytes=offered_bytes_total,
            shipped_bytes=shipped_bytes,
            unsent_bytes=unsent_bytes,
            contending_sources=contending_sources,
            sent_bytes=transmit.sent_bytes,
            queued_bytes=transmit.queued_bytes,
            sp_cpu_by_source=sp_cpu_by_source,
            link_rate_bytes_per_s=self.link.bytes_per_second,
            capacity_bytes=self.link.capacity_bytes_per_epoch,
        )

    def run(
        self, num_epochs: int, warmup_epochs: Optional[int] = None
    ) -> ClusterMetrics:
        """Run ``num_epochs`` epochs and return aggregated cluster metrics.

        An executor accumulates pipeline, carryover, and strategy state as it
        steps, so a run must start from a fresh instance: calling ``run`` on
        an executor that has already stepped any epoch (via ``run`` or
        ``run_epoch``) raises :class:`SimulationError`.
        """
        if num_epochs <= 0:
            raise SimulationError(f"num_epochs must be positive, got {num_epochs!r}")
        self.epoch_engine.ensure_fresh()
        warmup = (
            self.cluster_config.warmup_epochs if warmup_epochs is None else warmup_epochs
        )
        cluster, per_source_runs = self._prepare_run_collectors(warmup)
        for _ in range(num_epochs):
            epoch_metrics = self.run_epoch()
            for name, em in epoch_metrics.items():
                per_source_runs[name].record(em)
            cluster.record_cluster_epoch(self._last_cluster_epoch)
        for name, run_metrics in per_source_runs.items():
            cluster.register_source(name, run_metrics)
        return cluster

    # -- live migration -----------------------------------------------------------

    def detach_source(self, name: str) -> SourceMigrationState:
        """Detach one source for live migration to another building block.

        Must be called between epochs (never mid-phase).  Removes the source
        from this block's engine, pulls its still-waiting items out of the SP
        compute backlog and free queue (preserving their FIFO order), and
        withdraws its un-crossed queued bytes from this block's shared link —
        the carryover queue itself, including the head item's
        partial-transfer progress, travels inside the returned state.
        """
        if self._epoch_step is not None:
            raise SimulationError(
                "detach_source must run between epochs, not mid-epoch"
            )
        if name not in self._sources_by_name:
            raise SimulationError(f"unknown source {name!r}")
        state = self._sources_by_name[name]
        requeue = self._remaining_demand(state)
        self.link.withdraw(requeue)

        def take(queue: Deque[Tuple[str, _TransferItem]]) -> List[_TransferItem]:
            taken = [item for owner, item in queue if owner == name]
            kept = [(owner, item) for owner, item in queue if owner != name]
            queue.clear()
            queue.extend(kept)
            return taken

        sp_pending = take(self._sp_pending)
        sp_free = take(self._sp_free)
        self.epoch_engine.remove_source(name)
        self._sources.remove(state)
        del self._sources_by_name[name]
        return SourceMigrationState(
            state=state,
            sp_pending=sp_pending,
            sp_free=sp_free,
            requeue_bytes=requeue,
            epochs_run=self.epochs_run,
            record_mode=self.epoch_engine.record_mode,
        )

    def attach_source(self, migration: SourceMigrationState) -> None:
        """Adopt a source detached from another block (live migration).

        Re-queues its in-flight SP items at the tail of this block's backlog
        and re-offers its withdrawn queued bytes on this block's shared link.
        Both blocks must be step-aligned (lockstep tiling) and run the same
        record mode; violating either would tear the source's timeline.
        """
        if self._epoch_step is not None:
            raise SimulationError(
                "attach_source must run between epochs, not mid-epoch"
            )
        state = migration.state
        if not isinstance(state, _CarryoverSourceState):
            raise SimulationError(
                f"cannot attach source {migration.name!r}: its state was not "
                "detached from a multi-source building block"
            )
        if migration.epochs_run != self.epochs_run:
            raise SimulationError(
                f"cannot attach source {migration.name!r}: donor block had run "
                f"{migration.epochs_run} epoch(s) but this block has run "
                f"{self.epochs_run}; blocks must step in lockstep"
            )
        if migration.record_mode != self.epoch_engine.record_mode:
            raise SimulationError(
                f"cannot attach source {migration.name!r}: donor ran record "
                f"mode {migration.record_mode!r} but this block runs "
                f"{self.epoch_engine.record_mode!r}"
            )
        self.epoch_engine.adopt_source(state)
        self._sources.append(state)
        self._sources_by_name[state.name] = state
        self._sp_pending.extend((state.name, item) for item in migration.sp_pending)
        self._sp_free.extend((state.name, item) for item in migration.sp_free)
        self.link.offer(migration.requeue_bytes)

    # -- epoch phases (driven by run_epoch or by an external arbiter) -------------

    @property
    def epochs_run(self) -> int:
        """How many epochs this executor has stepped so far."""
        return self.epoch_engine.epochs_run

    def _run_sources(self) -> float:
        """Phase 1: the engine steps every source (own pipeline, own strategy
        feedback — no cross-source coordination); outbound data enters the
        per-source carryover queues.  Returns the new bytes offered to the
        shared link this epoch.
        """
        epoch = self.epoch_engine.epochs_run
        step = self.epoch_engine.step_sources()
        offered_bytes_total = 0.0
        network_bytes: List[float] = []
        for state, result in zip(step.states, step.results):
            enqueued_bytes, source_bytes = self._enqueue_transfers(state, result)
            offered_bytes_total += enqueued_bytes
            network_bytes.append(source_bytes)
        self._epoch_index = epoch
        self._epoch_step = step
        self._network_bytes = network_bytes
        return offered_bytes_total

    def total_remaining_demand(self) -> float:
        """Bytes this executor's sources still need to move across the link."""
        return sum(self._remaining_demand(state) for state in self._sources)

    def _ship_fair_share(
        self, byte_budget: float
    ) -> Tuple[List[float], List[float], int]:
        """Phase 2: max-min fair arbitration of ``byte_budget`` across sources.

        A source's demand is what still has to *cross* the link: the head
        item's bytes already transmitted in earlier epochs (its partial
        progress) stay in ``carryover_bytes`` for backlog accounting but must
        not be demanded again, or the allocator would strand capacity other
        sources need.  Returns ``(bytes shipped per source, bytes each source
        still has to move once shipped, number of sources that contended)``.
        """
        demands = [self._remaining_demand(state) for state in self._sources]
        allocations = max_min_fair_share(demands, byte_budget)
        contending_sources = sum(1 for demand in demands if demand > 0.0)
        pending = len(self._sp_pending)
        shipped_bytes: List[float] = []
        unsent_bytes: List[float] = []
        for state, allocation in zip(self._sources, allocations):
            sent, unsent = self._ship(state, allocation)
            shipped_bytes.append(sent)
            unsent_bytes.append(unsent)
        self._fresh_sp_pending = len(self._sp_pending) - pending
        return shipped_bytes, unsent_bytes, contending_sources

    def _finish_epoch(
        self,
        offered_bytes: float,
        shipped_bytes: Sequence[float],
        unsent_bytes: Sequence[float],
        contending_sources: int,
        sent_bytes: float,
        queued_bytes: float,
        sp_cpu_by_source: Dict[str, float],
        link_rate_bytes_per_s: float,
        capacity_bytes: float,
    ) -> Dict[str, EpochMetrics]:
        """Phase 4: per-source metrics plus the epoch's shared-resource view.

        The fair drain rate divides ``link_rate_bytes_per_s`` — the full link
        for a standalone run, the query's entitled slice under co-location —
        among the sources that actually contended this epoch (positive demand
        at arbitration time), not the whole fleet: idle sources do not slow
        anybody down, so they must not inflate the estimate.

        Goodput debits growth in *every* queue a record can park in (source
        operator queues, carryover, SP compute backlog); the arithmetic is
        one pass over the block
        (:meth:`EpochAccountant.finish_block_epoch`).

        Every driver ends its block epoch here, so this is where arena views
        still queued are owned (:meth:`_own_queued`).
        """
        step = self._epoch_step
        states = step.states
        epoch_s = self.config.epoch.duration_s
        sp_cpu_total = sum(sp_cpu_by_source.values())
        sp_backlog_cost_s = self._sp_pending_cost_seconds()
        sp_backlog_bytes: Dict[str, float] = {}
        for name, item in self._sp_pending:
            sp_backlog_bytes[name] = sp_backlog_bytes.get(name, 0.0) + item.size_bytes
        sp_delay = (
            sp_backlog_cost_s / (self.sp_compute_capacity_s / epoch_s)
            if self.sp_compute_capacity_s > 0
            else 0.0
        )

        # Latency: the network term counts only the bytes that still have to
        # *cross* the link (the head item's partial progress has already
        # crossed and stays in ``carryover_bytes`` purely for backlog
        # accounting), as shipping left them.
        fair_rate = link_rate_bytes_per_s / max(1, contending_sources)
        network_delay = (
            np.array(unsent_bytes) / fair_rate
            if fair_rate > 0
            else np.zeros(len(states))
        )
        carryover_bytes = [state.carryover_bytes for state in states]
        accounted = EpochAccountant.finish_block_epoch(
            step,
            self.cost_model,
            epoch_s,
            shared_queue_bytes=(
                ("carryover", carryover_bytes),
                (
                    "sp_backlog",
                    [sp_backlog_bytes.get(state.name, 0.0) for state in states],
                ),
            ),
            network_bytes=self._network_bytes,
            sent_bytes=shipped_bytes,
            reported_queue_bytes=carryover_bytes,
            network_delay_s=network_delay,
            sp_cpu_seconds=[sp_cpu_by_source.get(state.name, 0.0) for state in states],
            sp_delay_s=sp_delay,
        )
        metrics = {state.name: em for state, em in zip(states, accounted)}

        self._last_cluster_epoch = ClusterEpochMetrics(
            epoch=self._epoch_index,
            network_offered_bytes=offered_bytes,
            network_sent_bytes=sent_bytes,
            network_queued_bytes=queued_bytes,
            network_capacity_bytes=capacity_bytes,
            sp_cpu_used_seconds=sp_cpu_total,
            sp_cpu_capacity_seconds=self.sp_compute_capacity_s,
            sp_backlog_records=self.sp_backlog_records(),
        )
        self._epoch_step = None
        self._network_bytes = []
        arena = self.epoch_engine.arena
        if arena is not None:
            self._own_queued(arena)
        return metrics

    def _own_queued(self, arena: FleetArena) -> None:
        """Detach from the arena the batches this epoch left queued.

        The arena recycles its buffers at the next fill.  Items queued in
        earlier epochs were owned when those epochs ended, and shipping and
        the SP drain pop from the head, so this epoch's survivors are the
        tail of each FIFO: only those tails are walked, and a saturated
        queue is not re-walked every epoch.  The SP free queue drains every
        epoch and holds nothing here.
        """
        for state in self._sources:
            for item in islice(reversed(state.carryover), state.fresh_items):
                if isinstance(item.records, RecordBatch):
                    item.records = arena.own(item.records)
        for _, item in islice(reversed(self._sp_pending), self._fresh_sp_pending):
            if isinstance(item.records, RecordBatch):
                item.records = arena.own(item.records)

    def _prepare_run_collectors(
        self, warmup: int
    ) -> Tuple[ClusterMetrics, Dict[str, RunMetrics]]:
        """Fresh aggregation containers for one run of this executor."""
        return self.epoch_engine.run_collectors(
            warmup,
            {
                "query": self.plan.query_name,
                "num_sources": self.num_sources,
                "ingress_bandwidth_mbps": self.link.bandwidth_mbps,
                "sp_compute_capacity_s": self.sp_compute_capacity_s,
            },
        )

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _remaining_demand(state: _CarryoverSourceState) -> float:
        """Bytes this source still needs to move across the link.

        ``carryover_bytes`` keeps a partially-crossed head item fully
        accounted at the source; only the head item can carry progress (a
        completing record resets it), so the un-crossed remainder is the
        total minus that progress.
        """
        demand = state.carryover_bytes
        if state.carryover:
            demand -= state.carryover[0].progress_bytes
        return max(0.0, demand)

    def _enqueue_transfers(
        self, state: _CarryoverSourceState, src: SourceEpochResult
    ) -> Tuple[float, float]:
        """Queue one epoch's outbound data.

        Returns the new bytes enqueued and the source's
        :attr:`~repro.simulation.pipeline.SourceEpochResult.network_bytes`.
        Drained and emitted sizes are whole bytes, so the running sum of
        their items is exactly ``drained_bytes + emitted_bytes``: the
        accountant's ``network_bytes`` is that sum plus the partial state,
        with nothing sized twice.
        """
        queued_items = len(state.carryover)
        new_bytes = 0.0
        drained_sizes = src.drained_sizes
        for (stage_index, records), drained_bytes in zip(src.drained, drained_sizes):
            if not records:
                continue
            batch = records if isinstance(records, RecordBatch) else list(records)
            size = float(drained_bytes)
            state.carryover.append(
                _TransferItem(stage_index=stage_index, records=batch, size_bytes=size)
            )
            new_bytes += size
        if src.emitted:
            emitted = src.emitted
            batch = emitted if isinstance(emitted, RecordBatch) else list(emitted)
            size = src.emitted_bytes
            state.carryover.append(
                _TransferItem(stage_index=-1, records=batch, size_bytes=size)
            )
            new_bytes += size
        network_bytes = new_bytes + src.partial_state_bytes
        if src.partial_states:
            per_stage_bytes = src.partial_state_bytes / max(1, len(src.partial_states))
            for stage_index, blob in src.partial_states.items():
                state.carryover.append(
                    _TransferItem(
                        stage_index=-2,
                        state=blob,
                        state_stage=stage_index,
                        size_bytes=per_stage_bytes,
                    )
                )
                new_bytes += per_stage_bytes
        state.carryover_bytes += new_bytes
        state.fresh_items = len(state.carryover) - queued_items
        return new_bytes, network_bytes

    @staticmethod
    def _plan_item_transfer(
        records: RecordContainer,
        drained: bool,
        progress_bytes: float,
        budget: float,
        tolerance: float,
    ) -> TransferPlan:
        """Fit a FIFO record run into ``budget`` via the shared count-based
        arithmetic — one closed-form step for a batch, whose rows share one
        size, one cumulative walk for record objects.  Both execution modes
        go through :func:`~repro.simulation.network.plan_fifo_transfer`,
        which is what keeps their byte accounting bit-identical.
        """
        overhead = DRAIN_HEADER_BYTES if drained else 0
        if isinstance(records, RecordBatch):
            return plan_fifo_transfer(
                len(records),
                budget,
                progress_bytes,
                uniform_size=records.uniform_size_bytes + overhead,
                tolerance=tolerance,
            )
        # A lazy generator: the planner stops pulling sizes once the budget
        # is exhausted, so a long queued item is never walked past the
        # records that actually ship this epoch.
        sizes = (record.size_bytes + overhead for record in records)
        return plan_fifo_transfer(
            len(records), budget, progress_bytes, sizes=sizes, tolerance=tolerance
        )

    def _ship(
        self, state: _CarryoverSourceState, allocation: float
    ) -> Tuple[float, float]:
        """Move up to ``allocation`` bytes from the carryover queue to the SP.

        Returns the bytes sent and the source's remaining demand after
        shipping (:meth:`_remaining_demand`, from the queue as it is left).

        FIFO byte-serialised transfer: record batches are delivered to the SP
        record by record as their bytes complete; a partial-state blob is
        delivered once all of its bytes have crossed (which may take several
        epochs — progress persists on the item).  Only *completed* records and
        blobs are handed to the SP item: the partial bytes of a still-crossing
        head record stay accounted at the source (``carryover_bytes``) until
        the record finishes, so ``sp_backlog_bytes`` — and the goodput debit
        derived from it — never counts data that has not fully crossed the
        link.

        A record item's ``size_bytes`` is the exact byte total of the records
        it still holds, so a batch whose remaining bytes fit what is left of
        the allocation moves to the SP queue as it is, uncut: that is exactly
        what planning it would complete, since every record of it completes.
        Only a batch that ships in part is planned
        (:func:`~repro.simulation.network.plan_fifo_transfer`) and cut.
        Record lists are always planned and cut item by item, so object
        mode, the reference the arena runs are checked against, ships every
        item through the planner.

        Items whose remaining bytes are zero (e.g. a partial-state blob whose
        measured size rounded to nothing) are delivered unconditionally, even
        on a zero-byte allocation: they consume no link capacity, and leaving
        one parked at the carryover head would block the queue forever, since
        a source with no byte demand is never granted an allocation to ship
        it with.
        """
        tolerance = 1e-9
        carryover = state.carryover
        budget_bytes = allocation
        sent_bytes = 0.0
        completed_bytes = 0.0
        while carryover:
            item = carryover[0]
            if item.stage_index == -2:
                remaining_bytes = item.size_bytes - item.progress_bytes
                if remaining_bytes > tolerance and budget_bytes <= tolerance:
                    break
                take_bytes = min(budget_bytes, remaining_bytes)
                item.progress_bytes += take_bytes
                sent_bytes += take_bytes
                budget_bytes -= take_bytes
                if item.size_bytes - item.progress_bytes <= tolerance:
                    completed_bytes += item.size_bytes
                    carryover.popleft()
                    self._sp_free.append((state.name, item))
                continue
            drained = item.stage_index >= 0
            queue = self._sp_pending if drained else self._sp_free
            if (
                isinstance(item.records, RecordBatch)
                and item.size_bytes <= budget_bytes + item.progress_bytes + tolerance
            ):
                take_bytes = item.size_bytes - item.progress_bytes
                item.progress_bytes = 0.0
                sent_bytes += take_bytes
                budget_bytes -= take_bytes
                completed_bytes += item.size_bytes
                carryover.popleft()
                queue.append((state.name, item))
                continue
            plan = self._plan_item_transfer(
                item.records, drained, item.progress_bytes, budget_bytes, tolerance
            )
            if plan.completed_records:
                shipped = item.records[: plan.completed_records]
                item.records = item.records[plan.completed_records :]
                item.size_bytes -= plan.completed_bytes
                completed_bytes += plan.completed_bytes
                queue.append(
                    (
                        state.name,
                        _TransferItem(
                            stage_index=item.stage_index,
                            records=shipped,
                            size_bytes=float(plan.completed_bytes),
                        ),
                    )
                )
            item.progress_bytes = plan.new_progress_bytes
            sent_bytes += plan.sent_bytes
            budget_bytes = plan.budget_left
            if item.records:
                break  # allocation exhausted mid-batch
            carryover.popleft()
        carryover_bytes = max(0.0, state.carryover_bytes - completed_bytes)
        state.carryover_bytes = carryover_bytes
        if carryover:
            carryover_bytes -= carryover[0].progress_bytes
        return sent_bytes, max(0.0, carryover_bytes)

    def _drain_sp_free(self) -> None:
        """Phase 3a: drain every free item that crossed the link this epoch.

        Free items — partial-state merges and already-final emitted records —
        arrive on their own queue and drain completely every epoch, so window
        merges never stall behind record batches parked at the compute cap
        (they keep their per-source FIFO order).  A state merge folds into
        the SP's operator; emitted records are final query output, which the
        scale executors do not collect, so they only leave the queue.
        """
        while self._sp_free:
            _, item = self._sp_free.popleft()
            if item.stage_index == -2:
                self.sp_pipeline.process_arrivals(
                    drained=[],
                    partial_states={item.state_stage: item.state},
                )

    def _drain_sp_pending(self, compute_budget_s: float) -> Dict[str, float]:
        """Phase 3b: process SP record batches under ``compute_budget_s``.

        Batches are processed in FIFO order while the compute used so far is
        below the budget (the final batch may overshoot by its own cost,
        bounding error at one batch); the remainder waits in place, records
        untouched.  Object mode hands the SP one batch per call, the
        reference.  Arena mode hands it a run: the head batch and the
        batches after it that enter the same stage, up to
        :data:`SP_RUN_MAX_ROWS` rows.  The SP walks the budget over the run,
        usually in one columnar pass (:meth:`StreamProcessorPipeline.
        process_arrivals`), and reports each processed batch's CPU; each is
        charged to its source in FIFO order, so both modes read the same
        numbers.  May be called more than once per epoch — the co-located
        executor uses a second pass to hand a query the compute its idle
        neighbours did not use.  Returns CPU seconds per source for this
        pass.
        """
        cpu_by_source: Dict[str, float] = {}
        cpu_used = 0.0
        pending = self._sp_pending
        runs = self.epoch_engine.arena is not None
        while pending and cpu_used < compute_budget_s:
            _, head = pending[0]
            drained = [(head.stage_index, head.records)]
            if runs:
                rows = len(head.records)
                for _, item in islice(pending, 1, None):
                    rows += len(item.records)
                    if item.stage_index != head.stage_index or rows > SP_RUN_MAX_ROWS:
                        break
                    drained.append((item.stage_index, item.records))
            batch_cpu = self.sp_pipeline.process_arrivals(
                drained=drained,
                compute_budget_s=compute_budget_s,
                cpu_used_s=cpu_used,
            ).batch_cpu_seconds
            for cpu in batch_cpu:
                name, item = pending.popleft()
                self._sources_by_name[name].sp_processed_records += len(item.records)
                cpu_used += cpu
                cpu_by_source[name] = cpu_by_source.get(name, 0.0) + cpu
        return cpu_by_source

    def _sp_pending_cost_seconds(self) -> float:
        """Lower-bound compute cost of the SP backlog (entry stage only)."""
        total = 0.0
        for _, item in self._sp_pending:
            if item.stage_index >= 0 and item.records:
                operator = self.sp_pipeline.operators[item.stage_index]
                total += self.cost_model.batch_cost(operator, len(item.records))
        return total


def homogeneous_sources(
    num_sources: int,
    workload_factory: Callable[[int], WorkloadSource],
    strategy_factory: Callable[[int], Strategy],
    budget: "float | BudgetSchedule" = 1.0,
    name_prefix: str = "source",
) -> List[SourceSpec]:
    """Build N identically-configured sources (the Figure 10 setting).

    Args:
        num_sources: How many sources to create.
        workload_factory: ``f(index) -> WorkloadSource`` — called per source so
            each gets an independent workload (typically a distinct seed).
        strategy_factory: ``f(index) -> Strategy`` — called per source so each
            runs its own decentralized strategy instance.
        budget: Shared CPU budget (or schedule) applied to every source.
    """
    if num_sources <= 0:
        raise SimulationError(f"num_sources must be positive, got {num_sources!r}")
    schedule = as_budget_schedule(budget)
    return [
        SourceSpec(
            name=f"{name_prefix}-{index}",
            workload=workload_factory(index),
            strategy=strategy_factory(index),
            budget=schedule,
        )
        for index in range(num_sources)
    ]
