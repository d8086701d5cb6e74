"""Unified per-epoch accounting engine shared by every executor.

Three executors reproduce the paper's evaluation — the single-source
:class:`~repro.simulation.executor.BuildingBlockExecutor`, the shared-link
:class:`~repro.simulation.multisource.MultiSourceExecutor` (which
:class:`~repro.simulation.sharding.ShardedClusterExecutor` tiles), and the
co-located :class:`~repro.simulation.multiquery.CoLocatedBlockExecutor`.
They used to re-implement the same per-epoch machinery, so every accounting
bugfix had to land three times.
This module is now the single home of that machinery:

* :class:`EpochEngine` owns *source stepping*: fetching an epoch's records
  (object or columnar arena mode), tracking measured record sizes and
  watermarks, running each source's pipeline under its budget, accumulating
  the record-conservation counters, and feeding the strategy its
  :class:`~repro.core.runtime.EpochObservation` feedback (including applying
  the returned load factors).  It also provides the warmup/run-loop
  scaffolding (freshness guards and metric collectors).
* :class:`EpochAccountant` owns the *accounting arithmetic*: goodput (offered
  input debited by the growth of every queue a record can park in), the
  latency estimate (half-epoch batching + source backlog drain + network +
  SP-compute delays), and :class:`~repro.simulation.metrics.EpochMetrics`
  assembly.

Executors contribute only their genuinely distinct parts: how bytes cross the
network (a private uplink, a max-min-arbitrated shared link, a two-tier
weighted split) and how SP compute is granted.  Those terms enter the
accountant as plain numbers, so both execution modes and all executors run
bit-identical accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..config import JarvisConfig, PINGMESH_RECORD_BYTES
from ..core.runtime import EpochObservation
from ..core.state import RuntimePhase, classify_query_state
from ..errors import SimulationError
from ..query.physical_plan import PhysicalPlan
from ..query.records import FleetArena, Record, RecordBatch, record_size_bytes
from .cost_model import CostModel
from .metrics import ClusterMetrics, EpochMetrics, RunMetrics
from .node import BudgetSchedule, as_budget_schedule
from .pipeline import RecordContainer, SourceEpochResult, SourcePipeline

#: Supported record representations for the simulation hot path: one
#: Python object per record (the reference), or the block-level columnar
#: :class:`FleetArena`.  Metrics are bit-identical across the two.
RECORD_MODES = ("object", "arena")


class WorkloadSource(Protocol):
    """Anything that can produce one epoch's worth of records."""

    def records_for_epoch(self, epoch: int) -> List[Record]:
        """Records arriving during ``epoch``."""
        ...  # pragma: no cover - protocol definition


class Strategy(Protocol):
    """Partitioning strategy interface (implemented in :mod:`repro.baselines`)."""

    name: str

    def initial_load_factors(self, num_stages: int) -> Sequence[float]:
        """Load factors to install before the first epoch."""
        ...  # pragma: no cover - protocol definition

    def wants_profile(self) -> bool:
        """Whether the next epoch should be executed as a profiling epoch."""
        ...  # pragma: no cover - protocol definition

    def on_epoch_end(self, observation: EpochObservation) -> Optional[Sequence[float]]:
        """React to an epoch; return new load factors or None to keep them."""
        ...  # pragma: no cover - protocol definition



def validate_record_mode(record_mode: str) -> str:
    """Validate and return an execution-mode knob value."""
    if record_mode not in RECORD_MODES:
        raise SimulationError(
            f"record_mode must be one of {RECORD_MODES}, got {record_mode!r}"
        )
    return record_mode


def pad_load_factors(factors: Sequence[float], num_stages: int) -> List[float]:
    """Pad/truncate a strategy's load factors to the source stage count.

    Strategies reason about the full operator chain; if the physical plan
    keeps some operators SP-only, the source pipeline is shorter and trailing
    factors are ignored.
    """
    padded = list(factors[:num_stages])
    padded += [0.0] * (num_stages - len(padded))
    return padded


def last_event_time(records: RecordContainer) -> Optional[float]:
    """Event time of the last record in a container (None when empty)."""
    if not records:
        return None
    if isinstance(records, RecordBatch):
        return records.event_times[-1]
    return records[-1].event_time


class SourceState:
    """Engine-owned per-source simulation state.

    Holds everything the shared accounting needs: the source's pipeline and
    strategy, measured record sizes, watermark, previous-epoch queue levels
    (for goodput debits), and the cumulative record-conservation counters.
    Executors subclass it to append their arbitration state (e.g. the
    multi-source carryover queue).
    """

    def __init__(
        self,
        name: str,
        workload: WorkloadSource,
        strategy: Strategy,
        budget: "float | BudgetSchedule",
        pipeline: SourcePipeline,
    ) -> None:
        self.name = name
        self.workload = workload
        self.strategy = strategy
        self.budget = as_budget_schedule(budget)
        self.pipeline = pipeline
        #: Row-owner id inside the engine's fleet arena (arena mode only);
        #: reassigned by the adopting engine when the source migrates.
        self.arena_id = -1
        #: Measured mean record size; the Pingmesh probe-record size the
        #: paper reports (Section II-B) until a non-empty epoch measures one.
        self.avg_record_bytes = float(PINGMESH_RECORD_BYTES)
        self.watermark: Optional[float] = None
        #: Previous-epoch byte level of the source operator backlog.
        self.prev_backlog_bytes = 0.0
        #: Previous-epoch byte levels of executor-named shared queues
        #: (network carryover, SP backlog, ...), keyed by queue name.
        self.prev_queue_bytes: Dict[str, float] = {}
        #: Cumulative record-conservation counters.
        self.records_injected = 0
        self.records_rejected = 0
        num_stages = pipeline.num_stages
        self.forwarded_per_stage = [0] * num_stages
        self.processed_per_stage = [0] * num_stages
        self.queue_drained_per_stage = [0] * num_stages
        self.rejected_per_stage = [0] * num_stages
        #: Drain-path accounting: records shipped towards the SP vs processed.
        self.drained_records = 0
        self.sp_processed_records = 0


@dataclass
class SourceStepResult:
    """Everything one source produced during one engine step.

    ``epoch_watermark`` is the watermark observed *this* epoch (None on an
    empty epoch); ``state.watermark`` keeps the sticky last-seen value the
    multi-source watermark advancement uses.
    """

    state: SourceState
    result: SourceEpochResult
    budget_fraction: float
    epoch_watermark: Optional[float]


class EpochEngine:
    """Steps a set of sources and keeps their shared accounting state.

    The engine is deliberately network-agnostic: it returns each source's
    :class:`~repro.simulation.pipeline.SourceEpochResult` and leaves the
    outbound bytes to the owning executor's arbitration (private link,
    max-min shared link, or hierarchical multi-query split).
    """

    def __init__(
        self,
        cost_model: CostModel,
        config: Optional[JarvisConfig] = None,
        record_mode: str = "object",
    ) -> None:
        self.cost_model = cost_model
        self.config = config or JarvisConfig()
        self.record_mode = validate_record_mode(record_mode)
        #: Arena mode stacks every source's epoch input into one block-level
        #: columnar batch; the per-source views handed to the pipelines alias
        #: its recycled buffers, so epoch stepping is allocation-free.
        self.arena: Optional[FleetArena] = (
            FleetArena() if self.record_mode == "arena" else None
        )
        self._next_arena_id = 0
        self._sources: List[SourceState] = []
        self._by_name: Dict[str, SourceState] = {}
        self._epoch = 0

    # -- introspection -----------------------------------------------------------

    @property
    def epoch_duration_s(self) -> float:
        return self.config.epoch.duration_s

    @property
    def epochs_run(self) -> int:
        """How many epochs this engine has stepped so far."""
        return self._epoch

    @property
    def num_sources(self) -> int:
        return len(self._sources)

    @property
    def sources(self) -> List[SourceState]:
        return self._sources

    def source(self, name: str) -> SourceState:
        if name not in self._by_name:
            raise SimulationError(f"unknown source {name!r}")
        return self._by_name[name]

    def source_names(self) -> List[str]:
        return [state.name for state in self._sources]

    # -- construction ------------------------------------------------------------

    def add_source(
        self,
        name: str,
        workload: WorkloadSource,
        strategy: Strategy,
        budget: "float | BudgetSchedule",
        plan: PhysicalPlan,
        state_factory: type = SourceState,
    ) -> SourceState:
        """Create a source: its pipeline, initial load factors, and state."""
        if name in self._by_name:
            raise SimulationError(f"source {name!r} already registered")
        pipeline = SourcePipeline(
            operators=plan.source_operators(),
            cost_model=self.cost_model,
            thresholds=self.config.thresholds,
            window_length_s=plan.window_length_s,
            epoch_duration_s=self.epoch_duration_s,
            allow_congestion_relief=getattr(strategy, "supports_drain", True),
        )
        initial = strategy.initial_load_factors(pipeline.num_stages)
        pipeline.set_load_factors(pad_load_factors(initial, pipeline.num_stages))
        state = state_factory(name, workload, strategy, budget, pipeline)
        self._register_arena_source(state)
        self._sources.append(state)
        self._by_name[name] = state
        return state

    def _register_arena_source(self, state: SourceState) -> None:
        """Arena mode: give the source a row-owner id in the fleet arena."""
        if self.arena is None:
            return
        state.arena_id = self._next_arena_id
        self._next_arena_id += 1

    # -- live migration ----------------------------------------------------------

    def remove_source(self, name: str) -> SourceState:
        """Detach one source's state so another engine can adopt it.

        The returned :class:`SourceState` carries everything accounting needs
        to stay continuous across a live migration — the source pipeline (with
        its queues and epoch clock), the strategy instance, the previous-epoch
        queue levels the goodput debits difference against, and the cumulative
        record-conservation counters.
        """
        state = self.source(name)
        self._sources.remove(state)
        del self._by_name[name]
        return state

    def adopt_source(self, state: SourceState) -> SourceState:
        """Adopt a source detached from another engine (live migration).

        The adopting engine must be step-aligned with the donor (same number
        of epochs run) so the source's pipeline epoch clock and per-epoch
        metrics stay on one continuous timeline, and must run the same record
        mode so the source keeps consuming the representation its pipeline
        state was built with.
        """
        if state.name in self._by_name:
            raise SimulationError(f"source {state.name!r} already registered")
        self._register_arena_source(state)
        self._sources.append(state)
        self._by_name[state.name] = state
        return state

    # -- stepping ----------------------------------------------------------------

    def fetch_records(self, workload: WorkloadSource, epoch: int) -> RecordContainer:
        """One epoch's records in the engine's record representation.

        Arena mode prefers a workload's native ``batch_for_epoch`` (columns
        built directly, no record objects); workloads without one are adapted
        via :meth:`RecordBatch.from_records`, which pays the object cost once
        at generation but keeps everything downstream columnar.
        """
        if self.record_mode != "object":
            batch_fn = getattr(workload, "batch_for_epoch", None)
            if batch_fn is not None:
                return batch_fn(epoch)
            records = workload.records_for_epoch(epoch)
            if not records:
                return records
            return RecordBatch.from_records(records)
        return workload.records_for_epoch(epoch)

    def step_sources(self) -> List[SourceStepResult]:
        """Step every source one epoch; returns per-source step results.

        Each source runs one epoch of its own pipeline under its own CPU
        budget, driven by its own decentralized strategy instance (sources
        never coordinate, Section IV-A); the conservation counters and
        strategy feedback are applied before returning.

        Arena mode runs a fleet-wide fill phase first: every source's epoch
        input lands in one block-level :class:`FleetArena`, and the per-source
        step consumes a zero-copy view of the block arrays.
        """
        epoch = self._epoch
        self._epoch += 1
        fetched = self._fill_arena(epoch) if self.arena is not None else None
        return [
            self._step_source(
                state, epoch, None if fetched is None else fetched[state.name]
            )
            for state in self._sources
        ]

    def _fill_arena(self, epoch: int) -> Dict[str, RecordContainer]:
        """Arena fill phase: stack every source's epoch input into the block.

        Workloads with a native ``fill_arena`` write their columns straight
        into reserved buffer slices (allocation-free); anything else is
        fetched normally and copied in when schema-compatible.  Views are
        built only after every source has reserved its rows, so buffer growth
        can never leave an earlier source's view pointing at stale memory.
        Sources whose input cannot live in the arena (empty epochs, ragged
        sizes, non-numeric columns) keep their fetched container as-is.
        """
        arena = self.arena
        arena.begin_epoch(epoch)
        fetched: Dict[str, Optional[RecordContainer]] = {}
        pending: List[SourceState] = []
        for state in self._sources:
            fill = getattr(state.workload, "fill_arena", None)
            if fill is not None and fill(epoch, arena, state.arena_id):
                fetched[state.name] = None
                pending.append(state)
                continue
            records = self.fetch_records(state.workload, epoch)
            if (
                isinstance(records, RecordBatch)
                and len(records)
                and arena.append_batch(state.arena_id, records)
            ):
                fetched[state.name] = None
                pending.append(state)
            else:
                fetched[state.name] = records
        for state in pending:
            fetched[state.name] = arena.view(state.arena_id)
        return fetched

    def _own_escaping(self, state: SourceState) -> None:
        """Detach the source's operator queues from the arena.

        The arena recycles its buffers at the next fill, and stage queues
        outlive the epoch by construction, so each one owns its columns right
        after the source steps.  The epoch result's drained and emitted
        containers stay views: the executor consumes them within the block
        epoch and owns whatever it still queues when the epoch ends
        (:meth:`~repro.simulation.multisource.MultiSourceExecutor._finish_epoch`).
        :meth:`FleetArena.own` copies only columns that actually alias the
        live buffers, so batches that were filtered, concatenated, or
        re-fetched stay untouched.
        """
        arena = self.arena
        for stage in state.pipeline.stages:
            if isinstance(stage.queue, RecordBatch):
                stage.queue = arena.own(stage.queue)

    def _step_source(
        self,
        state: SourceState,
        epoch: int,
        prefetched: Optional[RecordContainer] = None,
    ) -> SourceStepResult:
        if prefetched is not None:
            records = prefetched
        else:
            records = self.fetch_records(state.workload, epoch)
        state.records_injected += len(records)
        epoch_watermark: Optional[float] = None
        if records:
            state.avg_record_bytes = max(
                1.0, record_size_bytes(records) / len(records)
            )
            epoch_watermark = last_event_time(records)
            state.watermark = epoch_watermark
        budget_fraction = state.budget.budget_at(epoch)
        src = state.pipeline.run_epoch(
            records, budget_fraction, profile=state.strategy.wants_profile()
        )
        if self.arena is not None:
            self._own_escaping(state)
        for stage, count in enumerate(src.processed_per_stage):
            state.processed_per_stage[stage] += count
        for stage, count in enumerate(src.forwarded_per_stage):
            state.forwarded_per_stage[stage] += count
        for stage, count in enumerate(src.queue_drained_per_stage):
            state.queue_drained_per_stage[stage] += count
        for stage, count in enumerate(src.rejected_per_stage):
            state.rejected_per_stage[stage] += count
        state.drained_records += src.drained_records
        state.records_rejected += src.rejected_records

        observation = EpochObservation(
            epoch=epoch,
            proxy_observations=src.observations,
            compute_budget=budget_fraction,
            records_injected=src.records_in,
            measured_costs=src.measured_costs,
            measured_relays=src.measured_relays,
            records_processed=src.processed_per_stage,
        )
        new_factors = state.strategy.on_epoch_end(observation)
        if new_factors is not None:
            state.pipeline.set_load_factors(
                pad_load_factors(new_factors, state.pipeline.num_stages)
            )
        return SourceStepResult(state, src, budget_fraction, epoch_watermark)

    # -- record conservation -----------------------------------------------------

    def conservation_report(
        self, drain_in_flight: Optional[Mapping[str, int]] = None
    ) -> Dict[str, Dict[str, object]]:
        """Record-accounting snapshot per source (used by property tests).

        ``drain_in_flight`` is the executor's view of drained records that
        have not reached SP processing yet (carryover queues plus SP compute
        backlog); the engine contributes everything it tracks itself.

        Two invariants must hold for every source:

        * per stage ``s``: every record forwarded into the stage's queue was
          either processed there, drained from the queue towards the SP,
          rejected by backpressure, or is still queued —
          ``forwarded[s] == processed[s] + queue_drained[s] + rejected[s]
          + queued[s]``;
        * drain path: every record drained by the source (proxy-level or from
          a queue) is processed at the SP exactly once or still in flight —
          ``drained == sp_processed + in carryover + in SP backlog``.
        """
        in_flight = drain_in_flight or {}
        report: Dict[str, Dict[str, object]] = {}
        for state in self._sources:
            report[state.name] = {
                "injected": state.records_injected,
                "rejected": state.records_rejected,
                "forwarded_per_stage": list(state.forwarded_per_stage),
                "processed_per_stage": list(state.processed_per_stage),
                "queue_drained_per_stage": list(state.queue_drained_per_stage),
                "rejected_per_stage": list(state.rejected_per_stage),
                "queued_per_stage": [
                    len(stage.queue) for stage in state.pipeline.stages
                ],
                "drained_records": state.drained_records,
                "sp_processed_records": state.sp_processed_records,
                "drain_in_flight_records": in_flight.get(state.name, 0),
            }
        return report

    def verify_conservation(
        self, drain_in_flight: Optional[Mapping[str, int]] = None
    ) -> List[str]:
        """Check the conservation invariants; returns violation descriptions.

        An empty list means every record is accounted for exactly once.
        Between epochs, an operator queue still viewing the arena is a
        violation too: the next fill overwrites the records it holds.
        """
        violations: List[str] = []
        arena = self.arena
        if arena is not None:
            violations.extend(
                f"{state.name} stage {stage}: the queue's {len(step.queue)} "
                "records alias the recycled arena"
                for state in self._sources
                for stage, step in enumerate(state.pipeline.stages)
                if arena.aliased_by(step.queue)
            )
        for name, stats in self.conservation_report(drain_in_flight).items():
            per_stage = zip(
                stats["forwarded_per_stage"],
                stats["processed_per_stage"],
                stats["queue_drained_per_stage"],
                stats["rejected_per_stage"],
                stats["queued_per_stage"],
            )
            for stage, (fwd, proc, drained, rejected, queued) in enumerate(per_stage):
                if fwd != proc + drained + rejected + queued:
                    violations.append(
                        f"{name} stage {stage}: forwarded {fwd} != processed "
                        f"{proc} + drained {drained} + rejected {rejected} "
                        f"+ queued {queued}"
                    )
            accounted = (
                stats["sp_processed_records"] + stats["drain_in_flight_records"]
            )
            if stats["drained_records"] != accounted:
                violations.append(
                    f"{name} drain path: drained {stats['drained_records']} != "
                    f"SP-processed {stats['sp_processed_records']} + in-flight "
                    f"{stats['drain_in_flight_records']}"
                )
        return violations

    # -- run-loop scaffolding ----------------------------------------------------

    def ensure_fresh(self) -> None:
        """Guard ``run()`` entry: a run must start from an unstepped engine."""
        if self._epoch != 0:
            raise SimulationError(
                f"run() needs a fresh executor, but {self._epoch} epoch(s) have "
                "already been stepped; build a new executor for a new run"
            )

    def make_run_metrics(
        self, warmup: int, metadata: Optional[Dict[str, object]] = None
    ) -> RunMetrics:
        """A fresh per-source run collector with the engine's epoch length."""
        return RunMetrics(
            epoch_duration_s=self.epoch_duration_s,
            warmup_epochs=warmup,
            metadata=dict(metadata or {}),
        )

    def run_collectors(
        self, warmup: int, cluster_metadata: Optional[Dict[str, object]] = None
    ) -> Tuple[ClusterMetrics, Dict[str, RunMetrics]]:
        """Fresh aggregation containers for one run over this engine's fleet."""
        cluster = ClusterMetrics(
            epoch_duration_s=self.epoch_duration_s,
            warmup_epochs=warmup,
            metadata=dict(cluster_metadata or {}),
        )
        per_source_runs = {
            state.name: self.make_run_metrics(
                warmup,
                {
                    "strategy": getattr(state.strategy, "name", "unknown"),
                    "source": state.name,
                },
            )
            for state in self._sources
        }
        return cluster, per_source_runs


class EpochAccountant:
    """Single home of the per-epoch accounting arithmetic.

    Every formula here used to exist two or three times across the executors;
    the executors now feed this class their network/SP terms as plain numbers
    and get :class:`EpochMetrics` back.  Keeping the arithmetic in one place
    (and applying debits in the caller-given order) is what makes the K=1
    sharding, single-co-located-query, and arena/object equivalences exact.
    """

    @staticmethod
    def mean_positive_stage_cost(
        cost_model: CostModel, pipeline: SourcePipeline
    ) -> float:
        """Mean per-record cost over the pipeline's positive-cost stages."""
        costs = [
            cost_model.cost_per_record(stage.operator) for stage in pipeline.stages
        ]
        positive = [cost for cost in costs if cost > 0]
        return sum(positive) / len(positive) if positive else 0.0

    @staticmethod
    def backlog_drain_seconds(
        backlog_records: int, mean_stage_cost: float, budget_fraction: float
    ) -> float:
        """Time to clear the source backlog at the current budget."""
        if budget_fraction > 0:
            return backlog_records * mean_stage_cost / budget_fraction
        return 0.0 if backlog_records == 0 else float("inf")

    @staticmethod
    def goodput_bytes(input_bytes: float, debits: Iterable[float]) -> float:
        """Offered input minus queue growth and rejections, clamped to [0, input].

        Goodput debits growth in *every* queue a record can park in (source
        operator queues, network queues, SP compute backlog) plus rejected
        bytes; shrinking queues are credited back, so transient build-up
        followed by catch-up nets out and goodput measures the sustainable
        service rate.
        """
        total = input_bytes
        for debit in debits:
            total -= debit
        return max(0.0, min(input_bytes, total))

    @staticmethod
    def latency_s(
        epoch_duration_s: float,
        backlog_seconds: float,
        network_delay_s: float,
        sp_delay_s: float = 0.0,
    ) -> float:
        """Half an epoch of batching plus backlog, network, and SP delays."""
        return 0.5 * epoch_duration_s + backlog_seconds + network_delay_s + sp_delay_s

    @staticmethod
    def strategy_phase(strategy: Strategy) -> Optional[RuntimePhase]:
        """The strategy's runtime phase, when it exposes a valid one."""
        phase = getattr(strategy, "phase", None)
        if phase is not None and not isinstance(phase, RuntimePhase):
            return None
        return phase

    @classmethod
    def finish_source_epoch(
        cls,
        state: SourceState,
        src: SourceEpochResult,
        budget_fraction: float,
        cost_model: CostModel,
        epoch_duration_s: float,
        *,
        shared_queue_bytes: Sequence[Tuple[str, float]] = (),
        sent_bytes: float,
        reported_queue_bytes: float,
        network_delay_s: float,
        sp_cpu_seconds: float,
        sp_delay_s: float = 0.0,
    ) -> EpochMetrics:
        """Assemble one source's epoch metrics from its executor's terms.

        Args:
            shared_queue_bytes: ``(queue name, current byte level)`` pairs for
                every executor-owned queue whose growth debits goodput, in
                debit order; the previous levels live on ``state`` so the
                growth accounting survives across epochs.
            sent_bytes: Bytes this source moved across its link this epoch.
            reported_queue_bytes: The queue level reported as
                ``network_queue_bytes`` (uplink queue or carryover backlog).
            network_delay_s: The latency estimate's network term.
            sp_cpu_seconds: SP compute attributed to this source this epoch.
            sp_delay_s: The latency estimate's SP-compute-backlog term.
        """
        backlog_bytes = src.backlog_records * state.avg_record_bytes
        debits = [backlog_bytes - state.prev_backlog_bytes]
        state.prev_backlog_bytes = backlog_bytes
        for queue_name, queue_bytes in shared_queue_bytes:
            debits.append(queue_bytes - state.prev_queue_bytes.get(queue_name, 0.0))
            state.prev_queue_bytes[queue_name] = queue_bytes
        debits.append(src.rejected_records * state.avg_record_bytes)
        goodput = cls.goodput_bytes(src.input_bytes, debits)

        backlog_seconds = cls.backlog_drain_seconds(
            src.backlog_records,
            cls.mean_positive_stage_cost(cost_model, state.pipeline),
            budget_fraction,
        )
        latency = cls.latency_s(
            epoch_duration_s, backlog_seconds, network_delay_s, sp_delay_s
        )

        return EpochMetrics(
            epoch=src.epoch,
            input_bytes=src.input_bytes,
            goodput_bytes=goodput,
            network_bytes_offered=src.network_bytes,
            network_bytes_sent=sent_bytes,
            network_queue_bytes=reported_queue_bytes,
            cpu_used_seconds=src.cpu_used_seconds,
            cpu_budget_seconds=src.cpu_budget_seconds,
            sp_cpu_seconds=sp_cpu_seconds,
            source_backlog_records=src.backlog_records,
            latency_s=latency,
            query_state=classify_query_state(obs.state for obs in src.observations),
            runtime_phase=cls.strategy_phase(state.strategy),
            load_factors=tuple(state.pipeline.load_factors()),
        )
