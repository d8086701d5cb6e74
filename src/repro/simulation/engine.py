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
  (object or columnar arena mode), stepping every source's pipeline under
  its own budget, tracking measured record sizes, accumulating the
  record-conservation counters, and feeding each strategy its
  :class:`~repro.core.runtime.EpochObservation` feedback (including applying
  the returned load factors).  The pipelines of one engine run one plan and
  step together, stage by stage: one array pass per stage decides every
  source's counts, a row-masking operator runs one pass over the whole
  block's arena rows and the G+R one pass over the rows that reach it,
  while every per-source number and group state stays that source's own.
  The counters and record sizes of the whole block are one array pass; the
  strategy feedback stays per source (Section IV-A).  The engine also
  provides the warmup/run-loop scaffolding (freshness guards and metric
  collectors).
* :class:`EpochAccountant` owns the *accounting arithmetic*: goodput (offered
  input debited by the growth of every queue a record can park in), the
  latency estimate (half-epoch batching + source backlog drain + network +
  SP-compute delays), the query state, and
  :class:`~repro.simulation.metrics.EpochMetrics` assembly.  It computes
  every source of a block in one pass over arrays
  (:meth:`EpochAccountant.finish_block_epoch`), repeating each source's
  IEEE operations in the same order;
  :meth:`EpochAccountant.finish_source_epoch` is its one-source form.

Executors contribute only their genuinely distinct parts: how bytes cross the
network (a private uplink, a max-min-arbitrated shared link, a two-tier
weighted split) and how SP compute is granted.  Those terms enter the
accountant as plain numbers, so both execution modes and all executors run
bit-identical accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from ..config import JarvisConfig, PINGMESH_RECORD_BYTES
from ..core.runtime import EpochObservation
from ..core.state import RuntimePhase, classify_query_states
from ..errors import SimulationError
from ..query.physical_plan import PhysicalPlan
from ..query.records import FleetArena, Record, RecordBatch
from .cost_model import CostModel
from .metrics import ClusterMetrics, EpochMetrics, RunMetrics
from .node import BudgetSchedule, as_budget_schedule
from .pipeline import (
    BlockEpoch,
    RecordContainer,
    SourceEpochResult,
    SourcePipeline,
    run_block_epoch,
)

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


class SourceState:
    """Engine-owned per-source simulation state.

    Holds everything the shared accounting needs: the source's pipeline and
    strategy, measured record sizes, previous-epoch queue levels
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
class BlockStep:
    """One engine step: every source's epoch, in source order."""

    states: List[SourceState]
    #: Each source's CPU budget this epoch, as its schedule gave it.
    budget_fractions: List[float]
    block: BlockEpoch

    @property
    def results(self) -> List[SourceEpochResult]:
        return self.block.results


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
        #: The operator chain every source runs (:meth:`_check_plan`).
        self._chain: Optional[List[Tuple[object, ...]]] = None
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
        """Create a source: its pipeline, initial load factors, and state.

        A plan that keeps operators on the stream processor only (rules R-1
        and R-2) is refused: the source pipeline runs just the offloadable
        prefix, and every executor takes its output as final, so the SP-only
        operators would never run.  So is a second plan: the engine steps
        its sources stage by stage, so they all run one plan
        (:meth:`_check_plan`).
        """
        remote_only = plan.remote_only_stages()
        if remote_only:
            names = ", ".join(stage.operator.name for stage in remote_only)
            raise SimulationError(
                f"plan {plan.query_name!r} keeps {names} on the stream "
                "processor only; the executors cannot route a source's output "
                "into SP-only operators yet"
            )
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
        self._check_plan(name, pipeline)
        initial = strategy.initial_load_factors(pipeline.num_stages)
        pipeline.set_load_factors(pad_load_factors(initial, pipeline.num_stages))
        state = state_factory(name, workload, strategy, budget, pipeline)
        self._register_arena_source(state)
        self._sources.append(state)
        self._by_name[name] = state
        return state

    def _check_plan(self, name: str, pipeline: SourcePipeline) -> None:
        """Refuse a source whose pipeline runs another plan than the engine's.

        The block stepper runs every pipeline's stage ``k`` together, a
        row-masking stage applies one pipeline's mask to all of them, and a
        stage's per-record cost is read off one of them, so every source
        must run the same operator chain: the same operator classes, names,
        cost hints and table sizes, stage by stage.  The first source fixes
        it.
        """
        chain: List[Tuple[object, ...]] = [
            (
                type(stage.operator),
                stage.operator.name,
                stage.operator.cost_hint,
                getattr(stage.operator, "table_size", None),
            )
            for stage in pipeline.stages
        ]
        if self._chain is None:
            self._chain = chain
        elif chain != self._chain:
            raise SimulationError(
                f"source {name!r} runs the operators "
                f"{[link[1:] for link in chain]}, but this engine steps "
                f"{[link[1:] for link in self._chain]}; an engine serves one plan"
            )

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
        state was built with.  A source of another plan is refused, as in
        :meth:`add_source`.
        """
        if state.name in self._by_name:
            raise SimulationError(f"source {state.name!r} already registered")
        self._check_plan(state.name, state.pipeline)
        self._register_arena_source(state)
        self._sources.append(state)
        self._by_name[state.name] = state
        return state

    # -- stepping ----------------------------------------------------------------

    def fetch_records(self, workload: WorkloadSource, epoch: int) -> RecordContainer:
        """One epoch's records in the engine's record representation.

        Arena mode takes a workload's native ``batch_for_epoch`` (columns
        built directly, no record objects).  A workload without one — the
        variable-size LogAnalytics stream — hands over its record objects,
        which run the object path in either mode.
        """
        if self.record_mode != "object":
            batch_fn = getattr(workload, "batch_for_epoch", None)
            if batch_fn is not None:
                return batch_fn(epoch)
        return workload.records_for_epoch(epoch)

    def step_sources(self) -> BlockStep:
        """Step every source one epoch; returns the block's step.

        Each source runs one epoch of its own pipeline under its own CPU
        budget, driven by its own decentralized strategy instance (sources
        never coordinate, Section IV-A).  The pipelines step together, stage
        by stage (:func:`~repro.simulation.pipeline.run_block_epoch`): one
        array pass per stage decides every source's counts, a row-masking
        stage runs one pass over every source's arena rows, and the G+R one
        pass over the survivors that reach it, each source appending its
        own rows to its own group state; the joins, queue concatenations
        and record objects run per source.  Each source's numbers are
        exactly those of its own pipeline epoch.  The conservation counters
        are applied in one pass and the strategy feedback per source
        (:meth:`_finish_step`) before returning; a strategy whose plan did
        not change returns None, and its pipeline keeps its load factors.

        Arena mode runs a fleet-wide fill phase first (:meth:`_fill_arena`):
        every source's epoch input lands in one block-level
        :class:`FleetArena`, runs of same-shape generated sources written by
        one kernel call each, and each pipeline consumes a zero-copy view of
        the block arrays.
        """
        epoch = self._epoch
        self._epoch += 1
        sources = list(self._sources)
        if self.arena is not None:
            inputs = self._fill_arena(epoch)
        else:
            inputs = [self.fetch_records(state.workload, epoch) for state in sources]
        budgets = [state.budget.budget_at(epoch) for state in sources]
        block = run_block_epoch(
            [state.pipeline for state in sources],
            inputs,
            budgets,
            [state.strategy.wants_profile() for state in sources],
            self.arena,
        )
        if self.arena is not None:
            # Only a source whose stage queues hold rows can hold a view.
            for source in np.flatnonzero(block.backlog_records).tolist():
                self._own_escaping(sources[source])
        step = BlockStep(sources, budgets, block)
        self._finish_step(step, epoch)
        return step

    def _fill_arena(self, epoch: int) -> List[RecordContainer]:
        """Arena fill phase: stack every source's epoch input into the block.

        Returns each source's input, in source order, for the block stepper.
        A workload whose type has the block-fill entry (``arena_units``:
        Pingmesh streams, bursts over them) reserves its rows first; once
        every source has reserved, each run of consecutive reserved rows
        whose generators share one shape is written by one call of their
        generation kernel, which runs its column operations once per chunk
        of sources instead of once per source.  Rows are written only after
        the last reservation because a reservation can grow, and so replace,
        the buffers.  Any other source takes the per-source path as it
        reserves: a native ``fill_arena`` writes its own reserved slice;
        anything else is fetched normally and copied in when
        schema-compatible.  Views are built last, and consecutive sources'
        views are consecutive row spans, which the stepper's row-mask pass
        covers in one view.  Sources whose input cannot live in the arena
        (empty epochs, record objects, a schema the arena refuses) keep
        their fetched container as-is and step alone at every stage.
        """
        arena = self.arena
        arena.begin_epoch()
        fetched: List[Optional[RecordContainer]] = []
        # (first row, units) of the block-filled sources, in source order.
        reserved: List[Tuple[int, Any]] = []
        for state in self._sources:
            entry = getattr(type(state.workload), "arena_units", None)
            units = None if entry is None else entry(state.workload, epoch)
            start = None if units is None else units.reserve(arena, state.arena_id)
            if start is not None:
                reserved.append((start, units))
                fetched.append(None)
                continue
            fill = getattr(state.workload, "fill_arena", None)
            if fill is not None and fill(epoch, arena, state.arena_id):
                fetched.append(None)
                continue
            records = self.fetch_records(state.workload, epoch)
            if (
                isinstance(records, RecordBatch)
                and len(records)
                and arena.append_batch(state.arena_id, records)
            ):
                fetched.append(None)
            else:
                fetched.append(records)
        run: List[Any] = []
        run_start = run_stop = 0
        for start, units in reserved:
            if run and (start != run_stop or units.shape != run[0].shape):
                run[0].fill(run, epoch, arena.rows(run_start, run_stop))
                run = []
            if not run:
                run_start = start
            run.append(units)
            run_stop = start + units.rows
        if run:
            run[0].fill(run, epoch, arena.rows(run_start, run_stop))
        for index, state in enumerate(self._sources):
            if fetched[index] is None:
                fetched[index] = arena.view(state.arena_id)
        return fetched

    def _own_escaping(self, state: SourceState) -> None:
        """Detach the source's operator queues from the arena.

        The arena recycles its buffers at the next fill, and stage queues
        outlive the epoch by construction, so each one owns its columns right
        after the block steps; a queue cut from a block-wide row-mask pass's
        survivors, which the arena took into buffers it recycles the same
        way (:meth:`FleetArena.take`), owns just its rows.
        The epoch result's drained and emitted containers stay views: the
        executor consumes them within the block epoch and owns whatever it
        still queues when the epoch ends
        (:meth:`~repro.simulation.multisource.MultiSourceExecutor._finish_epoch`).
        :meth:`FleetArena.own` copies only columns that actually alias the
        live buffers, so batches that were filtered per source, concatenated,
        or re-fetched stay untouched.
        """
        arena = self.arena
        for stage in state.pipeline.stages:
            if isinstance(stage.queue, RecordBatch):
                stage.queue = arena.own(stage.queue)

    def _finish_step(self, step: BlockStep, epoch: int) -> None:
        """Fold the block's epoch into every source's counters and strategy.

        One pass over the block: the measured record sizes come from its
        arrays, each source's counters stay on its own state, and the
        strategy feedback is each source's own (Section IV-A).
        """
        block = step.block
        injected = block.injected_records
        avg_record_bytes = np.maximum(
            1.0, block.input_bytes / np.maximum(1, injected)
        )
        for (
            state,
            src,
            budget_fraction,
            records_in,
            record_bytes,
            drained,
            rejected,
        ) in zip(
            step.states,
            block.results,
            step.budget_fractions,
            injected.tolist(),
            avg_record_bytes.tolist(),
            block.drained_records.tolist(),
            block.rejected_records.tolist(),
        ):
            state.records_injected += records_in
            if records_in:
                state.avg_record_bytes = record_bytes
            state.forwarded_per_stage[:] = map(
                add, state.forwarded_per_stage, src.forwarded_per_stage
            )
            state.processed_per_stage[:] = map(
                add, state.processed_per_stage, src.processed_per_stage
            )
            state.queue_drained_per_stage[:] = map(
                add, state.queue_drained_per_stage, src.queue_drained_per_stage
            )
            state.rejected_per_stage[:] = map(
                add, state.rejected_per_stage, src.rejected_per_stage
            )
            state.drained_records += drained
            state.records_rejected += rejected

            # Positional arguments, in field order, as for EpochMetrics.
            observation = EpochObservation(
                epoch,
                src.observations,
                budget_fraction,
                records_in,
                src.measured_costs,
                src.measured_relays,
                src.processed_per_stage,
            )
            new_factors = state.strategy.on_epoch_end(observation)
            if new_factors is not None:
                state.pipeline.set_load_factors(
                    pad_load_factors(new_factors, state.pipeline.num_stages)
                )

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

    The arithmetic runs on arrays over a block's sources
    (:meth:`finish_block_epoch`), repeating each source's IEEE operations in
    the same order; :meth:`finish_source_epoch` is its one-source form.
    """

    @staticmethod
    def mean_positive_stage_cost(
        cost_model: CostModel, pipeline: SourcePipeline
    ) -> float:
        """The plan's mean per-record cost over its positive-cost stages.

        Every pipeline of an engine runs one plan, so one pipeline gives it.
        """
        total_s = 0.0
        positive_stages = 0
        for stage in pipeline.stages:
            cost_s = cost_model.cost_per_record(stage.operator)
            if cost_s > 0:
                total_s += cost_s
                positive_stages += 1
        return total_s / positive_stages if positive_stages else 0.0

    @staticmethod
    def backlog_drain_seconds(
        backlog_records: np.ndarray,
        mean_stage_cost: float,
        budget_fraction: np.ndarray,
    ) -> np.ndarray:
        """Time to clear each source's backlog at its current budget: never
        with no budget and a backlog."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            drain_s = backlog_records * mean_stage_cost / budget_fraction
        return np.where(
            budget_fraction > 0,
            drain_s,
            np.where(backlog_records == 0, 0.0, np.inf),
        )

    @staticmethod
    def goodput_bytes(
        input_bytes: np.ndarray, debits: Iterable[np.ndarray]
    ) -> np.ndarray:
        """Offered input minus queue growth and rejections, clamped to [0, input].

        Goodput debits growth in *every* queue a record can park in (source
        operator queues, network queues, SP compute backlog) plus rejected
        bytes, in the caller's order; a shrinking queue credits its drop
        back.  Each epoch is clamped on its own, though: a build-up epoch
        reads at least 0, and the epoch that drains the queue is capped at
        its own input.  So a queue that builds up and then drains costs its
        size in goodput, up to one epoch of input per burst, rather than
        netting out (ROADMAP.md, item 1: goodput that nets out a drained
        burst).
        """
        total = input_bytes
        for debit in debits:
            total = total - debit
        return np.maximum(0.0, np.minimum(input_bytes, total))

    @staticmethod
    def latency_s(
        epoch_duration_s: float,
        backlog_seconds: np.ndarray,
        network_delay_s: np.ndarray,
        sp_delay_s: "float | np.ndarray" = 0.0,
    ) -> np.ndarray:
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
    def finish_block_epoch(
        cls,
        step: BlockStep,
        cost_model: CostModel,
        epoch_duration_s: float,
        *,
        shared_queue_bytes: Sequence[Tuple[str, Sequence[float]]] = (),
        network_bytes: Sequence[float],
        sent_bytes: Sequence[float],
        reported_queue_bytes: Sequence[float],
        network_delay_s: Sequence[float],
        sp_cpu_seconds: Sequence[float],
        sp_delay_s: float = 0.0,
    ) -> List[EpochMetrics]:
        """Assemble every source's epoch metrics from its executor's terms.

        One pass over the block computes the goodput debits (source
        backlog, then the shared queues in the given order, then
        rejections), the backlog-drain time, the latency and the query
        state; each per-source term is a sequence in source order.

        Args:
            shared_queue_bytes: ``(queue name, current byte levels)`` pairs for
                every executor-owned queue whose growth debits goodput, in
                debit order; the previous levels live on each source's state
                so the growth accounting survives across epochs.
            network_bytes: Each source's
                :attr:`~repro.simulation.pipeline.SourceEpochResult.network_bytes`,
                the bytes it offered its link this epoch.
            sent_bytes: Bytes each source moved across its link this epoch.
            reported_queue_bytes: The queue level reported as
                ``network_queue_bytes`` (uplink queue or carryover backlog).
            network_delay_s: The latency estimate's network term.
            sp_cpu_seconds: SP compute attributed to each source this epoch.
            sp_delay_s: The latency estimate's SP-compute-backlog term.
        """
        states = step.states
        block = step.block
        record_bytes = np.array([state.avg_record_bytes for state in states])
        backlog_bytes = block.backlog_records * record_bytes
        debits = [
            backlog_bytes - np.array([state.prev_backlog_bytes for state in states])
        ]
        for queue_name, queue_bytes in shared_queue_bytes:
            debits.append(
                np.asarray(queue_bytes, dtype=float)
                - np.array(
                    [state.prev_queue_bytes.get(queue_name, 0.0) for state in states]
                )
            )
        debits.append(block.rejected_records * record_bytes)
        goodput = cls.goodput_bytes(block.input_bytes, debits)
        for state, level_bytes in zip(states, backlog_bytes.tolist()):
            state.prev_backlog_bytes = level_bytes
        for queue_name, queue_bytes in shared_queue_bytes:
            for state, level_bytes in zip(states, queue_bytes):
                state.prev_queue_bytes[queue_name] = level_bytes

        backlog_seconds = cls.backlog_drain_seconds(
            block.backlog_records,
            cls.mean_positive_stage_cost(cost_model, states[0].pipeline)
            if states
            else 0.0,
            np.array(step.budget_fractions, dtype=float),
        )
        latency = cls.latency_s(
            epoch_duration_s,
            backlog_seconds,
            np.asarray(network_delay_s, dtype=float),
            sp_delay_s,
        )
        # Positional arguments, in field order: a named tuple builds about
        # twice as fast from them as from keywords.
        return [
            EpochMetrics(
                src.epoch,
                src.input_bytes,
                goodput_n,
                offered,
                sent,
                queued,
                src.cpu_used_seconds,
                src.cpu_budget_seconds,
                sp_cpu,
                backlog_n,
                latency_n,
                query_state,
                cls.strategy_phase(state.strategy),
                state.pipeline.load_factors,
            )
            for (
                state,
                src,
                goodput_n,
                offered,
                sent,
                queued,
                sp_cpu,
                backlog_n,
                latency_n,
                query_state,
            ) in zip(
                states,
                block.results,
                goodput.tolist(),
                network_bytes,
                sent_bytes,
                reported_queue_bytes,
                sp_cpu_seconds,
                block.backlog_records.tolist(),
                latency.tolist(),
                classify_query_states(block.operator_codes),
            )
        ]

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
        """One source's epoch metrics: the one-source form of
        :meth:`finish_block_epoch`, whose arguments it takes per source."""
        step = BlockStep(
            [state],
            [budget_fraction],
            BlockEpoch.from_results([src], state.pipeline.num_stages),
        )
        (metrics,) = cls.finish_block_epoch(
            step,
            cost_model,
            epoch_duration_s,
            shared_queue_bytes=[
                (queue_name, [queue_bytes])
                for queue_name, queue_bytes in shared_queue_bytes
            ],
            network_bytes=[src.network_bytes],
            sent_bytes=[sent_bytes],
            reported_queue_bytes=[reported_queue_bytes],
            network_delay_s=[network_delay_s],
            sp_cpu_seconds=[sp_cpu_seconds],
            sp_delay_s=sp_delay_s,
        )
        return metrics
