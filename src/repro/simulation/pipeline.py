"""Deployed pipeline instances for the data source and the stream processor.

The data-source pipeline (Figure 5, left) is a chain of
``control proxy -> operator`` stages sharing one CPU budget.  Each epoch it

1. routes incoming records through each proxy according to its load factor,
2. lets operators process forwarded records until the budget is exhausted,
3. drains unforwarded records (and queue overflow beyond the congestion
   tolerance) to the stream processor,
4. emits partial aggregate state at window boundaries.

Routing, the budget, relief and backpressure are decided on record counts,
and a record container is sliced only where rows leave a stage.  An epoch
is a sequence of per-stage steps, so :func:`run_block_epoch` moves a whole
building block's pipelines through it stage by stage: one array pass per
stage decides every source's counts (:func:`stage_counts`), one more at
the close every proxy's observation (:func:`observe_stages`); a row-masking
operator runs once over every source's arena rows (:func:`mask_rows`), and
the G+R once over the rows that reach it
(:func:`~repro.query.operators.append_runs`).  The arrays live for one
block epoch; each source keeps its own queues, load factors, budget, group
state and numbers.  :meth:`SourcePipeline.run_epoch` is the one-source
form.

The stream-processor pipeline (Figure 5, right) replicates the full operator
chain, processes drained records from whichever stage they were drained at,
merges the partial aggregation state shipped by the data source, and emits the
final query output at window boundaries.  It keeps no per-source state: it is
arrivals (:meth:`StreamProcessorPipeline.process_arrivals`, from any number of
sources) plus the epoch tick (:meth:`StreamProcessorPipeline.advance_epoch`).
Windows close on that global epoch clock, not on a merged watermark as the
paper's §V describes, so the simulator tracks no watermark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import ProxyThresholds
from ..core.control_proxy import (
    ProxyObservation,
    ThresholdColumns,
    congestion_floor_records,
    operator_states,
    route_counts,
    threshold_columns,
)
from ..core.state import OPERATOR_STATES
from ..errors import ConfigurationError, SimulationError
from ..query.operators import Operator, append_runs
from ..query.records import (
    FleetArena,
    Record,
    RecordBatch,
    coalesce_batches,
    covering_view,
    half_up,
    record_size_bytes,
)
from .cost_model import CostModel

#: Serialized size assumed for one group's partial aggregation state when it
#: is shipped from the data source to the stream processor at a window close.
PARTIAL_STATE_ROW_BYTES = 48

#: What flows between pipeline stages: a record list on the object path, a
#: columnar :class:`RecordBatch` on the arena path.  Both support ``len``,
#: slicing, concatenation, and :func:`record_size_bytes`, so the epoch loop
#: below is written once against that container protocol.
RecordContainer = Union[Sequence[Record], RecordBatch]


def process_records(operator: Operator, records: RecordContainer) -> RecordContainer:
    """Run ``operator`` over a record container, dispatching on its kind."""
    if isinstance(records, RecordBatch):
        return operator.process_batch(records)
    return operator.process(records)


@dataclass
class _SourceStage:
    """One proxy/operator pair on the data source, plus its pending queue.

    ``load_factor`` is the proxy's fraction ``p`` of incoming records
    forwarded to the operator (Section IV-A); the rest drain.  ``queue`` is
    a :data:`RecordContainer`: a record list on the object path, a
    :class:`RecordBatch` on the arena path (an empty list concatenates into
    whichever container the epoch produces).
    """

    operator: Operator
    load_factor: float = 0.0
    queue: RecordContainer = field(default_factory=list)
    #: Bytes that entered the operator since the last window flush.
    window_input_bytes: float = 0.0
    #: Most recent byte-level relay ratio measurement (None until measured).
    measured_relay: Optional[float] = None


@dataclass
class SourceEpochResult:
    """Everything that happened on the data source during one epoch."""

    epoch: int
    records_in: int
    input_bytes: float
    cpu_used_seconds: float
    cpu_budget_seconds: float
    #: Records drained per stage index (proxy decided or congestion relief).
    drained: List[Tuple[int, RecordContainer]] = field(default_factory=list)
    #: Records emitted by the last source stage during the epoch.
    emitted: RecordContainer = field(default_factory=list)
    #: Partial aggregation states flushed at a window boundary, keyed by stage.
    partial_states: Dict[int, object] = field(default_factory=dict)
    #: Serialized size of the partial states (bytes).
    partial_state_bytes: float = 0.0
    #: Records rejected by connection backpressure (queues at capacity).
    rejected_records: int = 0
    #: Per-stage record counts processed this epoch.
    processed_per_stage: List[int] = field(default_factory=list)
    #: Pending queue length per stage at epoch end (after congestion relief).
    pending_per_stage: List[int] = field(default_factory=list)
    #: Records forwarded into each stage's queue this epoch (proxy-admitted).
    forwarded_per_stage: List[int] = field(default_factory=list)
    #: Records removed from each stage's queue and drained to the SP this
    #: epoch (congestion relief and plan-change backlog drains).  Proxy-level
    #: drains are *not* counted here — those records never entered the queue.
    queue_drained_per_stage: List[int] = field(default_factory=list)
    #: Records dropped from each stage's queue by connection backpressure.
    rejected_per_stage: List[int] = field(default_factory=list)
    #: Proxy observations gathered at the epoch boundary.
    observations: List[ProxyObservation] = field(default_factory=list)
    #: Profiling measurements (only filled by profiling epochs).
    measured_costs: Optional[List[float]] = None
    measured_relays: Optional[List[float]] = None
    #: :attr:`drained_sizes` once sized.
    _drained_sizes: Optional[List[int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def drained_records(self) -> int:
        return sum(len(records) for _, records in self.drained)

    @property
    def drained_sizes(self) -> List[int]:
        """Each drained container's bytes, drain headers included.

        Sized once: the accountant (:attr:`network_bytes`) and the
        executor's transfer queue both read these.
        """
        sizes = self._drained_sizes
        if sizes is None:
            sizes = self._drained_sizes = [
                record_size_bytes(records, drain=True) for _, records in self.drained
            ]
        return sizes

    @property
    def drained_bytes(self) -> float:
        return float(sum(self.drained_sizes))

    @property
    def emitted_bytes(self) -> float:
        return float(record_size_bytes(self.emitted))

    @property
    def network_bytes(self) -> float:
        """Total bytes this epoch puts on the uplink."""
        return self.drained_bytes + self.emitted_bytes + self.partial_state_bytes

    @property
    def backlog_records(self) -> int:
        return sum(self.pending_per_stage)


class SourcePipeline:
    """The query pipeline deployed on a single data source node."""

    def __init__(
        self,
        operators: Sequence[Operator],
        cost_model: CostModel,
        thresholds: Optional[ProxyThresholds] = None,
        window_length_s: float = 10.0,
        epoch_duration_s: float = 1.0,
        allow_congestion_relief: bool = True,
    ) -> None:
        if not operators:
            raise SimulationError("source pipeline needs at least one operator")
        if epoch_duration_s <= 0 or window_length_s <= 0:
            raise SimulationError("window and epoch durations must be positive")
        self.cost_model = cost_model
        self.thresholds = thresholds or ProxyThresholds()
        #: Whether queue overflow may be drained to the stream processor.  A
        #: deployment without replicated operators on the SP (the All-Src
        #: baseline) has no drain path, so its backlog simply accumulates.
        self.allow_congestion_relief = allow_congestion_relief
        self.window_length_s = float(window_length_s)
        self.epoch_duration_s = float(epoch_duration_s)
        self.epochs_per_window = max(1, half_up(window_length_s / epoch_duration_s))
        self.stages: List[_SourceStage] = [_SourceStage(op) for op in operators]
        self._epoch_index = 0
        self._drain_backlog_next_epoch = False

    # -- load factors ------------------------------------------------------------

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def operator_names(self) -> List[str]:
        return [stage.operator.name for stage in self.stages]

    def load_factors(self) -> List[float]:
        return [stage.load_factor for stage in self.stages]

    def set_load_factors(self, factors: Sequence[float]) -> None:
        """Install a new data-level partitioning plan.

        When the plan actually changes, records still queued under the old
        plan are scheduled to be drained to the stream processor at the start
        of the next epoch ("any pending data that needs to be processed" is
        sent along, Section IV-A), so the new plan is evaluated on fresh input
        rather than on the previous plan's backlog.

        Every factor is checked before any is installed: a NaN, or a value
        outside ``[0, 1]`` by more than ``1e-9``, raises
        :class:`ConfigurationError`, and smaller numerical error is clamped.
        """
        if len(factors) != len(self.stages):
            raise SimulationError(
                f"expected {len(self.stages)} load factors, got {len(factors)}"
            )
        for factor in factors:
            if math.isnan(factor):
                raise ConfigurationError("load factor must not be NaN")
            if factor < -1e-9 or factor > 1.0 + 1e-9:
                raise ConfigurationError(
                    f"load factor must be within [0, 1], got {factor!r}"
                )
        changed = any(
            abs(stage.load_factor - factor) > 1e-9
            for stage, factor in zip(self.stages, factors)
        )
        for stage, factor in zip(self.stages, factors):
            stage.load_factor = min(1.0, max(0.0, factor))
        if changed and self.allow_congestion_relief:
            self._drain_backlog_next_epoch = True

    # -- execution ----------------------------------------------------------------

    def run_epoch(
        self,
        records: RecordContainer,
        cpu_budget_fraction: float,
        profile: bool = False,
    ) -> SourceEpochResult:
        """Execute one epoch and return what happened.

        The one-source form of :func:`run_block_epoch`, which an engine
        uses to step all of its sources together.

        Args:
            records: Records arriving at the query during this epoch — a
                record list (object mode) or a :class:`RecordBatch` (arena
                mode); the epoch loop is container-generic and both modes run
                bit-identical accounting arithmetic.
            cpu_budget_fraction: CPU budget as a fraction of one core (may
                exceed 1.0 on multi-core nodes).
            profile: When true, run a profiling epoch: load factors are
                ignored, each operator processes as many records as the budget
                allows, and per-operator cost / relay-ratio measurements are
                returned alongside the normal results.
        """
        (result,) = run_block_epoch(
            [self], [records], [cpu_budget_fraction], [profile]
        ).results
        return result

    # -- helpers ------------------------------------------------------------------

    def _settle(
        self,
        index: int,
        to_process: RecordContainer,
        output: RecordContainer,
        relays: Optional[List[float]],
    ) -> None:
        """Account stage ``index``'s operator input and output bytes.

        ``relays`` collects a profiling epoch's relay measurements (None
        outside profiling).
        """
        stage = self.stages[index]
        in_bytes = float(record_size_bytes(to_process))
        stage.window_input_bytes += in_bytes
        out_bytes = float(record_size_bytes(output))
        if relays is not None:
            relays.append(self._relay_estimate(stage, in_bytes, out_bytes))
        elif not stage.operator.stateful and to_process and in_bytes > 0:
            # Clamp exactly as the profiling path (`_relay_estimate`) and
            # the window-flush measurement do: relay ratios feed the LP
            # planner as reduction fractions, so an expanding operator is
            # reported as 1.0 on every measurement path rather than giving
            # the planner two different answers.
            stage.measured_relay = min(1.0, out_bytes / in_bytes)

    def _relay_estimate(
        self, stage: _SourceStage, in_bytes: float, out_bytes: float
    ) -> float:
        """Relay-ratio estimate for profiling.

        Stateless operators: measured output/input bytes for this epoch.
        Stateful operators: prefer the last window-flush measurement; fall back
        to an estimate from the live group count (groups * row size over the
        bytes accumulated so far in the window).
        """
        operator = stage.operator
        if not operator.stateful:
            if in_bytes > 0:
                return min(1.0, out_bytes / in_bytes)
            return stage.measured_relay if stage.measured_relay is not None else 1.0
        if stage.measured_relay is not None:
            return stage.measured_relay
        groups = operator.group_count() if hasattr(operator, "group_count") else 1
        window_bytes = max(stage.window_input_bytes, 1.0)
        estimate = groups * PARTIAL_STATE_ROW_BYTES / window_bytes
        return min(1.0, estimate)

    def _flush_windows(self) -> Tuple[Dict[int, object], float]:
        """Close the window: returns the partial states shipped, by stage,
        and their serialized size in bytes."""
        partial_states: Dict[int, object] = {}
        partial_state_bytes = 0.0
        for index, stage in enumerate(self.stages):
            operator = stage.operator
            if not operator.stateful:
                stage.window_input_bytes = 0.0
                continue
            # Snapshot the state before flushing: flush() discards the
            # operator's accumulated structures, and the partial state shipped
            # to the SP must reflect the window that just closed.  Operators
            # whose flush discards (rather than mutates) state hand it off
            # without copying — see :meth:`Operator.take_partial_state`.
            shipped = operator.take_partial_state()
            # Flushed records are not re-sent (the partial state carries the
            # same information); only their byte total feeds the relay
            # measurement, so the closed-form ``flush_bytes`` skips
            # materializing rows nobody reads.
            out_bytes = float(operator.flush_bytes())
            if stage.window_input_bytes > 0:
                stage.measured_relay = min(
                    1.0, out_bytes / stage.window_input_bytes
                ) if out_bytes else stage.measured_relay
            if shipped:
                partial_states[index] = shipped
                # Dict states and the arena's columnar states both expose one
                # row per distinct group; opaque states ship as one row.
                if isinstance(shipped, dict):
                    group_count = len(shipped)
                else:
                    group_count = getattr(shipped, "group_count", 1)
                partial_state_bytes += group_count * PARTIAL_STATE_ROW_BYTES
            # The flushed records themselves are not re-sent: the partial state
            # carries the same information and is what the SP merges.
            stage.window_input_bytes = 0.0
        return partial_states, partial_state_bytes


@dataclass
class BlockEpoch:
    """One :func:`run_block_epoch`: every source's epoch, in source order,
    with the counts the engine accounts as arrays over the sources.

    Each array holds exactly what the sources' :class:`SourceEpochResult`
    objects report (:meth:`from_results` gathers them back).
    """

    results: List[SourceEpochResult]
    #: Records each source took in (``records_in``).
    injected_records: np.ndarray
    input_bytes: np.ndarray
    #: Records left in each source's stage queues (``backlog_records``).
    backlog_records: np.ndarray
    #: Records each source turned away by backpressure (``rejected_records``).
    rejected_records: np.ndarray
    #: Records each source drained towards the SP (``drained_records``).
    drained_records: np.ndarray
    #: Each proxy's observed operator state, as an ``OPERATOR_STATES`` code
    #: (stages by sources).
    operator_codes: np.ndarray

    @classmethod
    def from_results(
        cls, results: Sequence[SourceEpochResult], num_stages: int
    ) -> "BlockEpoch":
        """The block arrays of ``results``, each an epoch of a ``num_stages``
        pipeline; the one-source accountant form reads its source this way."""

        def column(name: str, dtype: type = np.int64) -> np.ndarray:
            return np.array([getattr(result, name) for result in results], dtype=dtype)

        codes = [
            [OPERATOR_STATES.index(obs.state) for obs in result.observations]
            for result in results
        ]
        return cls(
            list(results),
            column("records_in"),
            column("input_bytes", float),
            column("backlog_records"),
            column("rejected_records"),
            column("drained_records"),
            np.array(codes, dtype=np.int64).reshape(len(results), num_stages).T,
        )


def run_block_epoch(
    pipelines: Sequence[SourcePipeline],
    records: Sequence[RecordContainer],
    cpu_budget_fractions: Sequence[float],
    profiles: Sequence[bool],
    arena: Optional[FleetArena] = None,
) -> BlockEpoch:
    """Step pipelines of one plan through one epoch together, stage by stage.

    Every pipeline opens its epoch; then, stage by stage, one array pass
    decides every pipeline's counts — routing, the profiling and CPU-budget
    cuts, congestion relief and backpressure (:meth:`_BlockRun.admit`) —
    the stage's operators run over all of their inputs (:func:`_run_stage`),
    and the pipelines whose rows moved account their bytes; then one more
    pass closes every pipeline's epoch, the proxies' observations included.
    The arrays live for this one epoch: queues, load factors and operator
    state stay on each pipeline, so each result is what the pipeline's own
    :meth:`SourcePipeline.run_epoch` returns.  The arrays repeat each
    pipeline's arithmetic in the same order, so every number is the same
    bit for bit.

    Stepping together also lets a row-masking stage, and a G+R that appends
    raw runs, run one pass over every input that views the same buffers
    (:func:`_run_stage`).  With ``arena``, a masking pass's survivors are
    rows the arena takes into its recycled buffers
    (:meth:`FleetArena.take`), so their owner detaches whatever outlives the
    epoch exactly as it detaches arena views, and the next stage's pass
    covers them.

    The pipelines must run one plan, the same operator chain stage by
    stage: a masking stage applies the first pipeline's row mask to all,
    and a stage's per-record cost is read once, off the first pipeline.
    """
    if not pipelines:
        return BlockEpoch.from_results([], 0)
    run = _BlockRun(pipelines, records, cpu_budget_fractions, profiles)
    for index in range(run.num_stages):
        inputs = run.admit(index)
        moving = [source for source, batch in enumerate(inputs) if batch]
        outputs = _run_stage(
            [pipelines[source].stages[index].operator for source in moving],
            [inputs[source] for source in moving],
            arena,
        )
        run.settle(index, inputs, dict(zip(moving, outputs)))
    return run.close()


class _BlockRun:
    """A block epoch in flight: each source's containers, and the counts of
    every source as arrays (per-stage ones are stages by sources)."""

    def __init__(
        self,
        pipelines: Sequence[SourcePipeline],
        records: Sequence[RecordContainer],
        cpu_budget_fractions: Sequence[float],
        profiles: Sequence[bool],
    ) -> None:
        budget_fractions = np.array(cpu_budget_fractions, dtype=float)
        valid = np.isfinite(budget_fractions) & (budget_fractions >= 0)
        invalid = np.flatnonzero(~valid)
        if invalid.size:
            raise SimulationError(
                "cpu_budget_fraction must be finite and >= 0, got "
                f"{cpu_budget_fractions[int(invalid[0])]!r}"
            )
        count = len(pipelines)
        self.pipelines = pipelines
        self.num_stages = num_stages = pipelines[0].num_stages
        self.epochs = [pipeline._epoch_index for pipeline in pipelines]
        for pipeline in pipelines:
            pipeline._epoch_index += 1
        self.thresholds = threshold_columns(
            [pipeline.thresholds for pipeline in pipelines]
        )
        self.relief = np.array(
            [pipeline.allow_congestion_relief for pipeline in pipelines], dtype=bool
        )
        self.load_factors = np.array(
            [pipeline.load_factors() for pipeline in pipelines]
        ).T
        self.profiles = np.array(profiles, dtype=bool)
        self.profiling = np.flatnonzero(self.profiles).tolist()
        self.measured_costs: Dict[int, List[float]] = {i: [] for i in self.profiling}
        self.measured_relays: Dict[int, List[float]] = {i: [] for i in self.profiling}

        self.injected_records = np.fromiter(map(len, records), np.int64, count)
        self.input_bytes = np.array(
            [float(record_size_bytes(batch)) for batch in records]
        )
        self.cpu_budget_s = budget_fractions * np.array(
            [pipeline.epoch_duration_s for pipeline in pipelines]
        )
        self.cpu_used_s = np.zeros(count)
        self.current: List[RecordContainer] = [
            batch if isinstance(batch, RecordBatch) else list(batch)
            for batch in records
        ]
        self.drained: List[List[Tuple[int, RecordContainer]]] = [
            [] for _ in range(count)
        ]

        shape = (num_stages, count)
        self.incoming_records = np.zeros(shape, dtype=np.int64)
        self.forwarded_records = np.zeros(shape, dtype=np.int64)
        self.processed_records = np.zeros(shape, dtype=np.int64)
        #: Pending records before congestion relief (what a proxy reports).
        self.pending_records = np.zeros(shape, dtype=np.int64)
        #: Queue lengths at the end of the epoch.
        self.queued_records = np.zeros(shape, dtype=np.int64)
        self.queue_drained_records = np.zeros(shape, dtype=np.int64)
        self.rejected_records = np.zeros(shape, dtype=np.int64)

        for source, pipeline in enumerate(pipelines):
            if pipeline._drain_backlog_next_epoch:
                # A new plan was installed: ship the old plan's pending
                # records to the stream processor so they do not distort
                # its evaluation.
                pipeline._drain_backlog_next_epoch = False
                for index, stage in enumerate(pipeline.stages):
                    if stage.queue:
                        self.drained[source].append((index, stage.queue))
                        self.queue_drained_records[index, source] = len(stage.queue)
                        stage.queue = []

    def admit(self, index: int) -> List[RecordContainer]:
        """Decide stage ``index``'s counts; returns each operator's input.

        :func:`stage_counts` decides every source's counts at once.  A
        source's stage rows are its old queue followed by the forwarded
        records, and rows are cut from them by position, so a container is
        sliced only where rows leave the stage: a drained batch, the
        operator's input, or a non-empty queue remainder.
        """
        stages = [pipeline.stages[index] for pipeline in self.pipelines]
        current = self.current
        count = len(stages)
        incoming = np.fromiter(map(len, current), np.int64, count)
        queued = np.fromiter((len(stage.queue) for stage in stages), np.int64, count)
        cost_s = self.pipelines[0].cost_model.cost_per_record(stages[0].operator)
        counts = stage_counts(
            self.thresholds,
            incoming,
            queued,
            self.injected_records,
            self.load_factors[index],
            self.profiles,
            self.relief,
            cost_s,
            np.maximum(0.0, self.cpu_budget_s - self.cpu_used_s),
        )
        for source in self.profiling:
            self.measured_costs[source].append(cost_s)
        forwarded = counts.forwarded_records
        processed = counts.processed_records
        self.cpu_used_s = self.cpu_used_s + processed * cost_s
        self.incoming_records[index] = incoming
        self.forwarded_records[index] = forwarded
        self.processed_records[index] = processed
        self.pending_records[index] = counts.pending_records
        self.queued_records[index] = counts.head_records + counts.tail_records
        self.queue_drained_records[index] += counts.relief_stop - counts.relief_start
        self.rejected_records[index] = counts.rejected_records

        inputs: List[RecordContainer] = [[] for _ in range(count)]
        cuts = forwarded.tolist()
        for source in np.flatnonzero(forwarded < incoming).tolist():
            rows = current[source]
            cut = cuts[source]
            self.drained[source].append((index, rows[cut:] if cut else rows))
        moving = np.flatnonzero(queued + forwarded).tolist()
        if not moving:
            return inputs
        processed_n = processed.tolist()
        starts = counts.relief_start.tolist()
        stops = counts.relief_stop.tolist()
        heads = counts.head_records.tolist()
        tails = counts.tail_records.tolist()
        for source in moving:
            stage = stages[source]
            queue = stage.queue
            fresh_rows = current[source]
            done, start, stop = processed_n[source], starts[source], stops[source]
            if stop > start:
                self.drained[source].append(
                    (index, _rows(queue, fresh_rows, start, stop))
                )
            inputs[source] = _rows(queue, fresh_rows, 0, done)
            stage.queue = _rows(queue, fresh_rows, done, done + heads[source])
            if tails[source]:
                stage.queue = _joined(
                    [stage.queue, _rows(queue, fresh_rows, stop, stop + tails[source])]
                )
        return inputs

    def settle(
        self,
        index: int,
        inputs: List[RecordContainer],
        outputs: Dict[int, RecordContainer],
    ) -> None:
        """Account stage ``index``'s operator bytes where rows moved (and on
        every profiling source); the outputs feed the next stage."""
        for source in sorted(set(outputs).union(self.profiling)):
            self.pipelines[source]._settle(
                index,
                inputs[source],
                outputs.get(source, []),
                self.measured_relays.get(source),
            )
        self.current = [outputs.get(source, []) for source in range(len(inputs))]

    def close(self) -> BlockEpoch:
        """Close every source's epoch: emitted records, window flushes, the
        proxies' observations, and the results."""
        pipelines = self.pipelines
        budget_s = self.cpu_budget_s
        used_s = self.cpu_used_s
        # A profiling epoch measures operators without routing, so its
        # proxies report no incoming, forwarded or drained records.
        routed = ~self.profiles
        incoming = self.incoming_records * routed
        forwarded = self.forwarded_records * routed
        codes, idle_fractions = observe_stages(
            self.thresholds,
            budget_s,
            used_s,
            incoming,
            self.pending_records,
            self.queued_records,
        )
        # Every drained record left a queue (the plan-change backlog,
        # relief) or was routed past the operator (incoming - forwarded).
        drained = (
            self.queue_drained_records + self.incoming_records - self.forwarded_records
        ).sum(axis=0)
        backlog = self.queued_records.sum(axis=0)
        rejected = self.rejected_records.sum(axis=0)

        # Every proxy's observation, source after source.
        stages = self.num_stages
        observed = list(
            map(
                ProxyObservation,
                [OPERATOR_STATES[code] for code in _by_source(codes)],
                _by_source(incoming),
                _by_source(forwarded),
                _by_source(incoming - forwarded),
                _by_source(self.processed_records),
                _by_source(self.pending_records),
                _by_source(idle_fractions),
            )
        )
        records_in = self.injected_records.tolist()
        input_bytes = self.input_bytes.tolist()
        used = used_s.tolist()
        budget = budget_s.tolist()
        rejected_n = rejected.tolist()
        processed_rows = self.processed_records.T.tolist()
        queued_rows = self.queued_records.T.tolist()
        forwarded_rows = self.forwarded_records.T.tolist()
        queue_drained_rows = self.queue_drained_records.T.tolist()
        rejected_rows = self.rejected_records.T.tolist()
        results: List[SourceEpochResult] = []
        for source, (pipeline, epoch, current) in enumerate(
            zip(pipelines, self.epochs, self.current)
        ):
            # Window boundary: flush stateful operators and ship partial state.
            if (epoch + 1) % pipeline.epochs_per_window == 0:
                partial_states, partial_state_bytes = pipeline._flush_windows()
            else:
                partial_states, partial_state_bytes = {}, 0.0
            results.append(
                SourceEpochResult(
                    epoch=epoch,
                    records_in=records_in[source],
                    input_bytes=input_bytes[source],
                    cpu_used_seconds=used[source],
                    cpu_budget_seconds=budget[source],
                    drained=self.drained[source],
                    # Records emitted by the final stage (stateless tail).
                    emitted=current if current else [],
                    partial_states=partial_states,
                    partial_state_bytes=partial_state_bytes,
                    rejected_records=rejected_n[source],
                    processed_per_stage=processed_rows[source],
                    pending_per_stage=queued_rows[source],
                    forwarded_per_stage=forwarded_rows[source],
                    queue_drained_per_stage=queue_drained_rows[source],
                    rejected_per_stage=rejected_rows[source],
                    observations=observed[source * stages : (source + 1) * stages],
                    measured_costs=self.measured_costs.get(source),
                    measured_relays=self.measured_relays.get(source),
                )
            )
        return BlockEpoch(
            results=results,
            injected_records=self.injected_records,
            input_bytes=self.input_bytes,
            backlog_records=backlog,
            rejected_records=rejected,
            drained_records=drained,
            operator_codes=codes,
        )


class StageCounts(NamedTuple):
    """One stage's counts for every source of a block epoch.

    A source's stage rows are its old queue followed by the records its
    proxy forwarded, ``queued + forwarded`` of them; the first ``processed``
    run through the operator.  Rows ``[relief_start, relief_stop)`` drain
    to the stream processor by congestion relief (an empty range where
    none do), and the queue keeps ``head`` rows from ``processed`` and
    ``tail`` rows from ``relief_stop``.
    """

    forwarded_records: np.ndarray
    processed_records: np.ndarray
    #: Rows left unprocessed, before relief: what a proxy reports.
    pending_records: np.ndarray
    relief_start: np.ndarray
    relief_stop: np.ndarray
    head_records: np.ndarray
    tail_records: np.ndarray
    #: Fresh records backpressure turned away.
    rejected_records: np.ndarray


def stage_counts(
    thresholds: "ProxyThresholds | ThresholdColumns",
    incoming_records: np.ndarray,
    queued_records: np.ndarray,
    injected_records: np.ndarray,
    load_factors: np.ndarray,
    profiles: np.ndarray,
    relief: np.ndarray,
    cost_s: float,
    available_s: np.ndarray,
) -> StageCounts:
    """Decide one stage's counts for every source at once.

    Each array holds one value per source: the records arriving at the
    stage and already queued there, the records the source took in this
    epoch, its proxy's load factor, whether it profiles, whether it may
    relieve congestion, and the CPU seconds left of its budget.
    ``cost_s`` is the stage's per-record cost, one for every source.
    """
    # Profiling ignores load factors: each operator is measured on as many
    # records as the remaining budget allows ("executing an operator at a
    # time"); the rest drains immediately so the profiling epoch does not
    # build up artificial backlog.
    forwarded = route_counts(load_factors, incoming_records)
    if profiles.any():
        forwarded = np.where(
            profiles, _budget_cut(incoming_records, available_s, cost_s), forwarded
        )
    total = queued_records + forwarded
    processed = _budget_cut(total, available_s, cost_s)
    pending = total - processed
    if not pending.any():
        # Every stage row ran: nothing is relieved, kept or turned away.
        return StageCounts(
            forwarded, processed, pending, total, total, pending, pending, pending
        )

    # Congestion relief: the proxy may drain up to ``DrainedThres`` of an
    # epoch's records from its pending queue (Section IV-C), which absorbs
    # transient overload without silently converting a congested plan into
    # a different partitioning.  The proxy still reports the pre-relief
    # pending count so congestion is detected and adaptation triggers.  The
    # drained window sits just past the congestion floor; the rows before
    # and after it stay queued, so nothing is both drained and retained.
    floor_records = congestion_floor_records(thresholds, incoming_records)
    epoch_records = np.maximum(1, injected_records)
    relief_start = processed + floor_records
    relief_stop = np.minimum(
        total,
        relief_start
        + np.ceil(thresholds.drained_thres * epoch_records).astype(np.int64),
    )
    relieving = relief & (pending > floor_records) & (relief_stop > relief_start)
    relief_start = np.where(relieving, relief_start, total)
    relief_stop = np.where(relieving, relief_stop, total)

    # Connection backpressure: each queue holds at most a configurable
    # number of epochs' worth of records; beyond that, newly forwarded
    # records are not admitted and do not count towards throughput.  Only
    # this epoch's records, the queue's tail, can be turned away: records
    # admitted in earlier epochs stay queued.
    head = relief_start - processed
    tail = total - relief_stop
    capacity = np.maximum(
        1, np.ceil(thresholds.queue_capacity_epochs * epoch_records).astype(np.int64)
    )
    fresh = np.maximum(
        0, relief_start - np.maximum(processed, queued_records)
    ) + np.maximum(0, total - np.maximum(relief_stop, queued_records))
    rejected = np.where(
        head + tail > capacity, np.minimum(head + tail - capacity, fresh), 0
    )
    from_tail = np.minimum(tail, rejected)
    return StageCounts(
        forwarded,
        processed,
        pending,
        relief_start,
        relief_stop,
        head - (rejected - from_tail),
        tail - from_tail,
        rejected,
    )


def observe_stages(
    thresholds: "ProxyThresholds | ThresholdColumns",
    cpu_budget_s: np.ndarray,
    cpu_used_s: np.ndarray,
    incoming_records: np.ndarray,
    pending_records: np.ndarray,
    queued_records: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every proxy's operator-state code and idle fraction at an epoch's
    close; the per-stage arguments are stages by sources.

    A stage is idle for whatever CPU budget its source left unused, unless
    its queue (``queued_records``) holds records.  A proxy reports the
    pending count recorded during processing, the pre-relief backlog, and
    the records its proxy routed (:func:`operator_states`).
    """
    idle_fraction = np.zeros(len(cpu_budget_s))
    np.divide(
        cpu_budget_s - cpu_used_s,
        cpu_budget_s,
        out=idle_fraction,
        where=cpu_budget_s > 0,
    )
    idle_fractions = np.minimum(
        1.0,
        np.maximum(
            0.0, np.where(queued_records == 0, np.maximum(0.0, idle_fraction), 0.0)
        ),
    )
    codes = operator_states(
        thresholds, incoming_records, pending_records, idle_fractions
    )
    return codes, idle_fractions


def _by_source(per_stage: np.ndarray) -> list:
    """A stages-by-sources array as one flat list, source after source."""
    return per_stage.T.ravel().tolist()


def _budget_cut(
    records: np.ndarray, available_s: np.ndarray, cost_s: float
) -> np.ndarray:
    """How many of ``records`` fit in ``available_s`` at ``cost_s`` each:
    ``min(records, int(available_s / cost_s))``, all of them when the cost
    is zero (``<= 1e-15``)."""
    if cost_s <= 1e-15:
        return records
    # ``records`` is exact as a float, so the minimum taken before
    # truncating equals ``min(records, int(available_s / cost_s))``.
    return np.minimum(records, available_s / cost_s).astype(np.int64)


def _run_stage(
    operators: Sequence[Operator],
    inputs: Sequence[RecordContainer],
    arena: Optional[FleetArena],
) -> List[RecordContainer]:
    """Run one stage's operators, one per pipeline, over their inputs.

    The inputs that view the same buffers (:func:`covering_view`) share one
    columnar pass over the rows they cover when the stage allows it:

    * a row-masking stage (:attr:`Operator.masks_rows`) runs one
      :func:`mask_rows`.  An input that keeps all of its rows passes
      through uncopied, and any other gets a view of its survivors; with
      ``arena``, they are rows the arena took (:meth:`FleetArena.take`),
      so the next stage covers them in turn;
    * a G+R that appends raw runs (:attr:`Operator.appends_runs`) runs one
      :func:`append_runs`: each source's key bounds and latest event time
      by one ``reduceat`` each.  Each source's operator appends its own
      rows as one run, as its own ``process_batch`` would, and counts its
      groups as the run arrives.

    Every other input, and a G+R input whose keys the pass could not pack,
    runs through its own operator.
    """
    outputs: List[Optional[RecordContainer]] = [None] * len(inputs)
    first = operators[0] if operators else None
    if first is not None and (first.masks_rows or first.appends_runs):
        members, span, parts = covering_view(inputs)
        if span is not None and first.masks_rows:
            survivors, counts = mask_rows(first, span, parts, arena)
            start = 0
            for member, count in zip(members, counts):
                batch = inputs[member]
                outputs[member] = (
                    batch if count == len(batch) else survivors[start : start + count]
                )
                start += count
        elif span is not None:
            taken = append_runs(
                [operators[member] for member in members], span, parts, count=True
            )
            for member, done in zip(members, taken):
                if done:
                    outputs[member] = []
    results: List[RecordContainer] = []
    for operator, records, output in zip(operators, inputs, outputs):
        if output is None:
            output = process_records(operator, records) if records else []
        results.append(output)
    return results


def mask_rows(
    operator: Operator,
    batch: RecordBatch,
    parts: Sequence[Tuple[int, int]],
    arena: Optional[FleetArena] = None,
) -> Tuple[RecordBatch, List[int]]:
    """One pass of a row-masking operator over parts of ``batch``.

    ``parts`` are disjoint ``(start, stop)`` row ranges.  Returns the
    parts' surviving rows, part after part, and each part's survivor
    count; when every row of ``batch`` survives, the rows are ``batch``
    itself.  One ``row_mask``, one ``searchsorted`` and one ``take`` serve
    any number of parts, and rows between them are never copied.  That is
    how the source stepper (:func:`_run_stage`) and the stream processor
    (:meth:`StreamProcessorPipeline._fold_run`) run one operator over many
    sources' rows and still count each source's survivors.  With
    ``arena``, the survivors are rows the arena takes into its recycled
    buffers (:meth:`FleetArena.take`).
    """
    mask = operator.row_mask(batch)
    if mask.all():  # e.g. the Window
        return batch, [stop - start for start, stop in parts]
    kept = np.flatnonzero(mask)
    cuts = np.searchsorted(kept, [row for part in parts for row in part]).tolist()
    lows, highs = cuts[::2], cuts[1::2]
    if lows[0] > 0 or highs[-1] < len(kept) or lows[1:] != highs[:-1]:
        kept = np.concatenate([kept[low:high] for low, high in zip(lows, highs)])
    survivors = batch.take(kept) if arena is None else arena.take(batch, kept)
    return survivors, [high - low for low, high in zip(lows, highs)]


def _rows(
    queue: RecordContainer, fresh: RecordContainer, start: int, stop: int
) -> RecordContainer:
    """Rows ``[start, stop)`` of ``queue`` followed by ``fresh``.

    Only the rows asked for are sliced, and a whole container is returned
    as it is; rows from both are joined.
    """
    queued = len(queue)
    if start >= queued:
        start -= queued
        stop -= queued
        queue = fresh
    elif stop > queued:
        return _joined([queue[start:], fresh[: stop - queued]])
    if start >= stop:
        return []
    if start == 0 and stop == len(queue):
        return queue
    return queue[start:stop]


def _joined(pieces: List[RecordContainer]) -> RecordContainer:
    """Non-empty ``pieces`` as one container, in order."""
    if all(isinstance(piece, RecordBatch) for piece in pieces):
        return coalesce_batches(pieces)
    joined = pieces[0]
    for piece in pieces[1:]:
        joined = joined + piece
    return joined


class SPArrivals(NamedTuple):
    """What one :meth:`StreamProcessorPipeline.process_arrivals` call did."""

    #: Records that entered an operator, summed over operators.
    records_processed: int
    #: CPU seconds of the whole call.
    cpu_used_seconds: float
    #: Materialized outputs (empty unless ``collect_outputs``).
    outputs: List[Record]
    #: CPU seconds of each processed drained batch, in order.  Under a
    #: compute budget its length is how many batches were processed.
    batch_cpu_seconds: List[float]


class StreamProcessorPipeline:
    """Replicated query pipeline on the stream processor side."""

    def __init__(
        self,
        operators: Sequence[Operator],
        cost_model: CostModel,
        window_length_s: float = 10.0,
        epoch_duration_s: float = 1.0,
    ) -> None:
        if not operators:
            raise SimulationError("stream processor pipeline needs >= 1 operator")
        self.operators: List[Operator] = list(operators)
        self.cost_model = cost_model
        self.window_length_s = float(window_length_s)
        self.epoch_duration_s = float(epoch_duration_s)
        self.epochs_per_window = max(1, half_up(window_length_s / epoch_duration_s))
        self._epoch_index = 0

    def process_arrivals(
        self,
        drained: Sequence[Tuple[int, RecordContainer]],
        partial_states: Optional[Dict[int, object]] = None,
        collect_outputs: bool = False,
        compute_budget_s: Optional[float] = None,
        cpu_used_s: float = 0.0,
    ) -> SPArrivals:
        """Process one batch of arrivals without advancing the epoch clock.

        The multi-source executor calls this many times within one epoch
        and then :meth:`advance_epoch` exactly once, so window boundaries
        stay aligned with wall-clock epochs no matter how many sources feed
        the pipeline.

        Each drained batch resumes at its stage and runs the operators after
        it, stopping at the first operator whose input is empty.  Its CPU is
        the running sum of :meth:`CostModel.batch_cost` over those operators.

        With ``compute_budget_s``, ``drained`` is a FIFO walked under that
        budget: a batch is processed if and only if ``cpu_used_s`` plus the
        CPU of the batches processed before it is below the budget, and the
        walk stops at the first batch that is not.  Batches of one stage,
        all columnar, whose operators are row filters up to a last operator
        (:attr:`Operator.masks_rows`) run as one columnar pass
        (:meth:`_fold_run`); any other FIFO runs batch by batch.  Both give
        the same results.

        Returns an :class:`SPArrivals`.  With ``collect_outputs``, its
        outputs are materialized record objects, even for columnar arrivals.
        By default nothing is materialized: the executors never read the
        output stream, and processing and state effects are identical
        either way.
        """
        outputs: List[Record] = []
        sink = outputs if collect_outputs else None
        if compute_budget_s is not None and self._foldable(drained):
            records_processed, cpu_used, batch_cpu = self._fold_run(
                drained, compute_budget_s, cpu_used_s, sink
            )
        else:
            records_processed, cpu_used, batch_cpu = self._run_each(
                drained, compute_budget_s, cpu_used_s, sink
            )

        for stage_index, state in (partial_states or {}).items():
            operator = self.operators[stage_index]
            operator.merge_partial(state)

        return SPArrivals(records_processed, cpu_used, outputs, batch_cpu)

    def _run_each(
        self,
        drained: Sequence[Tuple[int, RecordContainer]],
        compute_budget_s: Optional[float],
        cpu_used_s: float,
        outputs: Optional[List[Record]],
    ) -> Tuple[int, float, List[float]]:
        """Run the drained batches one at a time (see :meth:`process_arrivals`);
        returns ``(records_processed, cpu_used, batch_cpu)``."""
        cpu_used = 0.0
        records_processed = 0
        batch_cpu: List[float] = []
        for stage_index, records in drained:
            if compute_budget_s is not None and cpu_used_s >= compute_budget_s:
                break
            if not 0 <= stage_index < len(self.operators):
                raise SimulationError(
                    f"drained batch targets unknown stage {stage_index}"
                )
            current: RecordContainer = (
                records if isinstance(records, RecordBatch) else list(records)
            )
            cpu = 0.0
            for operator in self.operators[stage_index:]:
                if not current:
                    break
                cost = self.cost_model.batch_cost(operator, len(current))
                cpu_used += cost
                cpu += cost
                records_processed += len(current)
                current = process_records(operator, current)
            if current and outputs is not None:
                outputs.extend(
                    current.to_records()
                    if isinstance(current, RecordBatch)
                    else current
                )
            batch_cpu.append(cpu)
            cpu_used_s += cpu
        return records_processed, cpu_used, batch_cpu

    def _foldable(self, drained: Sequence[Tuple[int, RecordContainer]]) -> bool:
        """Whether a drained FIFO can run as one columnar pass (:meth:`_fold_run`)."""
        if len(drained) < 2:
            return False
        stage_index, first = drained[0]
        if not 0 <= stage_index < len(self.operators) or not isinstance(
            first, RecordBatch
        ):
            return False
        if any(
            stage != stage_index
            or not isinstance(records, RecordBatch)
            or records.record_class is not first.record_class
            for stage, records in drained
        ):
            return False
        return all(operator.masks_rows for operator in self.operators[stage_index:-1])

    def _fold_run(
        self,
        drained: Sequence[Tuple[int, RecordContainer]],
        compute_budget_s: float,
        cpu_used_s: float,
        outputs: Optional[List[Record]],
    ) -> Tuple[int, float, List[float]]:
        """One pass of each operator over a foldable FIFO (see
        :meth:`process_arrivals`); returns ``(records_processed, cpu_used,
        batch_cpu)``.

        The batches coalesce into one (:func:`coalesce_batches`, a view of
        the arena when they are adjacent in it).  Each row filter runs once
        over it (:func:`mask_rows`), which counts each batch's survivors.
        The per-batch counts give each batch its exact CPU, summed in the
        per-batch order, and the budget walk picks how many batches are
        processed.  The last operator then folds the survivors of exactly
        those batches, in FIFO order, in one call.  Rows of the batches left
        unprocessed only went through row masks, which change no state.
        """
        stage_index = drained[0][0]
        operators = self.operators[stage_index:]
        costs = [self.cost_model.cost_per_record(operator) for operator in operators]
        batches = [records for _, records in drained]
        current = coalesce_batches(batches)
        counts = [[len(batch) for batch in batches]]
        for operator in operators[:-1]:
            # Each batch's rows in ``current``.
            offsets = list(accumulate(counts[-1], initial=0))
            current, kept = mask_rows(operator, current, list(zip(offsets, offsets[1:])))
            counts.append(kept)

        cpu_used = 0.0
        records_processed = 0
        batch_cpu: List[float] = []
        for index in range(len(batches)):
            if cpu_used_s >= compute_budget_s:
                break
            cpu = 0.0
            for cost, stage_counts in zip(costs, counts):
                count = stage_counts[index]
                if not count:
                    break
                cpu += cost * count
                records_processed += count
            batch_cpu.append(cpu)
            cpu_used += cpu
            cpu_used_s += cpu

        survivors = current[: sum(counts[-1][: len(batch_cpu)])]
        if survivors:
            output = process_records(operators[-1], survivors)
            if output and outputs is not None:
                outputs.extend(
                    output.to_records() if isinstance(output, RecordBatch) else output
                )
        return records_processed, cpu_used, batch_cpu

    def advance_epoch(self, collect_outputs: bool = False) -> List[Record]:
        """Close the current epoch; flush operators at window boundaries.

        By default the window's final rows are discarded, not materialized:
        the executors never read them, and building hundreds of thousands
        of output records per window dominated flush cost at scale.
        ``collect_outputs=True`` returns them.
        """
        epoch = self._epoch_index
        self._epoch_index += 1
        outputs: List[Record] = []
        if (epoch + 1) % self.epochs_per_window == 0:
            for operator in self.operators:
                if collect_outputs:
                    outputs.extend(operator.flush())
                else:
                    operator.discard_window()
        return outputs
