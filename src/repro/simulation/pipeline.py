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
is a sequence of per-stage steps, so :func:`run_block_epoch` can move a
whole building block's pipelines through it stage by stage: a row-masking
operator then runs once over every source's arena rows (:func:`mask_rows`),
and the G+R once over the rows that reach it
(:func:`~repro.query.operators.append_runs`), while each source keeps its
own queues, budget, group state and numbers.
:meth:`SourcePipeline.run_epoch` is the one-source form.

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
from ..core.control_proxy import ControlProxy, ProxyObservation
from ..errors import SimulationError
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

    ``queue`` is a :data:`RecordContainer`: a record list on the object path,
    a :class:`RecordBatch` on the arena path (an empty list concatenates
    into whichever container the epoch produces).
    """

    proxy: ControlProxy
    operator: Operator
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

    @property
    def drained_records(self) -> int:
        return sum(len(records) for _, records in self.drained)

    @property
    def drained_bytes(self) -> float:
        return float(
            sum(record_size_bytes(records, drain=True) for _, records in self.drained)
        )

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


@dataclass
class _SourceEpoch:
    """One pipeline's epoch in flight, between its open and close steps."""

    result: SourceEpochResult
    profile: bool
    #: What arrives at the next stage: the epoch's input, then each stage's
    #: operator output.
    current: RecordContainer
    used_seconds: float = 0.0


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
        self.stages: List[_SourceStage] = [
            _SourceStage(
                proxy=ControlProxy(op.name, self.thresholds, load_factor=0.0),
                operator=op,
            )
            for op in operators
        ]
        self._epoch_index = 0
        self._drain_backlog_next_epoch = False

    # -- load factors ------------------------------------------------------------

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def operator_names(self) -> List[str]:
        return [stage.operator.name for stage in self.stages]

    def load_factors(self) -> List[float]:
        return [stage.proxy.load_factor for stage in self.stages]

    def set_load_factors(self, factors: Sequence[float]) -> None:
        """Install a new data-level partitioning plan.

        When the plan actually changes, records still queued under the old
        plan are scheduled to be drained to the stream processor at the start
        of the next epoch ("any pending data that needs to be processed" is
        sent along, Section IV-A), so the new plan is evaluated on fresh input
        rather than on the previous plan's backlog.
        """
        if len(factors) != len(self.stages):
            raise SimulationError(
                f"expected {len(self.stages)} load factors, got {len(factors)}"
            )
        changed = any(
            abs(stage.proxy.load_factor - factor) > 1e-9
            for stage, factor in zip(self.stages, factors)
        )
        for stage, factor in zip(self.stages, factors):
            stage.proxy.set_load_factor(factor)
        if changed and self.allow_congestion_relief:
            self._drain_backlog_next_epoch = True

    def proxies(self) -> List[ControlProxy]:
        return [stage.proxy for stage in self.stages]

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
        (result,) = run_block_epoch([self], [records], [cpu_budget_fraction], [profile])
        return result

    def _begin_epoch(
        self, records: RecordContainer, cpu_budget_fraction: float, profile: bool
    ) -> _SourceEpoch:
        """Open an epoch: its result, and the old plan's backlog drained."""
        if cpu_budget_fraction < 0:
            raise SimulationError(
                f"cpu_budget_fraction must be >= 0, got {cpu_budget_fraction!r}"
            )
        epoch = self._epoch_index
        self._epoch_index += 1
        result = SourceEpochResult(
            epoch=epoch,
            records_in=len(records),
            input_bytes=float(record_size_bytes(records)),
            cpu_used_seconds=0.0,
            cpu_budget_seconds=cpu_budget_fraction * self.epoch_duration_s,
        )
        if profile:
            result.measured_costs = []
            result.measured_relays = []

        result.queue_drained_per_stage = [0] * len(self.stages)
        result.rejected_per_stage = [0] * len(self.stages)

        if self._drain_backlog_next_epoch:
            # A new plan was installed: ship the old plan's pending records to
            # the stream processor so they do not distort its evaluation.
            self._drain_backlog_next_epoch = False
            for index, stage in enumerate(self.stages):
                if stage.queue:
                    result.drained.append((index, stage.queue))
                    result.queue_drained_per_stage[index] += len(stage.queue)
                    stage.queue = []

        current = records if isinstance(records, RecordBatch) else list(records)
        return _SourceEpoch(result, profile, current)

    def _admit(self, run: _SourceEpoch, index: int) -> RecordContainer:
        """Stage ``index``'s counts for this epoch; returns its operator input.

        Routing, the CPU budget, congestion relief and backpressure
        (:meth:`_keep_pending`) are all decided on counts.  The stage's
        queue is its old queue followed by the forwarded records, and rows
        are cut from it by position, so a container is sliced only where
        rows leave the stage: a drained batch, the operator's input, or a
        non-empty queue remainder.
        """
        stage = self.stages[index]
        result = run.result
        current = run.current
        incoming = len(current)
        cost = self.cost_model.cost_per_record(stage.operator)
        available = max(0.0, result.cpu_budget_seconds - run.used_seconds)
        if run.profile:
            # Profiling ignores load factors: each operator is measured on
            # as many records as the remaining budget allows ("executing an
            # operator at a time"); the rest drains immediately so the
            # profiling epoch does not build up artificial backlog.
            forwarded = incoming if cost <= 1e-15 else min(incoming, int(available / cost))
            result.measured_costs.append(cost)
        else:
            forwarded, _ = stage.proxy.route(incoming)
        if forwarded < incoming:
            result.drained.append((index, current[forwarded:]))
        result.forwarded_per_stage.append(forwarded)

        queue = stage.queue
        total = len(queue) + forwarded
        processed = total if cost <= 1e-15 else min(total, int(available / cost))
        run.used_seconds += processed * cost
        to_process = _rows(queue, current, 0, processed)
        pending = total - processed
        if pending:
            self._keep_pending(run, index, queue, processed, total)
        else:
            stage.queue = []

        result.processed_per_stage.append(processed)
        result.pending_per_stage.append(len(stage.queue))
        stage.proxy.record_processing(
            processed=processed,
            pending=pending,
            idle_fraction=0.0,  # assigned after the whole pipeline ran
        )
        return to_process

    def _keep_pending(
        self,
        run: _SourceEpoch,
        index: int,
        queue: RecordContainer,
        processed: int,
        total: int,
    ) -> None:
        """Queue what stage ``index`` left unprocessed.

        The stage's rows are ``queue`` followed by this epoch's forwarded
        records, ``total`` of them, of which the first ``processed`` ran;
        the rest stay queued, less congestion relief and backpressure.
        """
        stage = self.stages[index]
        result = run.result
        current = run.current
        thresholds = self.thresholds
        pending = total - processed
        incoming = len(current)
        congestion_floor = max(
            thresholds.congestion_pending_records,
            int(math.ceil(thresholds.drained_thres * max(1, incoming))),
        )
        relief_start = relief_stop = total
        if self.allow_congestion_relief and pending > congestion_floor:
            # Congestion relief: the proxy may drain up to ``DrainedThres``
            # of an epoch's records from its pending queue (Section IV-C),
            # which absorbs transient overload without silently converting
            # a congested plan into a different partitioning.  The proxy
            # still reports the pre-relief pending count so congestion is
            # detected and adaptation triggers.  The drained window sits
            # just past the congestion floor; the rows before and after it
            # stay queued, so nothing is both drained and retained.
            relief_start = processed + congestion_floor
            relief_cap = int(
                math.ceil(thresholds.drained_thres * max(1, result.records_in))
            )
            relief_stop = min(total, relief_start + relief_cap)
            if relief_stop > relief_start:
                result.drained.append(
                    (index, _rows(queue, current, relief_start, relief_stop))
                )
                result.queue_drained_per_stage[index] += relief_stop - relief_start
            else:
                relief_start = relief_stop = total

        # Connection backpressure: each queue holds at most a configurable
        # number of epochs' worth of records; beyond that, newly forwarded
        # records are not admitted and do not count towards throughput.
        # Only this epoch's records, the queue's tail, can be turned away:
        # records admitted in earlier epochs stay queued.
        head = relief_start - processed
        tail = total - relief_stop
        capacity = max(
            1,
            int(math.ceil(thresholds.queue_capacity_epochs * max(1, result.records_in))),
        )
        if head + tail > capacity:
            queued = len(queue)
            fresh = max(0, relief_start - max(processed, queued)) + max(
                0, total - max(relief_stop, queued)
            )
            rejected = min(head + tail - capacity, fresh)
            result.rejected_records += rejected
            result.rejected_per_stage[index] += rejected
            from_tail = min(tail, rejected)
            tail -= from_tail
            head -= rejected - from_tail
        stage.queue = _rows(queue, current, processed, processed + head)
        if tail:
            stage.queue = _joined(
                [stage.queue, _rows(queue, current, relief_stop, relief_stop + tail)]
            )

    def _settle(
        self,
        run: _SourceEpoch,
        index: int,
        to_process: RecordContainer,
        output: RecordContainer,
    ) -> None:
        """Account stage ``index``'s operator output; it feeds the next stage."""
        stage = self.stages[index]
        in_bytes = float(record_size_bytes(to_process))
        stage.window_input_bytes += in_bytes
        out_bytes = float(record_size_bytes(output))
        if run.profile:
            run.result.measured_relays.append(
                self._relay_estimate(stage, in_bytes, out_bytes)
            )
        elif not stage.operator.stateful and to_process and in_bytes > 0:
            # Clamp exactly as the profiling path (`_relay_estimate`) and
            # the window-flush measurement do: relay ratios feed the LP
            # planner as reduction fractions, so an expanding operator is
            # reported as 1.0 on every measurement path rather than giving
            # the planner two different answers.
            stage.measured_relay = min(1.0, out_bytes / in_bytes)
        run.current = output

    def _finish_epoch(self, run: _SourceEpoch) -> SourceEpochResult:
        """Close the epoch: emitted records, window flush, idle accounting."""
        result = run.result
        # Records emitted by the final stage during the epoch (stateless tail).
        if run.current:
            result.emitted = run.current

        # Window boundary: flush stateful operators and ship partial state.
        if (result.epoch + 1) % self.epochs_per_window == 0:
            self._flush_windows(result)

        # Idle accounting: the pipeline is idle for whatever budget is unused.
        # Only the idle fraction is reported here; the pending count recorded
        # during processing must keep reflecting the pre-relief backlog.
        budget_seconds = result.cpu_budget_seconds
        idle_fraction = 0.0
        if budget_seconds > 0:
            idle_fraction = max(0.0, (budget_seconds - run.used_seconds) / budget_seconds)
        for stage in self.stages:
            stage_idle = idle_fraction if not stage.queue else 0.0
            stage.proxy.record_idle(stage_idle)

        result.cpu_used_seconds = run.used_seconds
        result.observations = [stage.proxy.observe() for stage in self.stages]
        return result

    # -- helpers ------------------------------------------------------------------

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

    def _flush_windows(self, result: SourceEpochResult) -> None:
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
                result.partial_states[index] = shipped
                # Dict states and the arena's columnar states both expose one
                # row per distinct group; opaque states ship as one row.
                if isinstance(shipped, dict):
                    group_count = len(shipped)
                else:
                    group_count = getattr(shipped, "group_count", 1)
                result.partial_state_bytes += group_count * PARTIAL_STATE_ROW_BYTES
            # The flushed records themselves are not re-sent: the partial state
            # carries the same information and is what the SP merges.
            stage.window_input_bytes = 0.0

    def reset(self) -> None:
        """Clear all queues, operator state, and proxy counters."""
        for stage in self.stages:
            stage.queue = []
            stage.operator.reset()
            stage.window_input_bytes = 0.0
            stage.measured_relay = None
        self._epoch_index = 0


def run_block_epoch(
    pipelines: Sequence[SourcePipeline],
    records: Sequence[RecordContainer],
    cpu_budget_fractions: Sequence[float],
    profiles: Sequence[bool],
    arena: Optional[FleetArena] = None,
) -> List[SourceEpochResult]:
    """Step pipelines of one plan through one epoch together, stage by stage.

    Every pipeline opens its epoch; then, stage by stage, every pipeline
    decides its counts (:meth:`SourcePipeline._admit`), the stage's
    operators run over all of their inputs (:func:`_run_stage`), and every
    pipeline accounts its output; then every pipeline closes its epoch.
    Pipelines share no state, so each result is what the pipeline's own
    :meth:`SourcePipeline.run_epoch` returns.  Stepping together lets a
    row-masking stage, and a G+R that appends raw runs, run one pass over
    every input that views the same buffers (:func:`_run_stage`).  With
    ``arena``, a masking pass's survivors are rows the arena takes into
    its recycled buffers (:meth:`FleetArena.take`), so their owner detaches
    whatever outlives the epoch exactly as it detaches arena views, and the
    next stage's pass covers them.

    The pipelines must run one plan, the same operator chain stage by
    stage: a masking stage applies the first pipeline's row mask to all.
    """
    runs = [
        pipeline._begin_epoch(batch, fraction, profile)
        for pipeline, batch, fraction, profile in zip(
            pipelines, records, cpu_budget_fractions, profiles
        )
    ]
    for index in range(pipelines[0].num_stages if pipelines else 0):
        inputs = [pipeline._admit(run, index) for pipeline, run in zip(pipelines, runs)]
        outputs = _run_stage(
            [pipeline.stages[index].operator for pipeline in pipelines], inputs, arena
        )
        for pipeline, run, to_process, output in zip(pipelines, runs, inputs, outputs):
            pipeline._settle(run, index, to_process, output)
    return [pipeline._finish_epoch(run) for pipeline, run in zip(pipelines, runs)]


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
        (:attr:`Operator.masks_rows`) and whose costs do not depend on state
        (:meth:`CostModel.cost_depends_on_state`) run as one columnar pass
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
        operators = self.operators[stage_index:]
        return all(operator.masks_rows for operator in operators[:-1]) and not any(
            self.cost_model.cost_depends_on_state(operator) for operator in operators
        )

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

    def reset(self) -> None:
        for operator in self.operators:
            operator.reset()
        self._epoch_index = 0
