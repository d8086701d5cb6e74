"""Streaming operators used by monitoring queries.

These implement the stream primitives from Section II-A of the paper:

* ``Window`` (W)   — assigns records to fixed-size tumbling windows.
* ``Filter`` (F)   — drops records failing a predicate; cheap per record.
* ``Map`` (M)      — user-defined transformation (parsing, splitting, ...).
* ``Join`` (J)     — joins the stream with a static table via key lookups.
* ``Aggregate`` (R)  — reduces the window with incremental aggregates.
* ``GroupAggregate`` (G+R) — groups records by key and reduces each group,
  the paper's grouping+reduction unit; the query builder emits it for
  ``group_apply(...).aggregate(...)``.

Each operator is a pure function over a batch of records for a single epoch;
stateful operators additionally expose ``partial_state`` / ``merge_partial``
so the data-source-side partial aggregates can be merged with the
stream-processor-side aggregates computed from drained records (Section V,
"Accurate query processing").
"""

from __future__ import annotations

import copy
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueryDefinitionError, require_finite
from .aggregates import (
    Aggregate,
    AggregateState,
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
    all_incremental,
)
from .records import (
    AGGREGATE_ROW_BYTES,
    AggregateRecord,
    EnrichedPingmeshRecord,
    IpToTorTable,
    Record,
    RecordBatch,
    record_size_bytes,
)


class Operator:
    """Base class for streaming operators.

    Attributes:
        name: Human-readable identifier, unique within a query.
        kind: Short operator-kind tag ("window", "filter", "map", "join",
            "group_aggregate", "aggregate") used by the cost model.
        stateful: Whether the operator accumulates cross-record state.
        incremental: Whether its state is incrementally mergeable (rule R-1).
        cost_hint: Relative per-record cost multiplier consumed by the cost
            model; 1.0 means "typical for this operator kind".
    """

    kind: str = "operator"
    stateful: bool = False
    incremental: bool = True

    def __init__(self, name: str, cost_hint: float = 1.0) -> None:
        if not name:
            raise QueryDefinitionError("operator name must be non-empty")
        require_finite(
            "cost_hint", cost_hint, positive=True, error=QueryDefinitionError
        )
        self.name = name
        self.cost_hint = cost_hint

    def process(self, records: Sequence[Record]) -> List[Record]:
        """Process a batch of records and return the emitted records."""
        raise NotImplementedError

    def process_batch(self, batch: RecordBatch):
        """Process a columnar :class:`RecordBatch` (arena mode).

        Operators with a columnar implementation override this and return a
        ``RecordBatch`` (or an empty list); the default materializes the batch
        and runs the object path, so any operator stays correct in arena
        mode — its output simply degrades to record objects downstream.
        Overrides must produce *bit-identical* counts and bytes to the object
        path (the arena/object equivalence tests enforce this); only
        aggregate slot floats, which no metric reads, may differ in
        summation order.
        """
        return self.process(batch.to_records())

    @property
    def masks_rows(self) -> bool:
        """Whether :meth:`row_mask` answers: ``process_batch`` only drops
        rows, and a columnar test says which.  On the arena path such a
        stage runs one pass over many sources' rows, on the data source and
        on the stream processor alike."""
        return False

    def row_mask(self, batch: RecordBatch) -> np.ndarray:
        """The rows ``process_batch(batch)`` keeps, as a boolean array.

        Defined when :attr:`masks_rows` holds, and then
        ``process_batch(batch)`` equals ``batch.compress(row_mask(batch))``.
        Both sides of the partitioned pipeline use it to run one operator
        over many sources' rows at once and still count each source's
        survivors: the source stepper over a block's arena rows, the stream
        processor over a run of drained batches
        (:func:`~repro.simulation.pipeline.mask_rows`).  The mask is a
        function of each row alone, so it does not matter which rows share
        the pass.
        """
        raise NotImplementedError(f"operator {self.name!r} has no row mask")

    @property
    def appends_runs(self) -> bool:
        """Whether ``process_batch`` appends a batch to the operator's group
        state as one raw run (:func:`append_runs`).  On the arena path the
        source stepper then runs one pass over many sources' inputs, and
        each source's operator appends its own rows."""
        return False

    def partial_state(self) -> Optional[object]:
        """Return the operator's mergeable partial state, if stateful."""
        return None

    def take_partial_state(self) -> Optional[object]:
        """Snapshot the partial state for shipping at a window boundary.

        Called immediately before :meth:`flush`.  The default takes a shallow
        copy, which is safe because every ``flush`` implementation *replaces*
        or *clears* its accumulator instead of mutating the shipped state in
        place; operators whose state allows it override this with a plain
        ownership transfer.  ``copy.deepcopy`` is banned from the hot path
        (simlint SL010) — deep-copying group state dominated window-boundary
        cost before PR 4 removed it.
        """
        state = self.partial_state()
        return copy.copy(state) if state else None

    def merge_partial(self, other: Optional[object]) -> None:
        """Merge a partial state produced by a replicated operator instance."""

    def flush(self) -> List[Record]:
        """Emit records for the closing window from accumulated state."""
        return []

    def flush_bytes(self) -> int:
        """Close the window and return the flushed records' byte total.

        The source pipeline only measures the flushed output's size (flushed
        records are not re-sent — the partial state carries the same
        information), so operators that can size their output in closed form
        override this to skip materializing rows that nobody reads.  Must
        equal ``record_size_bytes(self.flush())`` exactly.
        """
        return record_size_bytes(self.flush())

    def discard_window(self) -> None:
        """Close the window, discarding the would-be output records.

        Used by executors that ignore final outputs (the multi-source scale
        paths); overrides must apply exactly ``flush``'s state transition.
        """
        self.flush()

    def clone(self) -> "Operator":
        """Create an identically configured operator with fresh state.

        Used when replicating operators onto the stream processor side of the
        partitioned pipeline (Figure 5).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r}>"


#: Aggregate types whose accumulator updates are simple enough to fuse into
#: one flat slot list per group (exact types only — subclasses may change
#: semantics and keep one :class:`AggregateState` per group).
_FUSED_KIND_BY_TYPE = {
    AvgAggregate: "avg",
    MaxAggregate: "max",
    MinAggregate: "min",
    SumAggregate: "sum",
    CountAggregate: "count",
}


def _fused_aggregate_spec(
    aggregates: Sequence[Aggregate],
) -> Optional[Tuple[Tuple[str, ...], Optional[str]]]:
    """``(kinds, shared field)`` when the aggregate set is fusable.

    Fusable means every aggregate is one of the simple incremental kinds and
    all value-consuming ones read the same field, so a group update is a
    handful of inline float operations — bit-identical to the per-aggregate
    ``add`` calls — instead of method dispatch per aggregate.
    """
    kinds: List[str] = []
    fields = set()
    for aggregate in aggregates:
        kind = _FUSED_KIND_BY_TYPE.get(type(aggregate))
        if kind is None:
            return None
        kinds.append(kind)
        if kind != "count":
            fields.add(aggregate.field)
    if len(fields) > 1:
        return None
    field = next(iter(fields)) if fields else None
    return tuple(kinds), field


class WindowOperator(Operator):
    """Assigns records to fixed-size tumbling windows.

    The window operator is effectively free in terms of compute (the paper's
    Figure 3 shows 0% CPU attributed to W); it exists so downstream stateful
    operators know the window boundaries they aggregate over.
    """

    kind = "window"

    def __init__(self, name: str, length_s: float, cost_hint: float = 1.0) -> None:
        super().__init__(name, cost_hint)
        if length_s <= 0:
            raise QueryDefinitionError(
                f"window length must be positive, got {length_s!r}"
            )
        self.length_s = float(length_s)

    def process(self, records: Sequence[Record]) -> List[Record]:
        return list(records)

    def process_batch(self, batch: RecordBatch) -> RecordBatch:
        return batch

    @property
    def masks_rows(self) -> bool:
        return True

    def row_mask(self, batch: RecordBatch) -> np.ndarray:
        return np.ones(len(batch), dtype=bool)

    def clone(self) -> "WindowOperator":
        return WindowOperator(self.name, self.length_s, self.cost_hint)


class FilterOperator(Operator):
    """Drops records that do not satisfy ``predicate``.

    ``column_equals`` is an optional columnar hint ``(field, value)``: when
    set, the predicate must be equivalent to
    ``getattr(record, field, <something != value>) == value`` so the arena
    path can evaluate it as one comparison per column entry (records without
    the field fail the filter, matching the ``getattr`` default).
    """

    kind = "filter"

    def __init__(
        self,
        name: str,
        predicate: Callable[[Record], bool],
        cost_hint: float = 1.0,
        column_equals: Optional[Tuple[str, Any]] = None,
    ) -> None:
        super().__init__(name, cost_hint)
        self.predicate = predicate
        self.column_equals = column_equals

    def process(self, records: Sequence[Record]) -> List[Record]:
        return [record for record in records if self.predicate(record)]

    def process_batch(self, batch: RecordBatch) -> RecordBatch:
        if self.masks_rows:
            return batch.compress(self.row_mask(batch))
        # No columnar hint: materialize and run the object path, so an opaque
        # predicate sees real records (isinstance checks, Record methods).
        return self.process(batch.to_records())

    @property
    def masks_rows(self) -> bool:
        return self.column_equals is not None

    def row_mask(self, batch: RecordBatch) -> np.ndarray:
        """One comparison per entry of the hinted column; a batch without
        that column keeps no row (the predicate's ``getattr`` default)."""
        if self.column_equals is None:
            return super().row_mask(batch)
        name, target = self.column_equals
        column = batch.column(name)
        if column is None:
            return np.zeros(len(batch), dtype=bool)
        return column == target

    def clone(self) -> "FilterOperator":
        return FilterOperator(
            self.name, self.predicate, self.cost_hint, column_equals=self.column_equals
        )


class MapOperator(Operator):
    """Applies a user-defined transformation to each record.

    The transformation may return a record, ``None`` (drop), or a list of
    records (flat-map), which covers parsing/splitting of text logs in the
    LogAnalytics query (Listing 3).
    """

    kind = "map"
    #: The user function is an opaque per-record callable, so there is no
    #: columnar evaluation; arena mode materializes records (simlint SL006).
    process_batch_fallback = True

    def __init__(
        self,
        name: str,
        fn: Callable[[Record], Any],
        cost_hint: float = 1.0,
    ) -> None:
        super().__init__(name, cost_hint)
        self.fn = fn

    def process(self, records: Sequence[Record]) -> List[Record]:
        output: List[Record] = []
        for record in records:
            result = self.fn(record)
            if result is None:
                continue
            if isinstance(result, list):
                output.extend(result)
            else:
                output.append(result)
        return output

    def clone(self) -> "MapOperator":
        return MapOperator(self.name, self.fn, self.cost_hint)


class JoinOperator(Operator):
    """Joins the stream with a static lookup table (stream-table join).

    Rule R-3 forbids stateful *stream-stream* joins on data sources; a join
    against a static table is allowed because it holds no cross-record state.
    Its per-record cost grows with the table size (hash-table lookups with
    irregular access patterns), which the cost model captures through
    :attr:`table_size`.
    """

    kind = "join"
    #: Lookup/combine are opaque per-record callables; arena mode
    #: materializes records through the default path (simlint SL006).
    process_batch_fallback = True

    def __init__(
        self,
        name: str,
        table: IpToTorTable,
        key_fn: Callable[[Record], int],
        combine_fn: Callable[[Record, int], Optional[Record]],
        cost_hint: float = 1.0,
    ) -> None:
        super().__init__(name, cost_hint)
        self.table = table
        self.key_fn = key_fn
        self.combine_fn = combine_fn

    @property
    def table_size(self) -> int:
        """Number of entries in the static join table."""
        return len(self.table)

    def process(self, records: Sequence[Record]) -> List[Record]:
        output: List[Record] = []
        for record in records:
            key = self.key_fn(record)
            match = self.table.lookup(key)
            if match is None:
                continue
            combined = self.combine_fn(record, match)
            if combined is not None:
                output.append(combined)
        return output

    def clone(self) -> "JoinOperator":
        return JoinOperator(
            self.name, self.table, self.key_fn, self.combine_fn, self.cost_hint
        )


class AggregateOperator(Operator):
    """Global (ungrouped) aggregation over a window."""

    kind = "aggregate"
    stateful = True

    def __init__(
        self,
        name: str,
        aggregates: Sequence[Aggregate],
        value_fn: Optional[Callable[[Record], Dict[str, float]]] = None,
        cost_hint: float = 1.0,
    ) -> None:
        super().__init__(name, cost_hint)
        if not aggregates:
            raise QueryDefinitionError("aggregate operator needs >= 1 aggregate")
        self.aggregates = list(aggregates)
        self.incremental = all_incremental(self.aggregates)
        self.value_fn = value_fn or _default_value_fn
        self._state = AggregateState(self.aggregates)
        self._last_event_time = 0.0

    def process(self, records: Sequence[Record]) -> List[Record]:
        for record in records:
            self._state.add(self.value_fn(record))
            if record.event_time > self._last_event_time:
                self._last_event_time = record.event_time
        return []

    def process_batch(self, batch: RecordBatch) -> List[Record]:
        if not batch:
            return []
        fields = _batch_field_values(batch, self.value_fn)
        if fields is None:
            # Opaque value_fn: materialize so it sees real records.
            return self.process(batch.to_records())
        self._state.add_many(fields, len(batch))
        latest = float(batch.event_times.max())
        if latest > self._last_event_time:
            self._last_event_time = latest
        return []

    def partial_state(self) -> AggregateState:
        return self._state

    def take_partial_state(self) -> AggregateState:
        # ``flush`` *replaces* the accumulator (and leaves an empty one
        # untouched), so a non-empty state can be handed off without copying.
        if self._state.count == 0:
            return AggregateState(self.aggregates)
        return self._state

    def merge_partial(self, other: Optional[object]) -> None:
        if other is None:
            return
        if not isinstance(other, AggregateState):
            raise QueryDefinitionError(
                f"cannot merge state of type {type(other).__name__}"
            )
        self._state.merge(other)

    def flush(self) -> List[Record]:
        if self._state.count == 0:
            return []
        record = AggregateRecord(
            event_time=self._last_event_time,
            group_key=(),
            values=self._state.results(),
            count=self._state.count,
        )
        self._state = AggregateState(self.aggregates)
        return [record]

    def clone(self) -> "AggregateOperator":
        return AggregateOperator(
            self.name, self.aggregates, self.value_fn, self.cost_hint
        )


#: Packed-key headroom: two int64 key columns fit one int64 only when both
#: stay within 31 bits (the high column shifts left by 32; keeping values
#: below 2**31 leaves the sign bit clear so packing is order-preserving).
_KEY_PACK_LIMIT = 1 << 31


#: A folded chunk: ``(keys, counts, sums, maxs, mins)``, one row per
#: distinct packed key.
Chunk = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: A run of arena group state: either a raw ``(keys, values)`` pair, one row
#: per folded record, or a folded :data:`Chunk`.  A raw run is the chunk
#: whose counts are 1 and whose sums, maxima and minima are the values.
Run = Tuple[np.ndarray, ...]


def _segment_stats(
    keys: np.ndarray,
    counts: np.ndarray,
    sums: np.ndarray,
    maxs: np.ndarray,
    mins: np.ndarray,
) -> Chunk:
    """Fold per-row ``(count, sum, max, min)`` columns to one row per key.

    Stable-sorts the packed keys once, finds segment boundaries, and folds
    each segment with ``reduceat``.  Key sets, counts, maxima and minima are
    exact.  Float sums associate per key over the raw values in arrival
    order (the stable sort keeps it) but numpy may sum a segment pairwise,
    so they can differ from a sequential fold in the last bits.  They never
    feed metrics: all byte and record accounting is count-based.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=starts.dtype), starts))
    return (
        keys[starts],
        np.add.reduceat(counts[order], starts),
        np.add.reduceat(sums[order], starts),
        np.maximum.reduceat(maxs[order], starts),
        np.minimum.reduceat(mins[order], starts),
    )


def _run_column(run: Run, index: int) -> np.ndarray:
    """Column ``index`` of ``run`` read as a chunk (1=counts ... 4=mins)."""
    if len(run) == 5:
        return run[index]
    if index == 1:
        return np.ones(len(run[0]), dtype=np.int64)
    return run[1]


def _consolidate_chunks(runs: Sequence[Run]) -> Chunk:
    """Fold raw runs and chunks, mixed freely, into one chunk.

    This is the only group fold on the arena path.  A single chunk is
    returned as is.
    """
    if len(runs) == 1 and len(runs[0]) == 5:
        return runs[0]
    if not runs:
        empty = np.empty(0, dtype=np.float64)
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), empty, empty, empty)
    keys = np.concatenate([run[0] for run in runs])
    counts, sums, maxs, mins = (
        np.concatenate([_run_column(run, index) for run in runs])
        for index in range(1, 5)
    )
    return _segment_stats(keys, counts, sums, maxs, mins)


#: Widest span of packed keys a :class:`ColumnarGroupState` keeps a presence
#: bitmap over, one byte per key; a state whose keys spread wider counts its
#: groups by sorting them.
PRESENCE_SPAN_CAP = 1 << 16


class ColumnarGroupState:
    """Arena-mode group state: a list of unfolded runs, folded on demand.

    Each batch an arena-mode group aggregate sees becomes one raw run of
    packed int64 keys and float values (see :data:`Run`).  The runs stay
    unfolded until something reads the values (``to_groups`` or the
    ``keys``/``counts``/``sums``/``maxs``/``mins`` accessors); then
    :func:`_consolidate_chunks` folds them in place into one chunk for the
    fused ``("avg", "max", "min")`` layout.  Float sums therefore associate
    per key over the raw values; they never feed metrics.

    ``len`` and ``group_count`` are the exact distinct-key count, so
    window-boundary byte accounting (``PARTIAL_STATE_ROW_BYTES`` per group)
    matches the dict representation.  While every key falls in one span of
    at most :data:`PRESENCE_SPAN_CAP` packed keys, as in one data source's
    Pingmesh window (its one ``src_ip`` beside a range of ``dst_ip``), the
    state counts in a presence bitmap over that span: it marks each run's
    keys and counts set bits.  :meth:`add_run` marks a run as it arrives,
    from key bounds its caller knows, so the source stepper's window close
    counts without sorting; runs appended to :attr:`runs` directly are
    counted when the count is read.  Keys spread wider, such as a
    many-source state on the stream processor, switch the state to a
    sorted array of the distinct keys, into which later runs are sorted
    when the count is read.

    The same class is the operator's pending state and the partial state it
    ships: the receiving operator appends the shipped runs to its own (the
    arena fast path) or expands them into its group dict when
    representations mix.  Runs are never mutated in place, so shipped and
    receiving states may share arrays.
    """

    __slots__ = ("runs", "num_key_columns", "_counted", "_low", "_present", "_distinct")

    def __init__(self, num_key_columns: int) -> None:
        self.runs: List[Run] = []
        self.num_key_columns = num_key_columns
        #: ``runs[:_counted]`` are counted: in the bitmap, or in ``_distinct``.
        self._counted = 0
        #: Whether packed key ``_low + i`` is present; None once the keys
        #: outgrew :data:`PRESENCE_SPAN_CAP` and the state sorts instead.
        self._present: Optional[np.ndarray] = np.zeros(0, dtype=bool)
        self._low = 0
        #: Sorted distinct keys, when ``_present`` is None.
        self._distinct = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return self.group_count

    def add_run(
        self, keys: np.ndarray, values: np.ndarray, low: int, high: int
    ) -> None:
        """Append a raw run whose keys all lie in ``[low, high]`` and count
        it now, with any run appended uncounted before it, while the state
        counts in its bitmap; a sorting state counts when the count is read."""
        if self._present is not None:
            self._count_pending()
        self.runs.append((keys, values))
        if self._counted == len(self.runs) - 1 and self._mark(keys, low, high):
            self._counted += 1

    def _mark(self, keys: np.ndarray, low: int, high: int) -> bool:
        """Mark ``keys``, all in ``[low, high]``, in the bitmap, widening it
        as needed; False, changing nothing, when there is no bitmap or it
        would outgrow :data:`PRESENCE_SPAN_CAP`."""
        present = self._present
        if present is None:
            return False
        if len(present):
            low = min(low, self._low)
            high = max(high, self._low + len(present) - 1)
        if high - low >= PRESENCE_SPAN_CAP:
            return False
        if len(present) != high - low + 1:
            grown = np.zeros(high - low + 1, dtype=bool)
            offset = self._low - low if len(present) else 0
            grown[offset : offset + len(present)] = present
            self._present = present = grown
            self._low = low
        present[keys - low] = True
        return True

    @property
    def group_count(self) -> int:
        if not self.runs:
            return 0
        self._count_pending()
        if self._present is not None:
            return int(np.count_nonzero(self._present))
        return len(self._distinct)

    def _count_pending(self) -> None:
        """Count the runs appended since the last count."""
        runs = self.runs
        if self._counted < len(runs):
            fresh = [run[0] for run in runs[self._counted :]]
            keys = fresh[0] if len(fresh) == 1 else np.concatenate(fresh)
            if len(keys) and not self._mark(keys, int(keys.min()), int(keys.max())):
                self._sort_in(keys)
            self._counted = len(runs)

    def _sort_in(self, keys: np.ndarray) -> None:
        """Count ``keys`` by sorting them into the distinct keys, leaving
        the bitmap for good."""
        if self._present is not None:
            self._distinct = np.flatnonzero(self._present) + self._low
            self._present = None
        keys = np.concatenate([self._distinct, keys])
        # An in-place quicksort, several times faster than ``np.unique`` or
        # a stable sort on these sizes.
        keys.sort()
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        self._distinct = keys[first]

    def fold(self) -> Chunk:
        """Fold every run into one chunk, in place, and return it."""
        chunk = _consolidate_chunks(self.runs)
        if not self.runs:
            return chunk
        # The chunk holds the same keys, so a count taken now stands.
        self._count_pending()
        self.runs = [chunk]
        self._counted = 1
        return chunk

    @property
    def keys(self) -> np.ndarray:
        return self.fold()[0]

    @property
    def counts(self) -> np.ndarray:
        return self.fold()[1]

    @property
    def sums(self) -> np.ndarray:
        return self.fold()[2]

    @property
    def maxs(self) -> np.ndarray:
        return self.fold()[3]

    @property
    def mins(self) -> np.ndarray:
        return self.fold()[4]

    def to_groups(self) -> Dict[Tuple[Any, ...], List[object]]:
        """Expand to the fused dict representation (slot layout
        ``[count, avg_sum, avg_count, max, min]``)."""
        groups: Dict[Tuple[Any, ...], List[object]] = {}
        packed, counts, sums, maxs, mins = (column.tolist() for column in self.fold())
        if self.num_key_columns == 1:
            for index, key in enumerate(packed):
                count = counts[index]
                groups[(key,)] = [count, sums[index], count, maxs[index], mins[index]]
            return groups
        for index, key in enumerate(packed):
            count = counts[index]
            groups[(key >> 32, key & 0xFFFFFFFF)] = [
                count,
                sums[index],
                count,
                maxs[index],
                mins[index],
            ]
        return groups


class GroupAggregateOperator(Operator):
    """Fused grouping + reduction (the paper's ``G+R`` operator).

    Keeps one accumulator per group key.

    Two dict representations, chosen once at construction:

    * **fused** — when every aggregate is a simple incremental kind
      (sum/count/min/max/avg) sharing one value field, each group's state is a
      flat list ``[count, slot, ...]`` holding the values the corresponding
      :class:`AggregateState` slots would hold (an avg's ``(sum, count)``
      pair is stored as two adjacent entries so updates never allocate
      tuples), updated with inline arithmetic — no per-aggregate dispatch,
      no state objects.
    * **generic** — any other aggregate set keeps one
      :class:`AggregateState` per group.

    Both representations produce bit-identical results; partial states only
    ever merge between replicas of the same operator, and ``merge_partial``
    converts between representations when handed the other kind.

    A third, *deferred* representation is the columnar (arena) path for the
    bundled probe-query shape — fused ``("avg", "max", "min")`` with one or
    two int64 key columns.  A batch is not folded at all: it appends one
    owned raw run (packed int64 keys, float values) to a
    :class:`ColumnarGroupState`, with no per-record Python
    (:func:`append_runs`, which also runs one pass for many sources'
    operators on the source stepper).  The window ships those runs
    unfolded, and the SP appends them to its own.  Distinct-group counts
    are kept as runs arrive, from each run's key bounds, without reading
    a value.  Values fold only when something reads them (``flush`` with
    outputs, an object-path input draining into the dict, or the state's
    value accessors), so a scale run whose executors discard window
    outputs never folds.  Group *sets* and record *counts* — everything
    metrics read — are exactly the dict paths'.  Float sums associate per
    key over the raw values and may differ from the dict paths' in the
    last bits; they never feed metrics.  Any other batch materializes its
    records and takes the object path.
    """

    kind = "group_aggregate"
    stateful = True

    def __init__(
        self,
        name: str,
        key_fn: Callable[[Record], Tuple[Any, ...]],
        aggregates: Sequence[Aggregate],
        value_fn: Optional[Callable[[Record], Dict[str, float]]] = None,
        cost_hint: float = 1.0,
        key_columns: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(name, cost_hint)
        if not aggregates:
            raise QueryDefinitionError("group-aggregate operator needs >= 1 aggregate")
        self.key_fn = key_fn
        #: Optional columnar hint: when set, ``key_fn(record)`` must equal the
        #: tuple of these record fields, letting the arena path pack keys
        #: from columns instead of calling ``key_fn`` per record.
        self.key_columns = tuple(key_columns) if key_columns else None
        self.aggregates = list(aggregates)
        self.incremental = all_incremental(self.aggregates)
        self.value_fn = value_fn or _default_value_fn
        self._fused = _fused_aggregate_spec(self.aggregates)
        if self._fused is not None:
            self._fused_kinds, self._fused_field = self._fused
            #: Initial slot values, identical to each ``Aggregate.create()``
            #: with an avg's ``(sum, count)`` pair flattened into two
            #: entries; all simple-kind initials are immutable, so one tuple
            #: seeds every new group.
            fresh: List[object] = []
            for kind in self._fused_kinds:
                if kind == "avg":
                    fresh.extend((0.0, 0))
                elif kind in ("max", "min"):
                    fresh.append(None)
                elif kind == "sum":
                    fresh.append(0.0)
                else:  # count
                    fresh.append(0)
            self._fresh_slots = tuple(fresh)
            self._output_names = [
                aggregate.output_name() for aggregate in self.aggregates
            ]
            #: Closed-form size of one flushed row; valid only when output
            #: names are distinct (a collision shrinks the values dict).
            self._flush_row_bytes: Optional[int] = (
                AGGREGATE_ROW_BYTES + 8 * max(0, len(self._output_names) - 3)
                if len(set(self._output_names)) == len(self._output_names)
                else None
            )
        self._groups: Dict[Tuple[Any, ...], object] = {}
        self._vector_ready = (
            self._fused is not None
            and self._fused_kinds == ("avg", "max", "min")
            and self.key_columns is not None
            and len(self.key_columns) in (1, 2)
        )
        #: Arena-mode deferred representation: raw runs (and shipped states'
        #: runs) awaiting a reader.  Empty unless ``_vector_ready`` holds and
        #: batches arrive.
        self._vector_state = self._new_vector_state()
        self._last_event_time = 0.0

    # -- state updates -----------------------------------------------------------

    def _update_fused(self, slots: List[object], values: Dict[str, float]) -> None:
        """One record's fused update; mirrors ``AggregateState.add`` exactly."""
        index = 1
        for kind, aggregate in zip(self._fused_kinds, self.aggregates):
            value = values.get(aggregate.field, 0.0)
            if kind == "avg":
                slots[index] = slots[index] + value
                slots[index + 1] += 1
                index += 2
                continue
            if kind == "max":
                high = slots[index]
                if high is None or value > high:
                    slots[index] = value
            elif kind == "min":
                low = slots[index]
                if low is None or value < low:
                    slots[index] = value
            elif kind == "sum":
                slots[index] = slots[index] + value
            else:  # count
                slots[index] = slots[index] + 1
            index += 1
        slots[0] += 1

    def process(self, records: Sequence[Record]) -> List[Record]:
        self._drain_vector_state()
        groups = self._groups
        if self._fused is not None:
            for record in records:
                key = self.key_fn(record)
                slots = groups.get(key)
                if slots is None:
                    slots = [0, *self._fresh_slots]
                    groups[key] = slots
                self._update_fused(slots, self.value_fn(record))
                if record.event_time > self._last_event_time:
                    self._last_event_time = record.event_time
            return []
        for record in records:
            key = self.key_fn(record)
            state = groups.get(key)
            if state is None:
                state = AggregateState(self.aggregates)
                groups[key] = state
            state.add(self.value_fn(record))
            if record.event_time > self._last_event_time:
                self._last_event_time = record.event_time
        return []

    def _new_vector_state(self) -> ColumnarGroupState:
        return ColumnarGroupState(len(self.key_columns or ()))

    def _value_column(
        self, batch: RecordBatch
    ) -> Optional[Tuple[np.ndarray, Optional[float]]]:
        """The float column the fused field reads and the divisor that
        scales it (None: read as is), or None to fall back.

        Mirrors :func:`_batch_field_values` for the shared fused field, for
        float columns only (element-wise ``/ 1000.0`` is bit-identical to the
        per-record division).
        """
        if (
            self.value_fn is not _default_value_fn
            or self._fused_field not in _VALUE_COLUMNS
        ):
            return None
        name, divisor = _VALUE_COLUMNS[self._fused_field]
        column = batch.column(name)
        if column is None or not np.issubdtype(column.dtype, np.floating):
            return None
        return column, divisor

    @property
    def appends_runs(self) -> bool:
        return self._vector_ready

    def _drain_vector_state(self) -> None:
        """Fold pending runs and expand them into the group dict.

        Called whenever the object path needs the dict representation (mixed
        inputs, flushes with output collection); a pure arena run never takes
        it off the run representation.
        """
        if not self._vector_state.runs:
            return
        incoming = self._vector_state.to_groups()
        self._vector_state = self._new_vector_state()
        groups = self._groups
        for key, theirs in incoming.items():
            mine = groups.get(key)
            if mine is None:
                groups[key] = theirs
            else:
                self._merge_fused(mine, theirs)

    def process_batch(self, batch: RecordBatch) -> List[Record]:
        if not batch:
            return []
        if self._vector_ready and append_runs([self], batch, [(0, len(batch))])[0]:
            return []
        return self.process(batch.to_records())

    # -- state access ------------------------------------------------------------

    def group_count(self) -> int:
        """Number of distinct group keys currently held.

        Exactness matters: the relay estimate feeds the cost model, and any
        divergence from the object path would change placement decisions.
        On the arena path the pending runs' count is the one their
        :class:`ColumnarGroupState` keeps as they arrive (no fold, no dict
        expansion).
        """
        if self._vector_state.runs:
            if not self._groups:
                return self._vector_state.group_count
            self._drain_vector_state()
        return len(self._groups)

    def partial_state(self) -> Dict[Tuple[Any, ...], object]:
        self._drain_vector_state()
        return self._groups

    def take_partial_state(self) -> Optional[object]:
        # ``flush`` clears the group dict without mutating the states inside,
        # so a shallow dict copy transfers ownership of the states safely —
        # this replaces a deep copy that dominated window-boundary cost.
        state = self._vector_state
        if state.runs:
            if not self._groups:
                # Pure arena window: ship the unfolded runs; their distinct-key
                # count keeps partial-state byte accounting exact.  The state
                # stays pending until the call that closes the window
                # (``flush_bytes``, ``flush`` or ``discard_window``), so the
                # flushed byte total still counts its groups.
                return state
            self._drain_vector_state()
        if not self._groups:
            return None
        return dict(self._groups)

    def _coerce_state(self, state: object) -> object:
        """Convert an incoming group state to this operator's representation."""
        if self._fused is not None:
            if isinstance(state, AggregateState):
                flat: List[object] = [state.count]
                for kind, slot in zip(self._fused_kinds, state.states):
                    if kind == "avg":
                        flat.extend(slot)
                    else:
                        flat.append(slot)
                return flat
            return state
        if isinstance(state, list):
            converted = AggregateState.__new__(AggregateState)
            converted.aggregates = self.aggregates
            states: List[object] = []
            index = 1
            for aggregate in self.aggregates:
                if type(aggregate) is AvgAggregate:
                    states.append((state[index], state[index + 1]))
                    index += 2
                else:
                    states.append(state[index])
                    index += 1
            converted.states = states
            converted.count = state[0]
            return converted
        return state

    def _merge_fused(self, mine: List[object], theirs: List[object]) -> None:
        """Slot-wise merge mirroring each ``Aggregate.merge`` exactly."""
        index = 1
        for kind in self._fused_kinds:
            if kind == "avg":
                mine[index] = mine[index] + theirs[index]
                mine[index + 1] += theirs[index + 1]
                index += 2
                continue
            ours = mine[index]
            other = theirs[index]
            if kind == "max":
                if ours is None:
                    mine[index] = other
                elif other is not None:
                    mine[index] = max(ours, other)
            elif kind == "min":
                if ours is None:
                    mine[index] = other
                elif other is not None:
                    mine[index] = min(ours, other)
            else:  # sum / count
                mine[index] = ours + other
            index += 1
        mine[0] += theirs[0]

    def merge_partial(self, other: Optional[object]) -> None:
        if other is None:
            return
        if isinstance(other, ColumnarGroupState):
            if (
                self._vector_ready
                and not self._groups
                and len(self.key_columns) == other.num_key_columns
            ):
                # Arena fast path: adopt the shipped runs unfolded; they fold
                # only if something reads this window's values.
                self._vector_state.runs.extend(other.runs)
                return
            other = other.to_groups()
        if not isinstance(other, dict):
            raise QueryDefinitionError(
                f"cannot merge state of type {type(other).__name__}"
            )
        self._drain_vector_state()
        groups = self._groups
        if self._fused is not None:
            for key, state in other.items():
                theirs = self._coerce_state(state)
                mine = groups.get(key)
                if mine is None:
                    groups[key] = theirs
                else:
                    self._merge_fused(mine, theirs)
            return
        for key, state in other.items():
            theirs = self._coerce_state(state)
            mine = groups.get(key)
            if mine is None:
                groups[key] = theirs
            else:
                mine.merge(theirs)

    def flush(self) -> List[Record]:
        self._drain_vector_state()
        output: List[Record] = []
        event_time = self._last_event_time
        if self._fused is not None:
            kinds = self._fused_kinds
            names = self._output_names
            for key, slots in self._groups.items():
                values: Dict[str, float] = {}
                index = 1
                for kind, name in zip(kinds, names):
                    # Identical finalization to each ``Aggregate.result``.
                    if kind == "avg":
                        total = slots[index]
                        count = slots[index + 1]
                        index += 2
                        values[name] = math.nan if count == 0 else total / count
                        continue
                    slot = slots[index]
                    index += 1
                    if kind in ("max", "min"):
                        values[name] = math.nan if slot is None else slot
                    elif kind == "sum":
                        values[name] = slot
                    else:  # count
                        values[name] = float(slot)
                output.append(
                    AggregateRecord(
                        event_time=event_time,
                        group_key=key,
                        values=values,
                        count=slots[0],
                    )
                )
            self._groups.clear()
            return output
        for key, state in self._groups.items():
            output.append(
                AggregateRecord(
                    event_time=event_time,
                    group_key=key,
                    values=state.results(),
                    count=state.count,
                )
            )
        self._groups.clear()
        return output

    def flush_bytes(self) -> int:
        if self._fused is not None and self._flush_row_bytes is not None:
            if self._vector_state.runs and self._groups:
                # Mixed representations may share keys; merge before counting.
                self._drain_vector_state()
            # Closed form off the distinct-key count: on the arena path no
            # fold and no dict rows.
            groups = len(self._groups) + self._vector_state.group_count
            self._vector_state = self._new_vector_state()
            self._groups.clear()
            return groups * self._flush_row_bytes
        return record_size_bytes(self.flush())

    def discard_window(self) -> None:
        # ``flush`` only reads the states and clears the dict.
        self._groups.clear()
        self._vector_state = self._new_vector_state()

    def clone(self) -> "GroupAggregateOperator":
        return GroupAggregateOperator(
            self.name,
            self.key_fn,
            self.aggregates,
            self.value_fn,
            self.cost_hint,
            key_columns=self.key_columns,
        )


def append_runs(
    operators: Sequence[GroupAggregateOperator],
    batch: RecordBatch,
    parts: Sequence[Tuple[int, int]],
    count: bool = False,
) -> List[bool]:
    """One columnar G+R pass: part ``i`` of ``batch`` becomes a raw run of
    ``operators[i]``.  Returns which parts were taken.

    ``operators`` are replicas of one G+R that :attr:`~Operator.appends_runs`,
    one per part, and ``parts`` are disjoint, non-empty ``(start, stop)``
    row ranges, in any order.  One ``reduceat`` per key column and bound,
    over the whole batch, gives every part its key bounds, which prove the
    packing, and one more its latest event time.  Each operator then packs
    its own rows' keys and scales their values into fresh arrays, so a run
    holds only its own rows and never keeps ``batch`` alive.  With
    ``count``, each run's groups are counted as it arrives, from its key
    bounds (:meth:`ColumnarGroupState.add_run`); the source stepper counts,
    so its window close has nothing left to count, while a state nobody
    counts, such as the stream processor's, skips the work.  The one-part
    form, which does not count, is
    :meth:`GroupAggregateOperator.process_batch`.

    Two key columns pack as ``(k0 << 32) | k1``; with both columns in
    ``[0, 2**31)`` the packing is injective, so the packed-key distinct set
    corresponds one-to-one with the object path's key tuples.  A part
    outside that range is not taken, and neither is any part when the batch
    lacks int64 key columns or a float value column; the caller runs those
    through the object path.
    """
    first = operators[0]
    columns = [batch.column(name) for name in first.key_columns]
    source = first._value_column(batch)
    if source is None or any(
        column is None or column.dtype != np.int64 for column in columns
    ):
        return [False] * len(parts)
    value_column, divisor = source
    # With the parts in row order, a reduceat over every part's start and
    # stop reduces each part's rows at every second entry.
    order = sorted(range(len(parts)), key=parts.__getitem__)
    cuts = [row for index in order for row in parts[index]]
    if cuts[-1] == len(batch):
        cuts.pop()
    cuts = np.array(cuts)
    lows = [np.minimum.reduceat(column, cuts)[::2].tolist() for column in columns]
    highs = [np.maximum.reduceat(column, cuts)[::2].tolist() for column in columns]
    latest = np.maximum.reduceat(batch.event_times, cuts)[::2].tolist()
    if len(columns) == 1:
        (key_lows,), (key_highs,) = lows, highs
        proven = [True] * len(parts)
    else:
        key_lows = [(low0 << 32) | low1 for low0, low1 in zip(*lows)]
        key_highs = [(high0 << 32) | high1 for high0, high1 in zip(*highs)]
        proven = [
            min(low0, low1) >= 0 and max(high0, high1) < _KEY_PACK_LIMIT
            for low0, low1, high0, high1 in zip(*lows, *highs)
        ]
    taken = [False] * len(parts)
    for index, ok, low, high, last in zip(order, proven, key_lows, key_highs, latest):
        if not ok:
            continue
        taken[index] = True
        operator = operators[index]
        start, stop = parts[index]
        if len(columns) == 1:
            keys = columns[0][start:stop].copy()
        else:
            keys = np.left_shift(columns[0][start:stop], 32)
            np.bitwise_or(keys, columns[1][start:stop], out=keys)
        values = value_column[start:stop]
        values = values / divisor if divisor else values.copy()
        if count:
            operator._vector_state.add_run(keys, values, low, high)
        else:
            operator._vector_state.runs.append((keys, values))
        if last > operator._last_event_time:
            operator._last_event_time = last
    return taken


#: The float column each fused value field reads, and the divisor that
#: turns it into the field (:func:`_default_value_fn`); None reads it as is.
_VALUE_COLUMNS: Dict[str, Tuple[str, Optional[float]]] = {
    "rtt": ("rtt_us", 1000.0),
    "stat": ("stat", None),
}


def _default_value_fn(record: Record) -> Dict[str, float]:
    """Extract numeric fields from a record for aggregation.

    Pingmesh records expose ``rtt`` (milliseconds); parsed job-stats records
    expose ``stat``; anything else contributes an empty mapping so counting
    aggregates still work.
    """
    data = record.as_dict()
    values: Dict[str, float] = {}
    if "rtt_us" in data:
        values["rtt"] = float(data["rtt_us"]) / 1000.0
    if "stat" in data:
        values["stat"] = float(data["stat"])
    return values


def _batch_field_values(
    batch: RecordBatch,
    value_fn: Callable[[Record], Dict[str, float]],
) -> Optional[Dict[str, Sequence[float]]]:
    """Columnar equivalent of mapping ``value_fn`` over a batch.

    Only :func:`_default_value_fn` is derivable from columns (a custom value
    function is opaque); the derived runs are bit-identical to evaluating it
    per record — columns hold constructor-coerced floats, and IEEE division
    by 1000.0 is the same operation element-wise in numpy as in Python, so
    ``v / 1000.0`` equals ``float(data["rtt_us"]) / 1000.0`` exactly.
    The values stay arrays so the caller can hand them to the aggregates'
    vectorized ``add_many`` folds.  Returns ``None`` when the caller must
    fall back to per-record evaluation.
    """
    if value_fn is not _default_value_fn:
        return None
    values: Dict[str, Sequence[float]] = {}
    rtt_us = batch.column("rtt_us")
    if rtt_us is not None:
        values["rtt"] = rtt_us / 1000.0
    stat = batch.column("stat")
    if stat is not None:
        values["stat"] = stat
    return values


class _TorJoinKey:
    """Picklable join key: the probed endpoint's IP on the chosen side.

    Module-level (not a closure) so compiled plans — and migration handoffs
    that embed them — can cross process boundaries under the parallel
    controller (:mod:`repro.simulation.parallel`).
    """

    __slots__ = ("side",)

    def __init__(self, side: str) -> None:
        self.side = side

    def __call__(self, record: Record) -> int:
        data = record.as_dict()
        return int(data["src_ip" if self.side == "src" else "dst_ip"])


class _TorJoinCombine:
    """Picklable join combiner: enrich one endpoint with its ToR id."""

    __slots__ = ("side",)

    def __init__(self, side: str) -> None:
        self.side = side

    def __call__(self, record: Record, tor_id: int) -> Optional[Record]:
        data = record.as_dict()
        src_tor = int(data.get("src_tor", -1))
        dst_tor = int(data.get("dst_tor", -1))
        if self.side == "src":
            src_tor = tor_id
        else:
            dst_tor = tor_id
        return EnrichedPingmeshRecord(
            event_time=record.event_time,
            src_ip=int(data["src_ip"]),
            dst_ip=int(data["dst_ip"]),
            rtt_us=float(data["rtt_us"]),
            src_tor=src_tor,
            dst_tor=dst_tor,
            err_code=int(data.get("err_code", 0)),
        )


def make_tor_join(
    name: str,
    table: IpToTorTable,
    side: str,
    cost_hint: float = 1.0,
) -> JoinOperator:
    """Build the IP→ToR enrichment join used by the T2TProbe query.

    Args:
        name: Operator name.
        table: Static IP to ToR-switch-id mapping.
        side: Either ``"src"`` or ``"dst"``: which endpoint to enrich.
        cost_hint: Relative cost multiplier.
    """
    if side not in ("src", "dst"):
        raise QueryDefinitionError(f"side must be 'src' or 'dst', got {side!r}")
    return JoinOperator(name, table, _TorJoinKey(side), _TorJoinCombine(side), cost_hint)
