"""Record types flowing through monitoring queries.

The paper's two motivating scenarios use two very different record shapes:

* **Pingmesh** (Scenario 1): structured, fixed-size 86-byte probe records with
  timestamp, source/destination IP and cluster identifiers, round-trip time
  and an error code (Section II-B).
* **LogAnalytics** (Scenario 2): unstructured text log lines carrying tenant
  name, job running time, and CPU/memory utilisation, which the query parses
  into :class:`JobStatsRecord` objects.

Both are light-weight ``__slots__`` classes because the simulator creates
millions of them during a benchmark run.
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..errors import ConfigurationError, SimulationError


#: Wire size of a single Pingmesh probe record, from Section II-B:
#: timestamp (8B) + src IP (4B) + src cluster (4B) + dst IP (4B) +
#: dst cluster (4B) + RTT us (4B) + error code (4B) + framing = 86B total.
PINGMESH_RECORD_BYTES = 86

#: Conservative serialized size of an aggregate output row (group key pair +
#: three RTT statistics + window metadata).
AGGREGATE_ROW_BYTES = 48

#: Overhead bytes added per record when shipping it over the drain path: the
#: paper's per-record drain header, which names the operator the record
#: resumes at on the stream processor and carries the proxy's replicated
#: watermark (Section V).  The simulator models neither field, but every
#: drained record still pays these bytes on the link.
DRAIN_HEADER_BYTES = 4

#: Writable column slices of a :class:`FleetArena`'s live buffers, by column
#: name.  A function taking them may write the rows but keep none of them
#: past the call: the arena recycles its buffers every epoch (simlint SL013
#: treats a parameter of this type as aliasing them).
ArenaColumns = Dict[str, np.ndarray]


class Record:
    """Base class for all stream records.

    A record carries an ``event_time`` in seconds and knows its own serialized
    ``size_bytes`` so the network model can account for transferred volume.
    Subclasses add domain-specific fields.
    """

    __slots__ = ("event_time",)

    def __init__(self, event_time: float) -> None:
        self.event_time = float(event_time)

    @property
    def size_bytes(self) -> int:
        """Serialized size of this record in bytes."""
        return 16

    def key(self) -> Tuple[Any, ...]:
        """Grouping key for this record; overridden by grouping-aware types."""
        return ()

    def as_dict(self) -> Dict[str, Any]:
        """Return a plain-dict view of the record (for tests and examples)."""
        return {"event_time": self.event_time}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({fields})"


class PingmeshRecord(Record):
    """A single Pingmesh probe result between a pair of servers.

    The wire record also carries source and destination cluster identifiers
    (counted in :data:`PINGMESH_RECORD_BYTES`); no query reads them, so the
    simulated record does not hold them.
    """

    __slots__ = ("src_ip", "dst_ip", "rtt_us", "err_code")

    def __init__(
        self,
        event_time: float,
        src_ip: int,
        dst_ip: int,
        rtt_us: float,
        err_code: int = 0,
    ) -> None:
        super().__init__(event_time)
        self.src_ip = int(src_ip)
        self.dst_ip = int(dst_ip)
        self.rtt_us = float(rtt_us)
        self.err_code = int(err_code)

    @property
    def size_bytes(self) -> int:
        return PINGMESH_RECORD_BYTES

    @property
    def rtt_ms(self) -> float:
        """Round-trip time expressed in milliseconds."""
        return self.rtt_us / 1000.0

    def key(self) -> Tuple[Any, ...]:
        return (self.src_ip, self.dst_ip)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "event_time": self.event_time,
            "src_ip": self.src_ip,
            "dst_ip": self.dst_ip,
            "rtt_us": self.rtt_us,
            "err_code": self.err_code,
        }


class EnrichedPingmeshRecord(PingmeshRecord):
    """A Pingmesh record enriched with ToR switch identifiers by a join.

    Produced by the T2TProbe query (Listing 2) after joining the probe stream
    with the IP-to-ToR mapping table.  The projection that follows the join
    keeps only the ToR pair and the RTT, so the serialized size shrinks
    relative to the raw probe record — this is the data reduction the paper
    points out for the join operator in Section VI-B.
    """

    __slots__ = ("src_tor", "dst_tor")

    def __init__(
        self,
        event_time: float,
        src_ip: int,
        dst_ip: int,
        rtt_us: float,
        src_tor: int,
        dst_tor: int,
        err_code: int = 0,
    ) -> None:
        super().__init__(event_time, src_ip, dst_ip, rtt_us, err_code)
        self.src_tor = int(src_tor)
        self.dst_tor = int(dst_tor)

    @property
    def size_bytes(self) -> int:
        # Projected down to (srcToR, dstToR, rtt) plus the timestamp.
        return 24

    def key(self) -> Tuple[Any, ...]:
        return (self.src_tor, self.dst_tor)

    def as_dict(self) -> Dict[str, Any]:
        base = super().as_dict()
        base["src_tor"] = self.src_tor
        base["dst_tor"] = self.dst_tor
        return base


class LogRecord(Record):
    """A raw, unstructured log line from the LogAnalytics workload."""

    __slots__ = ("line",)

    def __init__(self, event_time: float, line: str) -> None:
        super().__init__(event_time)
        self.line = line

    @property
    def size_bytes(self) -> int:
        return max(1, len(self.line))

    def as_dict(self) -> Dict[str, Any]:
        return {"event_time": self.event_time, "line": self.line}


class JobStatsRecord(Record):
    """A parsed LogAnalytics record: one statistic for one tenant's job."""

    __slots__ = ("tenant", "stat_name", "stat")

    def __init__(self, event_time: float, tenant: str, stat_name: str, stat: float) -> None:
        super().__init__(event_time)
        self.tenant = tenant
        self.stat_name = stat_name
        self.stat = float(stat)

    @property
    def size_bytes(self) -> int:
        return 24 + len(self.tenant) + len(self.stat_name)

    def key(self) -> Tuple[Any, ...]:
        return (self.tenant, self.stat_name, self.stat)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "event_time": self.event_time,
            "tenant": self.tenant,
            "stat_name": self.stat_name,
            "stat": self.stat,
        }


class AggregateRecord(Record):
    """Output row produced by a (grouped) aggregation operator."""

    __slots__ = ("group_key", "values", "window_start", "window_end", "count")

    def __init__(
        self,
        event_time: float,
        group_key: Tuple[Any, ...],
        values: Dict[str, float],
        window_start: float = 0.0,
        window_end: float = 0.0,
        count: int = 0,
    ) -> None:
        super().__init__(event_time)
        self.group_key = group_key
        self.values = dict(values)
        self.window_start = window_start
        self.window_end = window_end
        self.count = int(count)

    @property
    def size_bytes(self) -> int:
        return AGGREGATE_ROW_BYTES + 8 * max(0, len(self.values) - 3)

    def key(self) -> Tuple[Any, ...]:
        return self.group_key

    def as_dict(self) -> Dict[str, Any]:
        return {
            "event_time": self.event_time,
            "group_key": self.group_key,
            "values": dict(self.values),
            "window_start": self.window_start,
            "window_end": self.window_end,
            "count": self.count,
        }


AnyRecord = Union[
    Record,
    PingmeshRecord,
    EnrichedPingmeshRecord,
    LogRecord,
    JobStatsRecord,
    AggregateRecord,
]


class RecordBatch:
    """Columnar batch of homogeneous, fixed-size records (parallel arrays).

    The arena fast path of the simulator keeps an epoch's records as
    parallel 1-D numpy arrays — one per field — instead of one Python
    object per record, so routing, queueing, draining, and shipping become
    slicing and count arithmetic.  Invariants the equivalence tests rely on:

    * every column holds the value exactly as the record constructor would
      have coerced it (``int(src_ip)``, ``float(rtt_us)``, ...), so columnar
      operators and :meth:`to_records` are bit-identical to the object path;
    * ``event_time`` is always present as a column;
    * every row has the same serialized size, ``uniform_size_bytes``, so
      byte totals are exact integer products in both execution modes.

    Only fixed-size record types have a columnar form: the native workload
    generators build these batches, and a variable-size stream (LogAnalytics
    log lines) stays a list of record objects in both modes.  Slicing,
    filtering, and concatenation run at C speed, and :meth:`to_records`
    converts back to Python scalars so object-mode records never carry numpy
    types.

    Batches are immutable once built and cache their row count.  The public
    constructor validates its columns; batches derived from validated ones
    (slices, concatenations, selections, arena views and owned copies) are
    built by :meth:`_derived`, which skips the checks, so every batch
    operation costs per batch rather than per column.

    A :class:`FleetArena` view, the rows an arena took
    (:meth:`FleetArena.take`) and their unit-step slices also know the row
    of the buffers they start at (``_base_row``, None for any other batch):
    every column is ``buffer[_base_row : _base_row + len]`` of its buffer,
    which lets :func:`covering_view` cover several views with one and
    :func:`coalesce_batches` join adjacent views without copying.
    """

    __slots__ = (
        "record_class",
        "columns",
        "uniform_size_bytes",
        "_length",
        "_base_row",
    )

    def __init__(
        self,
        record_class: type,
        columns: Dict[str, np.ndarray],
        uniform_size_bytes: int,
    ) -> None:
        if "event_time" not in columns:
            raise SimulationError("a RecordBatch needs an 'event_time' column")
        count = len(columns["event_time"])
        for name, column in columns.items():
            if not isinstance(column, np.ndarray) or column.ndim != 1:
                raise SimulationError(
                    f"column {name!r} must be a 1-D numpy array, "
                    f"got {type(column).__name__}"
                )
            if len(column) != count:
                raise SimulationError(
                    f"ragged columns: expected length {count}, got {len(column)}"
                )
        self.record_class = record_class
        self.columns = columns
        self.uniform_size_bytes = uniform_size_bytes
        self._length = count
        self._base_row: Optional[int] = None

    @classmethod
    def _derived(
        cls,
        record_class: type,
        columns: Dict[str, np.ndarray],
        length: int,
        uniform_size_bytes: int,
        base_row: Optional[int] = None,
    ) -> "RecordBatch":
        """A batch over columns derived from validated ones, unchecked.

        The caller guarantees what :meth:`__init__` would check: an
        ``event_time`` column and every column a 1-D array ``length`` long;
        and, with ``base_row``, that every column is its buffer's rows
        ``base_row`` onwards.
        """
        batch = cls.__new__(cls)
        batch.record_class = record_class
        batch.columns = columns
        batch.uniform_size_bytes = uniform_size_bytes
        batch._length = length
        batch._base_row = base_row
        return batch

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __getitem__(self, item: slice) -> "RecordBatch":
        """Slice rows; a batch has no row-wise access (an integer index
        raises), so records are read through :meth:`to_records` or the
        columns."""
        if not isinstance(item, slice):
            raise SimulationError(
                f"a RecordBatch takes slices, not {type(item).__name__} "
                "indexes; read rows through to_records() or the columns"
            )
        length = self._length
        # Whole-batch slices are frequent in the pipeline's queue arithmetic
        # (e.g. taking a zero-record prefix leaves the whole queue); batches
        # are treated immutably, so aliasing is safe.
        start, stop, step = item.indices(length)
        if step == 1 and start == 0 and stop == length:
            return self
        base_row = self._base_row
        return RecordBatch._derived(
            self.record_class,
            {name: column[item] for name, column in self.columns.items()},
            len(range(start, stop, step)),
            self.uniform_size_bytes,
            base_row + start if base_row is not None and step == 1 else None,
        )

    def __add__(self, other: object) -> "RecordBatch | List[Record]":
        if isinstance(other, RecordBatch):
            if other._length == 0:
                return self
            if self._length == 0:
                return other
            return _concatenated([self, other])
        if isinstance(other, (list, tuple)):
            if not other:
                return self
            if self._length == 0:
                return list(other)
            # Mixed batch + record-object concatenation only arises when an
            # operator without a columnar implementation materialized its
            # output; degrade the whole sequence to record objects.
            return self.to_records() + list(other)
        return NotImplemented

    def __radd__(self, other: object) -> "RecordBatch | List[Record]":
        if isinstance(other, (list, tuple)):
            if not other:
                return self
            return list(other) + self.to_records()
        return NotImplemented

    def take(self, indices: "Sequence[int] | np.ndarray") -> "RecordBatch":
        """Select a *subsequence* of rows (e.g. the survivors of a filter).

        ``indices`` must be strictly increasing — this is a selection, not a
        gather: a full-length index list is assumed to be the identity and
        returns the batch itself without copying.
        """
        if len(indices) == self._length:
            return self
        return RecordBatch._derived(
            self.record_class,
            {name: column[indices] for name, column in self.columns.items()},
            len(indices),
            self.uniform_size_bytes,
        )

    def compress(self, mask: "Sequence[bool] | np.ndarray") -> "RecordBatch":
        """Select rows by boolean mask.

        Every column gathers through one shared ``np.flatnonzero`` index.  A
        mask whose length is not the row count raises
        :class:`SimulationError`.
        """
        if len(mask) != self._length:
            raise SimulationError(
                f"compress mask has {len(mask)} entries for a batch of "
                f"{self._length} rows"
            )
        index = np.flatnonzero(mask)
        if len(index) == self._length:
            return self
        return RecordBatch._derived(
            self.record_class,
            {name: column.take(index) for name, column in self.columns.items()},
            len(index),
            self.uniform_size_bytes,
        )

    # -- byte accounting ---------------------------------------------------------

    def total_size_bytes(self, drain: bool = False) -> int:
        """Exact integer byte total (optionally with drain-path headers)."""
        overhead = DRAIN_HEADER_BYTES if drain else 0
        return (self.uniform_size_bytes + overhead) * self._length

    # -- materialization ---------------------------------------------------------

    def column(self, name: str) -> Optional[np.ndarray]:
        """The named column, or None when this schema does not carry it."""
        return self.columns.get(name)

    @property
    def event_times(self) -> np.ndarray:
        return self.columns["event_time"]

    def to_records(self) -> List[Record]:
        """Materialize the whole batch as record objects (slow path).

        Columns convert to Python scalars first (in C), so object-mode
        records never carry numpy types.
        """
        names = list(self.columns)
        plain = [self.columns[name].tolist() for name in names]
        record_class = self.record_class
        new = record_class.__new__
        records = []
        for index in range(self._length):
            record = new(record_class)
            for name, column in zip(names, plain):
                setattr(record, name, column[index])
            records.append(record)
        return records

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<RecordBatch {self.record_class.__name__} n={len(self)} "
            f"columns={sorted(self.columns)}>"
        )


def coalesce_batches(batches: Sequence[RecordBatch]) -> RecordBatch:
    """One batch of ``batches``' rows in order, equal to chaining ``+``.

    A single batch is returned as it is.  Arena views that are adjacent in
    the same buffers — consecutive sources' spans of a :class:`FleetArena`,
    as a FIFO of same-epoch shipments usually is — become one view over
    their whole span, and nothing is copied; the view aliases the buffers
    exactly as its parts did.  Any other run of batches concatenates each
    column once.  The batches must share one schema.
    """
    batches = [batch for batch in batches if batch._length] or list(batches[:1])
    if len(batches) == 1:
        return batches[0]
    members, span, parts = covering_view(batches)
    if span is not None and len(members) == len(batches) and all(
        stop == start for (_, stop), (start, _) in zip(parts, parts[1:])
    ):
        return span
    return _concatenated(batches)


def _concatenated(batches: Sequence[RecordBatch]) -> RecordBatch:
    """Non-empty ``batches`` of one row size as one batch of fresh columns."""
    first = batches[0]
    size = first.uniform_size_bytes
    if any(batch.uniform_size_bytes != size for batch in batches):
        raise SimulationError("cannot concatenate batches of different row sizes")
    return RecordBatch._derived(
        first.record_class,
        {
            name: np.concatenate([batch.columns[name] for batch in batches])
            for name in first.columns
        },
        sum(batch._length for batch in batches),
        size,
    )


def covering_view(
    batches: Sequence[object],
) -> Tuple[List[int], Optional[RecordBatch], List[Tuple[int, int]]]:
    """The rows some of ``batches`` view in one set of buffers, as one view.

    The members are the non-empty batches that view the same buffers as
    the first such batch: arena views, the rows an arena took
    (:meth:`FleetArena.take`) and their unit-step slices, which know their
    start row.  Returns ``(members, span, parts)``: the members'
    indexes in ``batches``, one view from the lowest member row to the end
    of the highest, and each member's ``(start, stop)`` rows in that view.
    Rows between the members are part of the span.  ``span`` is None when
    no batch views a buffer.
    """
    members: List[int] = []
    rows: List[Tuple[int, int]] = []
    first: Optional[RecordBatch] = None
    for index, batch in enumerate(batches):
        if not isinstance(batch, RecordBatch) or not batch._length:
            continue
        base_row = batch._base_row
        if base_row is None:
            continue
        if first is None:
            first = batch
        elif batch.columns["event_time"].base is not first.columns["event_time"].base:
            continue
        members.append(index)
        rows.append((base_row, base_row + batch._length))
    if first is None:
        return members, None, rows
    start = min(row for row, _ in rows)
    stop = max(row for _, row in rows)
    bases: Dict[str, Any] = {
        name: column.base for name, column in first.columns.items()
    }
    span = RecordBatch._derived(
        first.record_class,
        {name: base[start:stop] for name, base in bases.items()},
        stop - start,
        first.uniform_size_bytes,
        start,
    )
    return members, span, [(low - start, high - start) for low, high in rows]


class FleetArena:
    """One block-level columnar batch stacking every source's epoch records.

    ``record_mode="arena"`` keeps a whole building block's epoch input in one
    set of reusable column buffers — the schema's :class:`RecordBatch`
    columns and nothing else — plus a per-source row-span index.  Each
    source's batch is then a zero-copy slice view of the block arrays, so in
    steady state epoch stepping allocates nothing: :meth:`begin_epoch` resets
    the write cursor and the next fleet fill overwrites the same memory.

    The arena is schema-strict on purpose: the first reservation fixes the
    record class, the uniform row size, and the column dtypes, and anything
    that does not match (non-numeric columns, other dtypes, a different
    record type or row size) is refused so the caller falls back to a plain
    per-source batch.  Metrics depend only on row counts and exact integer
    byte sizes, so views and fallback batches are interchangeable
    bit-identically.

    A source's rows are reserved one source at a time (:meth:`reserve`
    hands back writable slices at once; :meth:`reserve_rows` only the first
    row, so a block fill can reserve every source before it writes a run of
    them through :meth:`rows`: a reservation may grow the buffers).

    Because buffers are recycled every epoch, any view that survives the
    epoch boundary has to be detached before the next fill: :meth:`own`
    copies exactly the columns that alias the live buffers and returns other
    batches unchanged.  Rows selected from many sources' rows at once, such
    as the survivors of a block-wide row mask, are written into a second
    set of buffers the arena recycles the same way (:meth:`take`), so
    :meth:`own` detaches their views too.  Operator stage queues are owned
    right after the block steps; executor queues (carryover, SP backlog)
    may hold views for the rest of the block epoch, and the executor owns
    whatever is still queued when the epoch ends.  Between epochs no
    executor-held batch aliases an arena.
    """

    def __init__(self) -> None:
        self._record_class: Optional[type] = None
        self._uniform_size_bytes = 0
        self._buffers: Dict[str, np.ndarray] = {}
        #: Buffers of the rows :meth:`take` selects, and their next free row.
        self._taken: Dict[str, np.ndarray] = {}
        self._taken_cursor = 0
        #: Taken buffers outgrown this epoch, which earlier views still read.
        self._outgrown: List[np.ndarray] = []
        #: Ids of every buffer above: what :meth:`aliases` flags.
        self._buffer_ids: Set[int] = set()
        self._capacity = 0
        self._cursor = 0
        #: Per-source row span of the current epoch: source_id -> (start, stop).
        self._spans: Dict[int, Tuple[int, int]] = {}
        self._allocator: Optional[Callable[[int, np.dtype], Optional[np.ndarray]]] = None
        #: The ``dtypes`` mapping of the last accepted reservation, as passed:
        #: a request equal to it (same record class and row size) skips the
        #: dtype normalisation and checks.
        self._accepted_dtypes: Optional[Dict[str, Any]] = None

    def __len__(self) -> int:
        return self._cursor

    def set_buffer_allocator(
        self, allocator: Optional[Callable[[int, np.dtype], Optional[np.ndarray]]]
    ) -> None:
        """Route future column-buffer allocations through ``allocator``.

        ``allocator(count, dtype)`` must return a writable 1-D array of
        exactly ``count`` elements (for example a view into a shared-memory
        segment) or ``None`` to decline, in which case the arena falls back
        to a private heap allocation — correctness never depends on the
        allocator's capacity.  Only buffers allocated *after* the call are
        affected.  The parallel controller installs a shared-memory bump
        allocator in each worker process so arena columns live in segments
        the main process can unlink (:mod:`repro.simulation.parallel`).
        """
        self._allocator = allocator

    def _alloc(self, count: int, dtype: Any) -> np.ndarray:
        dtype = np.dtype(dtype)
        if self._allocator is not None:
            buffer = self._allocator(count, dtype)
            if buffer is not None:
                return buffer
        return np.empty(count, dtype=dtype)

    @property
    def num_sources(self) -> int:
        """How many sources reserved rows in the current epoch."""
        return len(self._spans)

    def begin_epoch(self) -> None:
        """Recycle the buffers for a new epoch (no allocation)."""
        self._cursor = 0
        self._taken_cursor = 0
        self._spans.clear()
        if self._outgrown:
            self._outgrown.clear()
            self._index_buffers()

    def take(self, batch: "RecordBatch", indices: np.ndarray) -> "RecordBatch":
        """Rows ``indices`` (increasing) of ``batch``, written into buffers
        the arena recycles each epoch, as a view of them.

        For rows selected from many sources' rows at once, such as the
        survivors of one block-wide row mask
        (:func:`~repro.simulation.pipeline.mask_rows`).  They are this
        epoch's rows like the arena's own: :meth:`aliases` flags their
        views, so :meth:`own` gives whatever outlives the epoch its own rows
        instead of pinning the whole block's, and a later stage's one pass
        covers them as it covers arena views (:func:`covering_view`).  The
        buffers grow to hold the largest selection and are then reused, so
        a steady epoch allocates nothing here.
        """
        count = len(indices)
        start = self._taken_cursor
        taken = self._taken
        if (
            taken.keys() != batch.columns.keys()
            or start + count > len(taken["event_time"])
            or any(
                taken[name].dtype != column.dtype
                for name, column in batch.columns.items()
            )
        ):
            if start:
                # This epoch's earlier selections may still be read.
                self._outgrown.extend(taken.values())
            # Room for all of this epoch's selections, so the next epoch's
            # fit unless they grow.
            capacity = max(start + count, 1024)
            taken = self._taken = {
                name: np.empty(capacity, dtype=column.dtype)
                for name, column in batch.columns.items()
            }
            self._index_buffers()
            start = 0
        stop = start + count
        for name, column in batch.columns.items():
            np.take(column, indices, out=taken[name][start:stop], mode="clip")
        self._taken_cursor = stop
        return RecordBatch._derived(
            batch.record_class,
            {name: buffer[start:stop] for name, buffer in taken.items()},
            count,
            batch.uniform_size_bytes,
            start,
        )

    def _index_buffers(self) -> None:
        self._buffer_ids = {id(buf) for buf in self._buffers.values()}
        self._buffer_ids.update(id(buf) for buf in self._taken.values())
        self._buffer_ids.update(id(buf) for buf in self._outgrown)

    def _grow(self, needed: int) -> None:
        capacity = max(needed, self._capacity * 2, 1024)
        cursor = self._cursor
        for name, buffer in self._buffers.items():
            fresh = self._alloc(capacity, buffer.dtype)
            fresh[:cursor] = buffer[:cursor]
            self._buffers[name] = fresh
        self._capacity = capacity
        self._index_buffers()

    def reserve(
        self,
        source_id: int,
        count: int,
        record_class: type,
        dtypes: Dict[str, Any],
        uniform_size_bytes: int,
    ) -> Optional[ArenaColumns]:
        """Reserve ``count`` rows for ``source_id`` in the current epoch.

        Returns writable column slices aliasing the block buffers, or None
        when the request is incompatible with the arena schema (the caller
        then keeps its own per-source batch).  A schema equal to the last
        accepted one is not checked again.
        """
        start = self.reserve_rows(
            source_id, count, record_class, dtypes, uniform_size_bytes
        )
        return None if start is None else self.rows(start, start + count)

    def reserve_rows(
        self,
        source_id: int,
        count: int,
        record_class: type,
        dtypes: Dict[str, Any],
        uniform_size_bytes: int,
    ) -> Optional[int]:
        """:meth:`reserve` without the slices: the first reserved row.

        A later reservation may grow the buffers, leaving earlier slices on
        the old ones, so a caller reserving many sources before writing
        takes their slices (:meth:`rows`) after the last reservation.
        """
        if count <= 0 or source_id in self._spans:
            return None
        if not (
            record_class is self._record_class
            and uniform_size_bytes == self._uniform_size_bytes
            and dtypes == self._accepted_dtypes
        ) and not self._accept_schema(record_class, dtypes, uniform_size_bytes, count):
            return None
        start = self._cursor
        stop = start + count
        if stop > self._capacity:
            self._grow(stop)
        self._spans[source_id] = (start, stop)
        self._cursor = stop
        return start

    def rows(self, start: int, stop: int) -> ArenaColumns:
        """Writable column slices of the buffers' rows ``start:stop``."""
        return {name: buffer[start:stop] for name, buffer in self._buffers.items()}

    def _accept_schema(
        self,
        record_class: type,
        dtypes: Dict[str, Any],
        uniform_size_bytes: int,
        count: int,
    ) -> bool:
        """Check a reservation's schema; the first accepted one fixes it."""
        if "event_time" not in dtypes:
            return False
        normalised = {name: np.dtype(dtype) for name, dtype in dtypes.items()}
        if not all(np.issubdtype(dtype, np.number) for dtype in normalised.values()):
            return False
        if self._buffers:
            if (
                record_class is not self._record_class
                or int(uniform_size_bytes) != self._uniform_size_bytes
                or set(normalised) != set(self._buffers)
                or any(
                    self._buffers[name].dtype != dtype
                    for name, dtype in normalised.items()
                )
            ):
                return False
        else:
            self._record_class = record_class
            self._uniform_size_bytes = int(uniform_size_bytes)
            capacity = max(self._capacity, count, 1024)
            self._buffers = {
                name: self._alloc(capacity, dtype)
                for name, dtype in normalised.items()
            }
            self._capacity = capacity
            self._index_buffers()
        self._accepted_dtypes = dict(dtypes)
        return True

    def append_batch(self, source_id: int, batch: "RecordBatch") -> bool:
        """Copy a per-source batch into the arena; False when incompatible."""
        out = self.reserve(
            source_id,
            len(batch),
            batch.record_class,
            {name: column.dtype for name, column in batch.columns.items()},
            batch.uniform_size_bytes,
        )
        if out is None:
            return False
        for name, column in batch.columns.items():
            out[name][:] = column
        return True

    def span(self, source_id: int) -> Tuple[int, int]:
        """The (start, stop) row span of a source this epoch ((0, 0) if idle)."""
        return self._spans.get(source_id, (0, 0))

    def view(self, source_id: int) -> Optional["RecordBatch"]:
        """A zero-copy per-source batch aliasing the block arrays.

        A source that reserved no rows this epoch (idle, or drained away by a
        migration) gets an empty view; None means the arena has never held
        data, so no schema exists to build a view from.
        """
        if self._record_class is None:
            return None
        start, stop = self._spans.get(source_id, (0, 0))
        return RecordBatch._derived(
            self._record_class,
            {name: buffer[start:stop] for name, buffer in self._buffers.items()},
            stop - start,
            self._uniform_size_bytes,
            start,
        )

    def aliases(self, column: np.ndarray) -> bool:
        """Whether ``column`` is a view of the arena's live buffers: this
        epoch's input rows or the rows it took (:meth:`take`).

        numpy collapses view chains, so a slice-of-a-slice still reports the
        root buffer as its ``base``; fancy indexing, ``compress``, and
        concatenation all produce owned arrays and are never flagged.
        """
        return id(column) in self._buffer_ids or id(column.base) in self._buffer_ids

    def aliased_by(self, records: object) -> bool:
        """Whether ``records`` is a non-empty batch reading the live buffers.

        The next fill overwrites the rows such a batch reads, so a batch
        still held across the epoch boundary has lost its records.  A
        zero-row view reads nothing and is never flagged.
        """
        return (
            isinstance(records, RecordBatch)
            and records._length > 0
            and any(self.aliases(column) for column in records.columns.values())
        )

    def own(self, batch: "RecordBatch") -> "RecordBatch":
        """Detach a batch from the recycled buffers before it escapes an epoch.

        Copies only the columns that alias the live arena buffers; a batch
        with no aliasing columns is returned unchanged, so the hot path pays
        for copies exactly where data genuinely outlives the epoch.  Each
        column is tested and, if it aliases, copied in the same pass.  A
        zero-row batch reads no buffer memory and is returned as it is.
        """
        if not batch._length:
            return batch
        columns: Dict[str, np.ndarray] = {}
        copied = False
        for name, column in batch.columns.items():
            if self.aliases(column):
                column = column.copy()
                copied = True
            columns[name] = column
        if not copied:
            return batch
        return RecordBatch._derived(
            batch.record_class,
            columns,
            batch._length,
            batch.uniform_size_bytes,
        )


def record_size_bytes(
    records: "Iterable[Record] | RecordBatch", drain: bool = False
) -> int:
    """Total serialized size of ``records`` in bytes.

    Args:
        records: Any iterable of records, or a :class:`RecordBatch` (counted
            via exact integer column arithmetic, no per-record iteration).
        drain: When true, adds the per-record drain header
            (:data:`DRAIN_HEADER_BYTES`).
    """
    if isinstance(records, RecordBatch):
        return records.total_size_bytes(drain=drain)
    overhead = DRAIN_HEADER_BYTES if drain else 0
    return sum(record.size_bytes + overhead for record in records)


def half_up(value: float) -> int:
    """Round ``value`` to the nearest integer with ties going up.

    Record and byte counts must use this instead of builtin ``round()``:
    Python rounds half to even ("banker's rounding"), which made a control
    proxy forward 0 of 1 record at a 0.5 load factor but 2 of 3 — per-epoch
    throughput depended on the parity of the record count (the PR 5 bug,
    now simlint rule SL004).  Arrays round the same way with
    ``np.floor(x + 0.5)``, as :func:`~repro.core.control_proxy.route_counts`
    does; ``np.round`` and ``np.rint`` round half to even too.
    """
    return int(math.floor(value + 0.5))


class IpToTorTable:
    """Static lookup table mapping a server IP to its ToR switch identifier.

    Used by the T2TProbe query's join operators (Listing 2).  The join cost in
    the simulator's cost model scales with ``len(table)`` which reproduces the
    paper's observation that increasing the table size by 10x congests the
    join operator (Figure 8b).
    """

    def __init__(self, mapping: Optional[Dict[int, int]] = None) -> None:
        self._mapping: Dict[int, int] = dict(mapping or {})

    @classmethod
    def dense(cls, num_servers: int, servers_per_tor: int = 40) -> "IpToTorTable":
        """Build a table covering ``num_servers`` IPs with a fixed rack size."""
        if num_servers < 0:
            raise ConfigurationError(
                f"num_servers must be non-negative, got {num_servers}"
            )
        if servers_per_tor <= 0:
            raise ConfigurationError(
                f"servers_per_tor must be positive, got {servers_per_tor}"
            )
        mapping = {ip: ip // servers_per_tor for ip in range(num_servers)}
        return cls(mapping)

    def lookup(self, ip: int) -> Optional[int]:
        """Return the ToR id for ``ip`` or ``None`` if the IP is unknown."""
        return self._mapping.get(ip)

    def __len__(self) -> int:
        return len(self._mapping)

    def __contains__(self, ip: int) -> bool:
        return ip in self._mapping
