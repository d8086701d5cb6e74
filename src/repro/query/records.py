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
from itertools import compress as _compress
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import ConfigurationError, SimulationError


#: A column of a :class:`RecordBatch`: a plain list or a numpy array.
ColumnData = Union[List[Any], np.ndarray]

#: A boolean row-selection mask (list of bools or a numpy bool array).
MaskLike = Union[Sequence[bool], np.ndarray]


def _column_concat(left: ColumnData, right: ColumnData) -> ColumnData:
    """Concatenate two columns (plain lists and/or numpy arrays)."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.concatenate([np.asarray(left), np.asarray(right)])
    return left + right


def _column_take(column: ColumnData, indices: Sequence[int]) -> ColumnData:
    if isinstance(column, np.ndarray):
        return column[indices]
    return [column[i] for i in indices]


def _column_list(column: ColumnData) -> List[Any]:
    """A plain Python list view of a column (numpy converts in C)."""
    if isinstance(column, np.ndarray):
        return column.tolist()
    return column

#: Wire size of a single Pingmesh probe record, from Section II-B:
#: timestamp (8B) + src IP (4B) + src cluster (4B) + dst IP (4B) +
#: dst cluster (4B) + RTT us (4B) + error code (4B) + framing = 86B total.
PINGMESH_RECORD_BYTES = 86

#: Conservative serialized size of an aggregate output row (group key pair +
#: three RTT statistics + window metadata).
AGGREGATE_ROW_BYTES = 48

#: Overhead bytes added per record when shipping it over the drain path
#: (operator identifier + watermark replication; Section V).
DRAIN_HEADER_BYTES = 4


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


def _all_slots(record_class: type) -> Tuple[str, ...]:
    """Every ``__slots__`` attribute of a record class, base-first."""
    names: List[str] = []
    for klass in reversed(record_class.__mro__):
        names.extend(getattr(klass, "__slots__", ()))
    return tuple(names)


class RecordRowView:
    """A zero-copy view of one row of a :class:`RecordBatch`.

    Behaves like a record for attribute access (columns resolve to attributes,
    ``size_bytes`` to the row's serialized size) so arbitrary predicates,
    key functions, and value functions written against record objects evaluate
    unchanged — and bit-identically — on a columnar batch.  One view instance
    is re-pointed row by row (:meth:`at`); callers must not retain it.
    """

    __slots__ = ("_batch", "_index")

    def __init__(self, batch: "RecordBatch", index: int = 0) -> None:
        object.__setattr__(self, "_batch", batch)
        object.__setattr__(self, "_index", index)

    def at(self, index: int) -> "RecordRowView":
        """Re-point this view at ``index`` and return it (cursor style)."""
        object.__setattr__(self, "_index", index)
        return self

    def __getattr__(self, name: str) -> Any:
        batch = object.__getattribute__(self, "_batch")
        if name == "size_bytes":
            return batch.size_of(object.__getattribute__(self, "_index"))
        try:
            column = batch.columns[name]
        except KeyError:
            raise AttributeError(name) from None
        return column[object.__getattribute__(self, "_index")]

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view of the row (mirrors :meth:`Record.as_dict`)."""
        index = object.__getattribute__(self, "_index")
        batch = object.__getattribute__(self, "_batch")
        return {name: column[index] for name, column in batch.columns.items()}

    def to_record(self) -> Record:
        """Materialize this row as a standalone record object."""
        batch = object.__getattribute__(self, "_batch")
        return batch.materialize_row(object.__getattribute__(self, "_index"))


class RecordBatch:
    """Columnar batch of homogeneous records (parallel arrays).

    The arena fast path of the simulator keeps an epoch's records as
    parallel arrays — one list per field — instead of one Python object per
    record, so routing, queueing, draining, and shipping become slicing and
    count arithmetic.  Invariants the equivalence tests rely on:

    * every column holds the value exactly as the record constructor would
      have coerced it (``int(src_ip)``, ``float(rtt_us)``, ...), so predicates
      and key/value functions evaluated on a row view are bit-identical to the
      object path;
    * ``event_time`` is always present as a column;
    * per-record sizes are plain ints — either one ``uniform_size_bytes`` for
      fixed-size record types or a ``sizes`` column — so byte totals are exact
      integer sums in both execution modes.

    Columns may be plain lists or numpy arrays; array-backed columns make
    slicing, filtering, and concatenation C-speed (native workload generators
    produce them), and :meth:`to_records` converts back to Python scalars so
    object-mode records never carry numpy types.

    Batches are immutable once built and cache their row count.  The public
    constructor validates its columns; batches derived from validated ones
    (slices, concatenations, selections, arena views and owned copies) are
    built by :meth:`_derived`, which skips the checks, so every batch
    operation costs per batch rather than per column.
    """

    __slots__ = ("record_class", "columns", "uniform_size_bytes", "sizes", "_length")

    def __init__(
        self,
        record_class: type,
        columns: Dict[str, List[Any]],
        uniform_size_bytes: Optional[int] = None,
        sizes: Optional[List[int]] = None,
    ) -> None:
        try:
            count = len(columns["event_time"])
        except KeyError:
            raise SimulationError(
                "a RecordBatch needs an 'event_time' column"
            ) from None
        for column in columns.values():
            if len(column) != count:
                raise SimulationError(
                    f"ragged columns: expected length {count}, got {len(column)}"
                )
        if uniform_size_bytes is None and sizes is None:
            raise SimulationError("need uniform_size_bytes or a sizes column")
        if sizes is not None and len(sizes) != count:
            raise SimulationError("sizes column length must match the batch")
        self.record_class = record_class
        self.columns = columns
        self.uniform_size_bytes = uniform_size_bytes
        self.sizes = sizes
        self._length = count

    @classmethod
    def _derived(
        cls,
        record_class: type,
        columns: Dict[str, Any],
        length: int,
        uniform_size_bytes: Optional[int],
        sizes: Optional[List[int]],
    ) -> "RecordBatch":
        """A batch over columns derived from validated ones, unchecked.

        The caller guarantees what :meth:`__init__` would check: an
        ``event_time`` column, every column (and ``sizes``) ``length`` long,
        and a uniform size or a sizes column.
        """
        batch = cls.__new__(cls)
        batch.record_class = record_class
        batch.columns = columns
        batch.uniform_size_bytes = uniform_size_bytes
        batch.sizes = sizes
        batch._length = length
        return batch

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[Record]) -> "RecordBatch":
        """Columnar adapter for a homogeneous list of record objects.

        Lets any workload run in arena mode without a native
        ``batch_for_epoch``; generation still pays the per-object cost once,
        but everything downstream runs on the columnar path.
        """
        if not records:
            raise SimulationError("cannot infer a schema from an empty record list")
        record_class = type(records[0])
        if any(type(record) is not record_class for record in records):
            raise SimulationError("from_records needs records of one single type")
        names = _all_slots(record_class)
        columns: Dict[str, List[Any]] = {
            name: [getattr(record, name) for record in records] for name in names
        }
        sizes = [record.size_bytes for record in records]
        uniform: Optional[int] = sizes[0] if len(set(sizes)) == 1 else None
        return cls(
            record_class,
            columns,
            uniform_size_bytes=uniform,
            sizes=None if uniform is not None else sizes,
        )

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __getitem__(self, item: "int | slice") -> "RecordBatch | RecordRowView":
        length = self._length
        if isinstance(item, slice):
            # Whole-batch slices are frequent in the pipeline's queue
            # arithmetic (e.g. taking a zero-record prefix leaves the whole
            # queue); batches are treated immutably, so aliasing is safe.
            start, stop, step = item.indices(length)
            if step == 1 and start == 0 and stop == length:
                return self
            return RecordBatch._derived(
                self.record_class,
                {name: column[item] for name, column in self.columns.items()},
                len(range(start, stop, step)),
                self.uniform_size_bytes,
                self.sizes[item] if self.sizes is not None else None,
            )
        if not -length <= item < length:
            raise IndexError(
                f"row {item} is out of range for a batch of {length} rows"
            )
        return RecordRowView(self, item if item >= 0 else length + item)

    def __iter__(self) -> Iterator["RecordRowView"]:
        view_class = RecordRowView
        for index in range(self._length):
            yield view_class(self, index)

    def __add__(self, other: object) -> "RecordBatch | List[Record]":
        if isinstance(other, RecordBatch):
            if other._length == 0:
                return self
            if self._length == 0:
                return other
            columns = {
                name: _column_concat(column, other.columns[name])
                for name, column in self.columns.items()
            }
            length = self._length + other._length
            if (
                self.uniform_size_bytes is not None
                and self.uniform_size_bytes == other.uniform_size_bytes
            ):
                return RecordBatch._derived(
                    self.record_class, columns, length, self.uniform_size_bytes, None
                )
            return RecordBatch._derived(
                self.record_class,
                columns,
                length,
                None,
                self._sizes_list() + other._sizes_list(),
            )
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

    def take(self, indices: Sequence[int]) -> "RecordBatch":
        """Select a *subsequence* of rows (e.g. the survivors of a filter).

        ``indices`` must be strictly increasing — this is a selection, not a
        gather: a full-length index list is assumed to be the identity and
        returns the batch itself without copying.
        """
        if len(indices) == self._length:
            return self
        return RecordBatch._derived(
            self.record_class,
            {
                name: _column_take(column, indices)
                for name, column in self.columns.items()
            },
            len(indices),
            self.uniform_size_bytes,
            [self.sizes[i] for i in indices] if self.sizes is not None else None,
        )

    def compress(self, mask: MaskLike) -> "RecordBatch":
        """Select rows by boolean mask.

        Array columns gather through one shared ``np.flatnonzero`` index;
        list columns use ``itertools.compress``.  A mask whose length is not
        the row count raises :class:`SimulationError`.
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
            {
                name: (
                    column.take(index)
                    if isinstance(column, np.ndarray)
                    else list(_compress(column, mask))
                )
                for name, column in self.columns.items()
            },
            len(index),
            self.uniform_size_bytes,
            list(_compress(self.sizes, mask)) if self.sizes is not None else None,
        )

    # -- byte accounting ---------------------------------------------------------

    def size_of(self, index: int) -> int:
        """Serialized size of one row in bytes."""
        if self.uniform_size_bytes is not None:
            return self.uniform_size_bytes
        return self.sizes[index]

    def _sizes_list(self) -> List[int]:
        if self.sizes is not None:
            return list(self.sizes)
        return [self.uniform_size_bytes] * self._length

    def total_size_bytes(self, drain: bool = False) -> int:
        """Exact integer byte total (optionally with drain-path headers)."""
        count = self._length
        overhead = DRAIN_HEADER_BYTES if drain else 0
        if self.uniform_size_bytes is not None:
            return (self.uniform_size_bytes + overhead) * count
        return sum(self.sizes) + overhead * count

    # -- materialization ---------------------------------------------------------

    def column(self, name: str) -> Optional[List[Any]]:
        """The named column, or None when this schema does not carry it."""
        return self.columns.get(name)

    @property
    def event_times(self) -> List[float]:
        return self.columns["event_time"]

    def materialize_row(self, index: int) -> Record:
        record = self.record_class.__new__(self.record_class)
        for name, column in self.columns.items():
            value = column[index]
            if isinstance(value, np.generic):
                value = value.item()
            setattr(record, name, value)
        return record

    def to_records(self) -> List[Record]:
        """Materialize the whole batch as record objects (slow path).

        Array-backed columns convert to Python scalars first (in C), so
        object-mode records never carry numpy types.
        """
        names = list(self.columns)
        plain = [_column_list(self.columns[name]) for name in names]
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


class FleetArena:
    """One block-level columnar batch stacking every source's epoch records.

    ``record_mode="arena"`` keeps a whole building block's epoch input in one
    set of reusable column buffers — the :class:`RecordBatch` columns plus
    ``source_ids``/``epochs`` columns and a per-source offset index.  Each
    source's batch is then a zero-copy slice view of the block arrays, so in
    steady state epoch stepping allocates nothing: :meth:`begin_epoch` resets
    the write cursor and the next fleet fill overwrites the same memory.

    The arena is schema-strict on purpose: the first reservation fixes the
    record class, the uniform row size, and the column dtypes, and anything
    that does not match (ragged sizes, non-numeric columns, a different
    record type) is refused so the caller falls back to a plain per-source
    batch.  Metrics depend only on row counts and exact integer byte sizes,
    so views and fallback batches are interchangeable bit-identically.

    Because buffers are recycled every epoch, any view that survives the
    epoch boundary has to be detached before the next fill: :meth:`own`
    copies exactly the columns that alias the live buffers and returns other
    batches unchanged.  Operator stage queues are owned right after their
    source steps; executor queues (carryover, SP backlog) may hold views for
    the rest of the block epoch, and the executor owns whatever is still
    queued when the epoch ends.  Between epochs no executor-held batch
    aliases an arena.
    """

    def __init__(self) -> None:
        self._record_class: Optional[type] = None
        self._uniform_size_bytes: Optional[int] = None
        self._buffers: Dict[str, np.ndarray] = {}
        self._buffer_ids: frozenset = frozenset()
        self._capacity = 0
        self._cursor = 0
        self._epoch = -1
        #: Per-source row span of the current epoch: source_id -> (start, stop).
        self._spans: Dict[int, Tuple[int, int]] = {}
        self.source_ids = np.empty(0, dtype=np.int64)
        self.epochs = np.empty(0, dtype=np.int64)
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
    def epoch(self) -> int:
        """Epoch the current contents belong to (-1 before the first fill)."""
        return self._epoch

    @property
    def num_sources(self) -> int:
        """How many sources reserved rows in the current epoch."""
        return len(self._spans)

    def begin_epoch(self, epoch: int) -> None:
        """Recycle the buffers for a new epoch (no allocation)."""
        self._epoch = int(epoch)
        self._cursor = 0
        self._spans.clear()

    def _grow(self, needed: int) -> None:
        capacity = max(needed, self._capacity * 2, 1024)
        cursor = self._cursor
        for name, buffer in self._buffers.items():
            fresh = self._alloc(capacity, buffer.dtype)
            fresh[:cursor] = buffer[:cursor]
            self._buffers[name] = fresh
        for attr in ("source_ids", "epochs"):
            buffer = getattr(self, attr)
            fresh = self._alloc(capacity, np.int64)
            fresh[:cursor] = buffer[:cursor]
            setattr(self, attr, fresh)
        self._capacity = capacity
        self._buffer_ids = frozenset(id(buf) for buf in self._buffers.values())

    def reserve(
        self,
        source_id: int,
        count: int,
        record_class: type,
        dtypes: Dict[str, Any],
        uniform_size_bytes: Optional[int],
    ) -> Optional[Dict[str, np.ndarray]]:
        """Reserve ``count`` rows for ``source_id`` in the current epoch.

        Returns writable column slices aliasing the block buffers, or None
        when the request is incompatible with the arena schema (the caller
        then keeps its own per-source batch).  A schema equal to the last
        accepted one is not checked again.
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
        self.source_ids[start:stop] = source_id
        self.epochs[start:stop] = self._epoch
        self._spans[source_id] = (start, stop)
        self._cursor = stop
        return {name: buffer[start:stop] for name, buffer in self._buffers.items()}

    def _accept_schema(
        self,
        record_class: type,
        dtypes: Dict[str, Any],
        uniform_size_bytes: Optional[int],
        count: int,
    ) -> bool:
        """Check a reservation's schema; the first accepted one fixes it."""
        if uniform_size_bytes is None or "event_time" not in dtypes:
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
            self.source_ids = self._alloc(capacity, np.int64)
            self.epochs = self._alloc(capacity, np.int64)
            self._capacity = capacity
            self._buffer_ids = frozenset(id(buf) for buf in self._buffers.values())
        self._accepted_dtypes = dict(dtypes)
        return True

    def append_batch(self, source_id: int, batch: "RecordBatch") -> bool:
        """Copy a per-source batch into the arena; False when incompatible."""
        if not isinstance(batch, RecordBatch) or batch.sizes is not None:
            return False
        arrays = {name: np.asarray(column) for name, column in batch.columns.items()}
        out = self.reserve(
            source_id,
            len(batch),
            batch.record_class,
            {name: array.dtype for name, array in arrays.items()},
            batch.uniform_size_bytes,
        )
        if out is None:
            return False
        for name, array in arrays.items():
            out[name][:] = array
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
            None,
        )

    def aliases(self, column: Any) -> bool:
        """Whether ``column`` is a view of the arena's live buffers.

        numpy collapses view chains, so a slice-of-a-slice still reports the
        root buffer as its ``base``; fancy indexing, ``compress``, and
        concatenation all produce owned arrays and are never flagged.
        """
        if not isinstance(column, np.ndarray):
            return False
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
        columns: Dict[str, ColumnData] = {}
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
            batch.sizes,
        )


def record_size_bytes(
    records: "Iterable[Record] | RecordBatch", drain: bool = False
) -> int:
    """Total serialized size of ``records`` in bytes.

    Args:
        records: Any iterable of records, or a :class:`RecordBatch` (counted
            via exact integer column arithmetic, no per-record iteration).
        drain: When true, adds the per-record drain-path header overhead
            (operator identifier + replicated watermark marker).
    """
    if isinstance(records, RecordBatch):
        return records.total_size_bytes(drain=drain)
    overhead = DRAIN_HEADER_BYTES if drain else 0
    return sum(record.size_bytes + overhead for record in records)


def half_up(value: float) -> int:
    """Round ``value`` to the nearest integer with ties going up.

    Record and byte counts must use this instead of builtin ``round()``:
    Python rounds half to even ("banker's rounding"), which made
    ``ControlProxy.route`` forward 0 of 1 record at a 0.5 load factor but
    2 of 3 — per-epoch throughput depended on the parity of the record
    count (the PR 5 bug, now simlint rule SL004).
    """
    return int(math.floor(value + 0.5))


def bytes_to_mbps(total_bytes: float, duration_s: float) -> float:
    """Convert a byte count over a duration into megabits per second."""
    if duration_s <= 0:
        raise ConfigurationError(f"duration_s must be positive, got {duration_s!r}")
    return total_bytes * 8.0 / 1e6 / duration_s


def mbps_to_bytes(rate_mbps: float, duration_s: float) -> float:
    """Convert a rate in megabits per second into bytes over a duration."""
    if duration_s < 0:
        raise ConfigurationError(
            f"duration_s must be non-negative, got {duration_s!r}"
        )
    return rate_mbps * 1e6 / 8.0 * duration_s


def records_per_second(rate_mbps: float, record_bytes: int = PINGMESH_RECORD_BYTES) -> float:
    """Number of records per second implied by a bit rate and a record size."""
    if record_bytes <= 0:
        raise ConfigurationError(
            f"record_bytes must be positive, got {record_bytes!r}"
        )
    return rate_mbps * 1e6 / 8.0 / record_bytes


def make_probe_record(
    event_time: float,
    src_ip: int,
    dst_ip: int,
    rtt_us: float,
    err_code: int = 0,
) -> PingmeshRecord:
    """Convenience constructor used by workload generators and tests."""
    return PingmeshRecord(event_time, src_ip, dst_ip, rtt_us, err_code)


def make_log_record(event_time: float, line: str) -> LogRecord:
    """Convenience constructor used by workload generators and tests."""
    return LogRecord(event_time, line)


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
