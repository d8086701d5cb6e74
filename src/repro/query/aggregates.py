"""Incremental aggregate functions.

Rule R-1 in the paper restricts data-source execution to aggregations that are
*incrementally updatable* (sum, count, min, max, avg, approximate quantiles).
Every aggregate here exposes the classic ``create / add / merge / result``
interface so partial aggregates computed at a data source can be merged with
the partial aggregates computed from drained records on the stream processor
without losing accuracy — this is the property that makes data-level
partitioning exact rather than approximate.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueryDefinitionError
from .records import half_up


class Aggregate:
    """Base class for incremental aggregates over a single numeric field."""

    #: Name used in query definitions, e.g. ``"avg"`` for ``c.avg(rtt)``.
    name: str = "aggregate"

    #: Whether the aggregate supports exact incremental merging (R-1).
    incremental: bool = True

    def __init__(self, field: str) -> None:
        self.field = field

    def create(self) -> object:
        """Return a fresh accumulator state."""
        raise NotImplementedError

    def add(self, state: object, value: float) -> object:
        """Fold ``value`` into ``state`` and return the updated state."""
        raise NotImplementedError

    def add_many(self, state: object, values: Sequence[float]) -> object:
        """Fold a run of values into ``state``.

        Must be *bit-identical* to calling :meth:`add` once per value in
        order — the arena execution mode relies on that equivalence (only
        ndarray float sums may reassociate; they never feed metrics).  The
        base implementation is the sequential fold; subclasses override it
        with closed forms only where the arithmetic is associativity-safe.
        """
        for value in values:
            state = self.add(state, value)
        return state

    def merge(self, state: object, other: object) -> object:
        """Merge two partial states (source-side and drained-side)."""
        raise NotImplementedError

    def result(self, state: object) -> float:
        """Finalize the accumulator into the reported value."""
        raise NotImplementedError

    def output_name(self) -> str:
        """Column name of this aggregate in the output row."""
        return f"{self.name}({self.field})"


class SumAggregate(Aggregate):
    """Running sum."""

    name = "sum"

    def create(self) -> float:
        return 0.0

    def add(self, state: float, value: float) -> float:
        return state + value

    def add_many(self, state: float, values: Sequence[float]) -> float:
        if isinstance(values, np.ndarray):
            # Arena fast path.  Pairwise summation may differ from the
            # sequential fold in rounding order; acceptable because aggregate
            # slot floats never feed the simulation's metrics (all byte and
            # record accounting is count-based).
            return state + float(values.sum()) if len(values) else state
        # ``sum`` with a start value is the same left-to-right fold as
        # repeated ``add`` calls, just executed in C.
        return sum(values, state)

    def merge(self, state: float, other: float) -> float:
        return state + other

    def result(self, state: float) -> float:
        return state


class CountAggregate(Aggregate):
    """Running count; the field is ignored."""

    name = "count"

    def create(self) -> int:
        return 0

    def add(self, state: int, value: float) -> int:
        return state + 1

    def add_many(self, state: int, values: Sequence[float]) -> int:
        return state + len(values)

    def merge(self, state: int, other: int) -> int:
        return state + other

    def result(self, state: int) -> float:
        return float(state)


class MinAggregate(Aggregate):
    """Running minimum."""

    name = "min"

    def create(self) -> Optional[float]:
        return None

    def add(self, state: Optional[float], value: float) -> float:
        return value if state is None else min(state, value)

    def add_many(self, state: Optional[float], values: Sequence[float]) -> Optional[float]:
        if isinstance(values, np.ndarray):
            if len(values) == 0:
                return state
            # Exact: a minimum over floats is order-independent (NaN aside,
            # handled by the fallback below).
            low = float(values.min())
            if low != low:
                return super().add_many(state, values.tolist())
            return low if state is None else min(state, low)
        if not values:
            return state
        low = min(values)
        if low != low:
            # ``min`` over NaN-carrying values is order-dependent, so the
            # closed form would diverge from the sequential fold; fall back.
            return super().add_many(state, values)
        return low if state is None else min(state, low)

    def merge(self, state: Optional[float], other: Optional[float]) -> Optional[float]:
        if state is None:
            return other
        if other is None:
            return state
        return min(state, other)

    def result(self, state: Optional[float]) -> float:
        return math.nan if state is None else state


class MaxAggregate(Aggregate):
    """Running maximum."""

    name = "max"

    def create(self) -> Optional[float]:
        return None

    def add(self, state: Optional[float], value: float) -> float:
        return value if state is None else max(state, value)

    def add_many(self, state: Optional[float], values: Sequence[float]) -> Optional[float]:
        if isinstance(values, np.ndarray):
            if len(values) == 0:
                return state
            high = float(values.max())
            if high != high:
                return super().add_many(state, values.tolist())
            return high if state is None else max(state, high)
        if not values:
            return state
        high = max(values)
        if high != high:
            # Same NaN order-dependence caveat as MinAggregate.add_many.
            return super().add_many(state, values)
        return high if state is None else max(state, high)

    def merge(self, state: Optional[float], other: Optional[float]) -> Optional[float]:
        if state is None:
            return other
        if other is None:
            return state
        return max(state, other)

    def result(self, state: Optional[float]) -> float:
        return math.nan if state is None else state


class AvgAggregate(Aggregate):
    """Running average kept as a (sum, count) pair so it merges exactly."""

    name = "avg"

    def create(self) -> Tuple[float, int]:
        return (0.0, 0)

    def add(self, state: Tuple[float, int], value: float) -> Tuple[float, int]:
        total, count = state
        return (total + value, count + 1)

    def add_many(
        self, state: Tuple[float, int], values: Sequence[float]
    ) -> Tuple[float, int]:
        total, count = state
        if isinstance(values, np.ndarray):
            # Same rounding-order caveat as SumAggregate.add_many; the count
            # (which metrics do read) stays exact.
            if len(values):
                total = total + float(values.sum())
            return (total, count + len(values))
        return (sum(values, total), count + len(values))

    def merge(
        self, state: Tuple[float, int], other: Tuple[float, int]
    ) -> Tuple[float, int]:
        return (state[0] + other[0], state[1] + other[1])

    def result(self, state: Tuple[float, int]) -> float:
        total, count = state
        return math.nan if count == 0 else total / count


class _QuantileSketch:
    """Bounded, mergeable, stride-sampled value sketch.

    The sketch keeps (approximately) every ``stride``-th observed value in a
    sorted list bounded by ``max_samples`` entries; when the list overflows,
    every other entry is dropped and the stride doubles.  Because the retained
    values are always a uniform 1-in-``stride`` sample of the stream, order
    statistics estimated from the sample are unbiased, and two sketches can be
    merged by aligning their strides first.
    """

    __slots__ = ("stride", "count", "pending", "values")

    def __init__(self) -> None:
        self.stride = 1
        self.count = 0
        self.pending = 0
        self.values: List[float] = []

    def _compact(self, max_samples: int) -> None:
        while len(self.values) > max_samples:
            self.values = self.values[::2]
            self.stride *= 2

    def add(self, value: float, max_samples: int) -> None:
        self.count += 1
        self.pending += 1
        if self.pending >= self.stride:
            self.pending = 0
            bisect.insort(self.values, value)
            self._compact(max_samples)

    def align_to_stride(self, stride: int) -> List[float]:
        """Values of this sketch re-thinned as if sampled at ``stride``."""
        if stride <= self.stride or not self.values:
            return list(self.values)
        factor = max(1, half_up(stride / self.stride))
        return self.values[::factor]

    def merge(self, other: "_QuantileSketch", max_samples: int) -> None:
        target_stride = max(self.stride, other.stride)
        mine = self.align_to_stride(target_stride)
        theirs = other.align_to_stride(target_stride)
        self.stride = target_stride
        self.count += other.count
        self.values = sorted(mine + theirs)
        self._compact(max_samples)

    def quantile(self, q: float) -> float:
        if not self.values:
            return math.nan
        idx = q * (len(self.values) - 1)
        lo = int(math.floor(idx))
        hi = int(math.ceil(idx))
        if lo == hi:
            return self.values[lo]
        frac = idx - lo
        return self.values[lo] * (1.0 - frac) + self.values[hi] * frac


class ApproxQuantileAggregate(Aggregate):
    """Approximate quantile via a bounded, mergeable value sketch.

    Exact quantiles are *not* incrementally updatable (rule R-1 excludes them
    from data-source execution), but their approximate counterparts are; this
    aggregate keeps a uniform 1-in-``stride`` sample bounded by
    ``max_samples`` values, so partial states merge with bounded error.
    """

    name = "approx_quantile"
    incremental = True

    def __init__(self, field: str, quantile: float = 0.5, max_samples: int = 256) -> None:
        super().__init__(field)
        if not 0.0 <= quantile <= 1.0:
            raise QueryDefinitionError(
                f"quantile must be within [0, 1], got {quantile!r}"
            )
        if max_samples < 2:
            raise QueryDefinitionError(
                f"max_samples must be >= 2, got {max_samples!r}"
            )
        self.quantile = quantile
        self.max_samples = max_samples

    def create(self) -> _QuantileSketch:
        return _QuantileSketch()

    def add(self, state: _QuantileSketch, value: float) -> _QuantileSketch:
        state.add(value, self.max_samples)
        return state

    def merge(self, state: _QuantileSketch, other: _QuantileSketch) -> _QuantileSketch:
        state.merge(other, self.max_samples)
        return state

    def result(self, state: _QuantileSketch) -> float:
        return state.quantile(self.quantile)

    def output_name(self) -> str:
        return f"p{half_up(self.quantile * 100)}({self.field})"


class ExactQuantileAggregate(Aggregate):
    """Exact quantile: keeps every value, therefore *not* incremental (R-1)."""

    name = "quantile"
    incremental = False

    def __init__(self, field: str, quantile: float = 0.5) -> None:
        super().__init__(field)
        if not 0.0 <= quantile <= 1.0:
            raise QueryDefinitionError(
                f"quantile must be within [0, 1], got {quantile!r}"
            )
        self.quantile = quantile

    def create(self) -> List[float]:
        return []

    def add(self, state: List[float], value: float) -> List[float]:
        bisect.insort(state, value)
        return state

    def merge(self, state: List[float], other: List[float]) -> List[float]:
        return sorted(state + other)

    def result(self, state: List[float]) -> float:
        if not state:
            return math.nan
        idx = self.quantile * (len(state) - 1)
        lo = int(math.floor(idx))
        hi = int(math.ceil(idx))
        if lo == hi:
            return state[lo]
        frac = idx - lo
        return state[lo] * (1.0 - frac) + state[hi] * frac

    def output_name(self) -> str:
        return f"exact_p{half_up(self.quantile * 100)}({self.field})"


#: Registry of aggregate constructors addressable by name from the builder.
AGGREGATE_REGISTRY = {
    "sum": SumAggregate,
    "count": CountAggregate,
    "min": MinAggregate,
    "max": MaxAggregate,
    "avg": AvgAggregate,
    "approx_quantile": ApproxQuantileAggregate,
    "quantile": ExactQuantileAggregate,
}


def make_aggregate(name: str, field: str = "", **kwargs: object) -> Aggregate:
    """Instantiate an aggregate by name.

    Raises:
        QueryDefinitionError: If the aggregate name is unknown.
    """
    try:
        factory = AGGREGATE_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(AGGREGATE_REGISTRY))
        raise QueryDefinitionError(
            f"unknown aggregate {name!r}; known aggregates: {known}"
        ) from None
    return factory(field, **kwargs)  # type: ignore[arg-type]


class AggregateState:
    """Bundle of accumulator states for a list of aggregates over one group."""

    __slots__ = ("aggregates", "states", "count")

    def __init__(self, aggregates: Sequence[Aggregate]) -> None:
        self.aggregates = list(aggregates)
        self.states = [agg.create() for agg in self.aggregates]
        self.count = 0

    def add(self, values: Dict[str, float]) -> None:
        """Fold one record's field values into every aggregate."""
        for i, agg in enumerate(self.aggregates):
            value = values.get(agg.field, 0.0)
            self.states[i] = agg.add(self.states[i], value)
        self.count += 1

    def add_many(self, values_by_field: Dict[str, Sequence[float]], count: int) -> None:
        """Fold ``count`` records' values, given per-field value runs.

        Bit-identical to ``count`` sequential :meth:`add` calls: a field
        missing from ``values_by_field`` contributes ``0.0`` per record,
        exactly as ``values.get(field, 0.0)`` does on the per-record path.
        """
        if count <= 0:
            return
        zeros: Optional[Tuple[float, ...]] = None
        for i, agg in enumerate(self.aggregates):
            values = values_by_field.get(agg.field)
            if values is None:
                if zeros is None:
                    zeros = (0.0,) * count
                values = zeros
            self.states[i] = agg.add_many(self.states[i], values)
        self.count += count

    def merge(self, other: "AggregateState") -> None:
        """Merge another partial state (e.g. the stream-processor side)."""
        if len(other.states) != len(self.states):
            raise QueryDefinitionError(
                "cannot merge aggregate states with different shapes"
            )
        for i, agg in enumerate(self.aggregates):
            self.states[i] = agg.merge(self.states[i], other.states[i])
        self.count += other.count

    def results(self) -> Dict[str, float]:
        """Finalized values keyed by aggregate output name."""
        return {
            agg.output_name(): agg.result(state)
            for agg, state in zip(self.aggregates, self.states)
        }


def all_incremental(aggregates: Iterable[Aggregate]) -> bool:
    """True when every aggregate supports incremental merging (rule R-1)."""
    return all(agg.incremental for agg in aggregates)
