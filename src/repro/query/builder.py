"""Declarative query builder.

Reproduces the programming model from Listing 1/2/3 in the paper: queries are
expressed as a fluent chain of stream operations that compiles to a physical
plan.  Example (the paper's S2SProbe query)::

    query = (
        Stream("s2s_probe")
        .window(10.0)
        .filter(lambda e: e.err_code == 0)
        .group_apply(lambda e: (e.src_ip, e.dst_ip))
        .aggregate("avg:rtt", "max:rtt", "min:rtt")
        .build()
    )

``build()`` returns a :class:`Query`, which holds the deployed operator chain
(``group_apply(...).aggregate(...)`` becomes one fused G+R operator) and
compiles to a :class:`~repro.query.physical_plan.PhysicalPlan`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import QueryDefinitionError
from .aggregates import Aggregate, make_aggregate
from .operators import (
    AggregateOperator,
    FilterOperator,
    GroupAggregateOperator,
    JoinOperator,
    MapOperator,
    Operator,
    WindowOperator,
    make_tor_join,
)
from .physical_plan import PhysicalPlan
from .records import IpToTorTable, Record


def _parse_aggregate_spec(spec: str) -> Aggregate:
    """Parse an aggregate spec string like ``"avg:rtt"`` or ``"count"``."""
    if ":" in spec:
        name, field = spec.split(":", 1)
    else:
        name, field = spec, ""
    name = name.strip().lower()
    field = field.strip()
    if not name:
        raise QueryDefinitionError(f"empty aggregate name in spec {spec!r}")
    return make_aggregate(name, field)


class Query:
    """A compiled monitoring query: a named, ordered chain of operators."""

    def __init__(self, name: str, operators: Sequence[Operator]) -> None:
        if not operators:
            raise QueryDefinitionError("a query must contain at least one operator")
        self.name = name
        self.operators: List[Operator] = list(operators)
        self._validate()

    def _validate(self) -> None:
        seen = set()
        for op in self.operators:
            if op.name in seen:
                raise QueryDefinitionError(
                    f"duplicate operator name {op.name!r} in query {self.name!r}"
                )
            seen.add(op.name)

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    def operator_names(self) -> List[str]:
        """Names of operators in pipeline order."""
        return [op.name for op in self.operators]

    def physical_plan(self) -> PhysicalPlan:
        """Compile this query to its deployable physical plan."""
        return PhysicalPlan.from_query(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        chain = " -> ".join(self.operator_names())
        return f"<Query {self.name!r}: {chain}>"


class Stream:
    """Fluent builder for monitoring queries.

    Each chained call appends one operator; :meth:`build` produces the
    immutable :class:`Query`.  The builder validates the chain as it grows so
    mistakes surface at definition time rather than at deployment time.
    """

    def __init__(self, name: str = "query") -> None:
        if not name:
            raise QueryDefinitionError("query name must be non-empty")
        self.name = name
        self._operators: List[Operator] = []
        self._counter: Dict[str, int] = {}
        self._pending_group_key: Optional[Callable[[Record], Tuple[Any, ...]]] = None
        self._pending_group_columns: Optional[Tuple[str, ...]] = None

    def _next_name(self, kind: str) -> str:
        index = self._counter.get(kind, 0)
        self._counter[kind] = index + 1
        return f"{kind}_{index}" if index else kind

    def window(self, length_s: float) -> "Stream":
        """Assign records to fixed-size tumbling windows of ``length_s`` seconds."""
        if self._operators:
            raise QueryDefinitionError("window() must be the first operation")
        self._operators.append(WindowOperator(self._next_name("window"), length_s))
        return self

    def filter(
        self,
        predicate: Callable[[Record], bool],
        cost_hint: float = 1.0,
        column_equals: Optional[Tuple[str, Any]] = None,
    ) -> "Stream":
        """Keep only records satisfying ``predicate``.

        ``column_equals=(field, value)`` is an optional columnar hint for the
        arena execution mode; when given, the predicate must be equivalent
        to comparing that record field against ``value`` (records lacking the
        field fail the filter).
        """
        self._require_window("filter")
        self._operators.append(
            FilterOperator(
                self._next_name("filter"),
                predicate,
                cost_hint,
                column_equals=column_equals,
            )
        )
        return self

    def map(self, fn: Callable[[Record], Any], cost_hint: float = 1.0) -> "Stream":
        """Apply a user-defined transformation (may drop or expand records)."""
        self._require_window("map")
        self._operators.append(MapOperator(self._next_name("map"), fn, cost_hint))
        return self

    def join(
        self,
        table: IpToTorTable,
        key_fn: Callable[[Record], int],
        combine_fn: Callable[[Record, int], Optional[Record]],
        cost_hint: float = 1.0,
    ) -> "Stream":
        """Join the stream against a static lookup table."""
        self._require_window("join")
        self._operators.append(
            JoinOperator(self._next_name("join"), table, key_fn, combine_fn, cost_hint)
        )
        return self

    def join_tor(self, table: IpToTorTable, side: str, cost_hint: float = 1.0) -> "Stream":
        """Enrich probe records with the ToR id of their ``side`` endpoint."""
        self._require_window("join")
        self._operators.append(
            make_tor_join(self._next_name("join"), table, side, cost_hint)
        )
        return self

    def group_apply(
        self,
        key_fn: Callable[[Record], Tuple[Any, ...]],
        key_columns: Optional[Sequence[str]] = None,
    ) -> "Stream":
        """Group records by ``key_fn``; must be followed by :meth:`aggregate`.

        ``key_columns`` is an optional columnar hint for the arena execution
        mode: when given, ``key_fn(record)`` must equal the tuple of those
        record fields, so group keys can be packed from columns instead of
        calling ``key_fn`` once per record.
        """
        self._require_window("group_apply")
        if self._pending_group_key is not None:
            raise QueryDefinitionError("group_apply() already pending an aggregate()")
        self._pending_group_key = key_fn
        self._pending_group_columns = tuple(key_columns) if key_columns else None
        return self

    def aggregate(
        self,
        *specs: str,
        value_fn: Optional[Callable[[Record], Dict[str, float]]] = None,
        cost_hint: float = 1.0,
    ) -> "Stream":
        """Aggregate the (optionally grouped) stream.

        Aggregate specs are strings of the form ``"<name>:<field>"``
        (e.g. ``"avg:rtt"``) or just ``"count"``.
        """
        self._require_window("aggregate")
        if not specs:
            raise QueryDefinitionError("aggregate() needs at least one spec")
        aggregates = [_parse_aggregate_spec(spec) for spec in specs]
        if self._pending_group_key is not None:
            operator: Operator = GroupAggregateOperator(
                self._next_name("group_aggregate"),
                self._pending_group_key,
                aggregates,
                value_fn,
                cost_hint,
                key_columns=self._pending_group_columns,
            )
            self._pending_group_key = None
            self._pending_group_columns = None
        else:
            operator = AggregateOperator(
                self._next_name("aggregate"), aggregates, value_fn, cost_hint
            )
        self._operators.append(operator)
        return self

    def _require_window(self, what: str) -> None:
        if not self._operators:
            raise QueryDefinitionError(
                f"{what}() requires a preceding window() operation"
            )

    def build(self) -> Query:
        """Finalize the chain into an immutable :class:`Query`."""
        if self._pending_group_key is not None:
            raise QueryDefinitionError(
                "group_apply() must be followed by aggregate() before build()"
            )
        return Query(self.name, self._operators)


# ---------------------------------------------------------------------------
# Canned queries from the paper's evaluation (Listings 1-3).
#
# Plan callables are module-level picklable objects, not lambdas or closures:
# compiled queries are embedded in live-migration handoff state
# (:class:`repro.simulation.multisource.SourceMigrationState`), which must
# cross process boundaries when blocks run under the parallel controller
# (:mod:`repro.simulation.parallel`).
# ---------------------------------------------------------------------------


class _FieldEquals:
    """Picklable predicate: ``getattr(record, field, default) == value``."""

    __slots__ = ("field", "value", "default")

    def __init__(self, field: str, value: Any, default: Any = None) -> None:
        self.field = field
        self.value = value
        self.default = default

    def __call__(self, record: Record) -> bool:
        return getattr(record, self.field, self.default) == self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"_FieldEquals({self.field!r}, {self.value!r})"


class _FieldsKey:
    """Picklable group key: ``tuple(getattr(record, f) for f in fields)``."""

    __slots__ = ("fields",)

    def __init__(self, *fields: str) -> None:
        self.fields = fields

    def __call__(self, record: Record) -> Tuple[Any, ...]:
        return tuple(getattr(record, field) for field in self.fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"_FieldsKey{self.fields!r}"


def s2s_probe_query(window_s: float = 10.0, name: str = "s2s_probe") -> Query:
    """Listing 1: server-to-server latency probing over Pingmesh records.

    ``Window(10s) -> Filter(err==0) -> GroupApply(src,dst) -> Agg(avg/max/min rtt)``
    """
    return (
        Stream(name)
        .window(window_s)
        .filter(_FieldEquals("err_code", 0, default=1), column_equals=("err_code", 0))
        .group_apply(_FieldsKey("src_ip", "dst_ip"), key_columns=("src_ip", "dst_ip"))
        .aggregate("avg:rtt", "max:rtt", "min:rtt")
        .build()
    )


def t2t_probe_query(
    table: Optional[IpToTorTable] = None,
    table_size: int = 500,
    window_s: float = 10.0,
    name: str = "t2t_probe",
) -> Query:
    """Listing 2: ToR-to-ToR latency probing (join with an IP→ToR table)."""
    if table is None:
        table = IpToTorTable.dense(table_size)
    return (
        Stream(name)
        .window(window_s)
        .filter(_FieldEquals("err_code", 0, default=1), column_equals=("err_code", 0))
        .join_tor(table, "src")
        .join_tor(table, "dst")
        .group_apply(_FieldsKey("src_tor", "dst_tor"), key_columns=("src_tor", "dst_tor"))
        .aggregate("avg:rtt", "max:rtt", "min:rtt")
        .build()
    )


#: Substrings searched for by the LogAnalytics query's pattern filter.
LOG_PATTERNS = ("tenant name", "job running time", "cpu util", "memory util")


def _parse_job_stats(record: Record) -> Optional[Record]:
    """Parse a ``key=value`` log line into a :class:`JobStatsRecord`."""
    from .records import JobStatsRecord, LogRecord

    if not isinstance(record, LogRecord):
        return None
    parts = record.line.split("=")
    if len(parts) < 3:
        return None
    tenant = parts[1].split(";")[0].strip()
    stat_name = parts[-2].split(";")[-1].strip()
    try:
        stat = float(parts[-1].strip())
    except ValueError:
        return None
    return JobStatsRecord(record.event_time, tenant, stat_name, stat)


def _bucketize(record: Record) -> Record:
    """Bucketize the parsed statistic into 10 equal-width buckets over [0, 100]."""
    from .records import JobStatsRecord

    if isinstance(record, JobStatsRecord):
        bucket = min(10, max(0, int(record.stat // 10)))
        return JobStatsRecord(record.event_time, record.tenant, record.stat_name, bucket)
    return record


def _normalize_log_line(record: Record) -> Record:
    """Lower-case and strip a raw log line (pre-filter normalisation pass)."""
    from .records import LogRecord

    if isinstance(record, LogRecord):
        return LogRecord(record.event_time, record.line.strip().lower())
    return record


def _matches_log_pattern(record: Record) -> bool:
    """True when the log line mentions any of :data:`LOG_PATTERNS`."""
    line = getattr(record, "line", "")
    return any(pattern in line for pattern in LOG_PATTERNS)


def log_analytics_query(window_s: float = 10.0, name: str = "log_analytics") -> Query:
    """Listing 3: per-tenant histogram of job latency and resource utilisation.

    ``Window -> Map(normalize) -> Filter(patterns) -> Map(parse) ->
    Map(bucketize) -> GroupApply(tenant, stat_name, bucket) -> Agg(count)``
    """
    return (
        Stream(name)
        .window(window_s)
        .map(_normalize_log_line, cost_hint=0.6)
        .filter(_matches_log_pattern, cost_hint=1.4)
        .map(_parse_job_stats, cost_hint=1.2)
        .map(_bucketize, cost_hint=0.4)
        .group_apply(
            _FieldsKey("tenant", "stat_name", "stat"),
            key_columns=("tenant", "stat_name", "stat"),
        )
        .aggregate("count", cost_hint=0.8)
        .build()
    )
