"""Streaming-query substrate: records, operators, plans, and the query builder.

This subpackage provides the declarative programming model described in
Section II-A of the paper (Listing 1/2/3) and the physical plan it compiles
to (Section IV-B), which the Jarvis core builds upon.  There is no logical
plan: the builder already emits the deployed operator chain, and
:meth:`Query.physical_plan` applies the offload rules to it.
"""

from .records import (
    Record,
    RecordBatch,
    PingmeshRecord,
    LogRecord,
    JobStatsRecord,
    record_size_bytes,
)
from .builder import Stream, Query
from .operators import (
    Operator,
    WindowOperator,
    FilterOperator,
    MapOperator,
    JoinOperator,
    AggregateOperator,
    GroupAggregateOperator,
)
from .physical_plan import PhysicalPlan, PhysicalStage

__all__ = [
    "Record",
    "RecordBatch",
    "PingmeshRecord",
    "LogRecord",
    "JobStatsRecord",
    "record_size_bytes",
    "Stream",
    "Query",
    "Operator",
    "WindowOperator",
    "FilterOperator",
    "MapOperator",
    "JoinOperator",
    "AggregateOperator",
    "GroupAggregateOperator",
    "PhysicalPlan",
    "PhysicalStage",
]
