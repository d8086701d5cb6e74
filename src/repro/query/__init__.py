"""Streaming-query substrate: records, operators, plans, and the query builder.

This subpackage provides the declarative programming model described in
Section II-A of the paper (Listing 1/2/3) together with the logical/physical
plan machinery (Section IV-B) that the Jarvis core builds upon.
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
    GroupApplyOperator,
    AggregateOperator,
    GroupAggregateOperator,
)
from .logical_plan import LogicalPlan, LogicalNode
from .physical_plan import PhysicalPlan, PhysicalStage, OffloadRules

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
    "GroupApplyOperator",
    "AggregateOperator",
    "GroupAggregateOperator",
    "LogicalPlan",
    "LogicalNode",
    "PhysicalPlan",
    "PhysicalStage",
    "OffloadRules",
]
