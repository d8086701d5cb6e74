"""Unit tests for query compilation and the physical-plan offload rules."""

from __future__ import annotations

import pytest

from repro.errors import PlanningError
from repro.query.aggregates import AvgAggregate, ExactQuantileAggregate
from repro.query.builder import Query, log_analytics_query, s2s_probe_query, t2t_probe_query
from repro.query.operators import (
    AggregateOperator,
    FilterOperator,
    GroupAggregateOperator,
    MapOperator,
    WindowOperator,
)
from repro.query.physical_plan import PhysicalPlan


class TestPhysicalPlan:
    def test_from_query_preserves_pipeline_order(self):
        query = s2s_probe_query()
        plan = query.physical_plan()
        assert [stage.operator.name for stage in plan.stages] == [
            "window",
            "filter",
            "group_aggregate",
        ]
        assert [line.split()[:2] for line in plan.describe().splitlines()[1:]] == [
            ["[0]", "window"],
            ["[1]", "filter"],
            ["[2]", "group_aggregate"],
        ]
        assert all(a is b for a, b in zip(plan.operators, query.operators))

    def test_all_paper_queries_fully_offloadable(self):
        for query in (s2s_probe_query(), t2t_probe_query(table_size=50), log_analytics_query()):
            plan = query.physical_plan()
            assert plan.offloadable_count == len(plan)

    def test_window_length_propagates(self):
        plan = s2s_probe_query(window_s=30.0).physical_plan()
        assert plan.window_length_s == 30.0

    def test_r1_blocks_non_incremental_aggregates(self):
        ops = [
            WindowOperator("w", 10.0),
            FilterOperator("f", lambda r: True),
            AggregateOperator("q", [ExactQuantileAggregate("rtt")]),
        ]
        plan = Query("q", ops).physical_plan()
        assert plan.offloadable_count == 2
        assert "R-1" in plan.stages[2].reason

    def test_r2_blocks_operators_after_stateful_stage(self):
        ops = [
            WindowOperator("w", 10.0),
            GroupAggregateOperator("g+r", lambda r: r.key(), [AvgAggregate("rtt")]),
            MapOperator("post", lambda r: r),
        ]
        plan = Query("q", ops).physical_plan()
        assert plan.offloadable_count == 2
        assert "R-2" in plan.stages[2].reason

    def test_everything_after_blocked_stage_stays_on_sp(self):
        ops = [
            WindowOperator("w", 10.0),
            AggregateOperator("q", [ExactQuantileAggregate("rtt")]),
            FilterOperator("f", lambda r: True),
        ]
        plan = Query("q", ops).physical_plan()
        assert plan.offloadable_count == 1
        assert not plan.stages[2].offloadable

    def test_source_and_sp_operators_are_fresh_clones(self):
        plan = s2s_probe_query().physical_plan()
        source_ops = plan.source_operators()
        sp_ops = plan.stream_processor_operators()
        assert len(source_ops) == plan.offloadable_count
        assert len(sp_ops) == len(plan)
        assert all(a is not b for a, b in zip(source_ops, plan.operators))
        assert all(a is not b for a, b in zip(sp_ops, plan.operators))

    def test_describe_mentions_every_stage(self):
        plan = s2s_probe_query().physical_plan()
        description = plan.describe()
        for name in plan.operators:
            assert name.name in description

    def test_empty_physical_plan_rejected(self):
        with pytest.raises(PlanningError):
            PhysicalPlan("q", [], window_length_s=10.0)

    def test_remote_only_stages_complement_offloadable(self):
        ops = [
            WindowOperator("w", 10.0),
            AggregateOperator("q", [ExactQuantileAggregate("rtt")]),
        ]
        plan = Query("q", ops).physical_plan()
        assert len(plan.offloadable_stages()) + len(plan.remote_only_stages()) == len(plan)
