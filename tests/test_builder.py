"""Unit tests for the declarative query builder and the canned paper queries."""

from __future__ import annotations

import pytest

from repro.errors import QueryDefinitionError
from repro.query.builder import (
    LOG_PATTERNS,
    Query,
    Stream,
    log_analytics_query,
    s2s_probe_query,
    t2t_probe_query,
)
from repro.query.operators import (
    FilterOperator,
    GroupAggregateOperator,
    JoinOperator,
    WindowOperator,
)
from repro.query.records import IpToTorTable, LogRecord, PingmeshRecord


class TestStreamBuilder:
    def test_basic_chain(self):
        query = (
            Stream("q")
            .window(10.0)
            .filter(lambda e: True)
            .group_apply(lambda e: (e.src_ip,))
            .aggregate("avg:rtt")
            .build()
        )
        kinds = [op.kind for op in query.operators]
        assert kinds == ["window", "filter", "group_aggregate"]

    def test_window_must_come_first(self):
        with pytest.raises(QueryDefinitionError):
            Stream("q").filter(lambda e: True)
        builder = Stream("q").window(1.0)
        with pytest.raises(QueryDefinitionError):
            builder.window(2.0)

    def test_group_apply_requires_aggregate_before_build(self):
        builder = Stream("q").window(1.0).group_apply(lambda e: ())
        with pytest.raises(QueryDefinitionError):
            builder.build()

    def test_double_group_apply_rejected(self):
        builder = Stream("q").window(1.0).group_apply(lambda e: ())
        with pytest.raises(QueryDefinitionError):
            builder.group_apply(lambda e: ())

    def test_aggregate_without_group_is_global(self):
        query = Stream("q").window(1.0).aggregate("count").build()
        assert query.operators[-1].kind == "aggregate"

    def test_aggregate_requires_specs(self):
        with pytest.raises(QueryDefinitionError):
            Stream("q").window(1.0).aggregate()

    def test_unknown_aggregate_spec(self):
        with pytest.raises(QueryDefinitionError):
            Stream("q").window(1.0).aggregate("weird:rtt")

    def test_empty_names_rejected(self):
        with pytest.raises(QueryDefinitionError):
            Stream("")
        with pytest.raises(QueryDefinitionError):
            Query("q", [])

    def test_duplicate_operator_names_rejected(self):
        ops = [WindowOperator("same", 1.0), FilterOperator("same", lambda e: True)]
        with pytest.raises(QueryDefinitionError):
            Query("q", ops)

    def test_operator_names_are_unique_and_ordered(self):
        query = (
            Stream("q")
            .window(1.0)
            .map(lambda e: e)
            .map(lambda e: e)
            .filter(lambda e: True)
            .build()
        )
        names = query.operator_names()
        assert len(names) == len(set(names))
        assert names[0] == "window"

    def test_join_via_generic_api(self):
        table = IpToTorTable.dense(10)
        query = (
            Stream("q")
            .window(1.0)
            .join(table, key_fn=lambda e: e.src_ip, combine_fn=lambda e, v: e)
            .build()
        )
        assert isinstance(query.operators[-1], JoinOperator)

    def test_query_iteration_and_len(self):
        query = s2s_probe_query()
        assert len(query) == len(list(query)) == 3


class TestCannedQueries:
    def test_s2s_probe_structure(self):
        query = s2s_probe_query(window_s=10.0)
        assert [op.kind for op in query.operators] == [
            "window",
            "filter",
            "group_aggregate",
        ]
        window = query.operators[0]
        assert isinstance(window, WindowOperator) and window.length_s == 10.0

    def test_s2s_probe_filters_error_records(self):
        query = s2s_probe_query()
        filter_op = query.operators[1]
        good = PingmeshRecord(0.0, 1, 2, 10.0, err_code=0)
        bad = PingmeshRecord(0.0, 1, 2, 10.0, err_code=5)
        assert filter_op.process([good, bad]) == [good]

    def test_s2s_probe_groups_by_server_pair(self):
        query = s2s_probe_query()
        gr = query.operators[2]
        assert isinstance(gr, GroupAggregateOperator)
        gr.process(
            [
                PingmeshRecord(0.0, 1, 2, 10.0),
                PingmeshRecord(0.0, 1, 2, 20.0),
                PingmeshRecord(0.0, 1, 3, 30.0),
            ]
        )
        assert gr.group_count() == 2

    def test_t2t_probe_structure(self):
        query = t2t_probe_query(table_size=100)
        assert [op.kind for op in query.operators] == [
            "window",
            "filter",
            "join",
            "join",
            "group_aggregate",
        ]

    def test_t2t_probe_accepts_custom_table(self):
        table = IpToTorTable.dense(64, servers_per_tor=8)
        query = t2t_probe_query(table=table)
        join = query.operators[2]
        assert join.table is table

    def test_log_analytics_structure(self):
        query = log_analytics_query()
        kinds = [op.kind for op in query.operators]
        assert kinds == ["window", "map", "filter", "map", "map", "group_aggregate"]

    def test_log_analytics_end_to_end_parsing(self):
        query = log_analytics_query()
        line = "Tenant Name=tenant_001; job_id=j00001; cluster=east; cpu util=55.0"
        noise = "INFO heartbeat status=ok"
        records = [LogRecord(0.0, line), LogRecord(0.0, noise)]
        current = records
        for op in query.operators[:-1]:
            current = op.process(current)
        assert len(current) == 1
        parsed = current[0]
        assert parsed.tenant == "tenant_001"
        assert parsed.stat_name == "cpu util"
        assert parsed.stat == 5.0  # bucketized: 55 // 10

    def test_log_patterns_match_paper(self):
        assert "cpu util" in LOG_PATTERNS
        assert "job running time" in LOG_PATTERNS
