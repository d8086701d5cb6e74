"""Unit tests for streaming operators."""

from __future__ import annotations

import pytest

from repro.errors import QueryDefinitionError
from repro.query.aggregates import AvgAggregate, CountAggregate, MaxAggregate, MinAggregate
from repro.query.operators import (
    AggregateOperator,
    FilterOperator,
    GroupAggregateOperator,
    JoinOperator,
    MapOperator,
    Operator,
    WindowOperator,
    make_tor_join,
)
from repro.query.records import IpToTorTable, PingmeshRecord, Record


def probes(n=10, err_every=None, base_rtt=100.0):
    records = []
    for i in range(n):
        err = 1 if err_every and i % err_every == 0 else 0
        records.append(PingmeshRecord(float(i), 1, 1000 + (i % 3), base_rtt + i, err_code=err))
    return records


class TestOperatorBase:
    def test_requires_name(self):
        with pytest.raises(QueryDefinitionError):
            FilterOperator("", lambda r: True)

    def test_rejects_non_positive_cost_hint(self):
        with pytest.raises(QueryDefinitionError):
            MapOperator("m", lambda r: r, cost_hint=0.0)

    def test_default_hooks_are_no_ops(self):
        op = WindowOperator("w", 10.0)
        assert op.partial_state() is None
        assert op.flush() == []
        op.merge_partial(None)  # must not raise


class TestWindowOperator:
    def test_passes_records_through(self):
        op = WindowOperator("w", 10.0)
        records = probes(5)
        assert op.process(records) == records

    def test_rejects_non_positive_length(self):
        with pytest.raises(QueryDefinitionError):
            WindowOperator("w", 0.0)

    def test_clone_preserves_length(self):
        op = WindowOperator("w", 5.0)
        assert op.clone().length_s == 5.0


class TestFilterOperator:
    def test_keeps_only_matching_records(self):
        op = FilterOperator("f", lambda r: r.err_code == 0)
        records = probes(10, err_every=2)
        out = op.process(records)
        assert len(out) == 5
        assert all(r.err_code == 0 for r in out)

    def test_clone_shares_predicate(self):
        op = FilterOperator("f", lambda r: True)
        clone = op.clone()
        assert clone is not op
        assert clone.predicate is op.predicate

    def test_empty_input(self):
        assert FilterOperator("f", lambda r: True).process([]) == []


class TestMapOperator:
    def test_one_to_one_transformation(self):
        op = MapOperator("m", lambda r: PingmeshRecord(r.event_time, r.src_ip, r.dst_ip, r.rtt_us * 2))
        out = op.process(probes(3))
        assert len(out) == 3
        assert out[0].rtt_us == pytest.approx(200.0)

    def test_none_results_are_dropped(self):
        op = MapOperator("m", lambda r: None if r.err_code else r)
        out = op.process(probes(10, err_every=2))
        assert len(out) == 5

    def test_list_results_are_flattened(self):
        op = MapOperator("m", lambda r: [r, r])
        assert len(op.process(probes(4))) == 8


class TestJoinOperator:
    def test_stream_table_join_enriches_records(self):
        table = IpToTorTable.dense(2000, servers_per_tor=100)
        op = make_tor_join("j", table, side="dst")
        out = op.process(probes(5))
        assert len(out) == 5
        assert all(r.dst_tor == r.dst_ip // 100 for r in out)

    def test_missing_keys_are_dropped(self):
        table = IpToTorTable({1000: 1})
        op = make_tor_join("j", table, side="dst")
        out = op.process(probes(9))  # dst ips 1000,1001,1002 cycling
        assert all(r.dst_ip == 1000 for r in out)

    def test_table_size_property(self):
        table = IpToTorTable.dense(123)
        op = make_tor_join("j", table, side="src")
        assert op.table_size == 123

    def test_invalid_side_rejected(self):
        with pytest.raises(QueryDefinitionError):
            make_tor_join("j", IpToTorTable.dense(10), side="middle")

    def test_chained_src_then_dst_join(self):
        table = IpToTorTable.dense(2000, servers_per_tor=100)
        src_join = make_tor_join("j1", table, side="src")
        dst_join = make_tor_join("j2", table, side="dst")
        out = dst_join.process(src_join.process(probes(4)))
        assert all(r.src_tor == 0 and r.dst_tor == 10 for r in out)

    def test_clone_shares_table(self):
        table = IpToTorTable.dense(10)
        op = make_tor_join("j", table, side="src")
        assert op.clone().table is table


class TestAggregateOperator:
    def test_global_aggregation_flush(self):
        op = AggregateOperator("agg", [AvgAggregate("rtt"), MaxAggregate("rtt")])
        op.process(probes(4))
        out = op.flush()
        assert len(out) == 1
        assert out[0].count == 4
        assert out[0].values["max(rtt)"] >= out[0].values["avg(rtt)"]

    def test_flush_on_empty_state_emits_nothing(self):
        op = AggregateOperator("agg", [CountAggregate("rtt")])
        assert op.flush() == []

    def test_requires_at_least_one_aggregate(self):
        with pytest.raises(QueryDefinitionError):
            AggregateOperator("agg", [])

    def test_merge_partial_combines_states(self):
        a = AggregateOperator("agg", [CountAggregate("rtt")])
        b = AggregateOperator("agg", [CountAggregate("rtt")])
        a.process(probes(3))
        b.process(probes(5))
        a.merge_partial(b.partial_state())
        out = a.flush()
        assert out[0].count == 8

    def test_merge_partial_rejects_wrong_type(self):
        op = AggregateOperator("agg", [CountAggregate("rtt")])
        with pytest.raises(QueryDefinitionError):
            op.merge_partial("bogus")


class TestGroupAggregateOperator:
    def make_op(self):
        return GroupAggregateOperator(
            "g+r",
            key_fn=lambda r: (r.src_ip, r.dst_ip),
            aggregates=[AvgAggregate("rtt"), MaxAggregate("rtt"), MinAggregate("rtt")],
        )

    def test_grouping_and_aggregation(self):
        op = self.make_op()
        op.process(probes(9))
        assert op.group_count() == 3
        rows = op.flush()
        assert len(rows) == 3
        for row in rows:
            assert row.values["min(rtt)"] <= row.values["avg(rtt)"] <= row.values["max(rtt)"]

    def test_flush_clears_groups(self):
        op = self.make_op()
        op.process(probes(6))
        op.flush()
        assert op.group_count() == 0
        assert op.flush() == []

    def test_incremental_flag_reflects_aggregates(self):
        assert self.make_op().incremental is True

    def test_merge_partial_equals_processing_everything_in_one_place(self):
        """Source-side + SP-side partials must merge to the exact answer."""
        records = probes(30)
        reference = self.make_op()
        reference.process(records)
        expected = {r.group_key: r.values for r in reference.flush()}

        source = self.make_op()
        remote = self.make_op()
        source.process(records[:17])
        remote.process(records[17:])
        remote.merge_partial(source.partial_state())
        merged = {r.group_key: r.values for r in remote.flush()}

        assert merged.keys() == expected.keys()
        for key in expected:
            for column, value in expected[key].items():
                assert merged[key][column] == pytest.approx(value)

    def test_merge_partial_rejects_wrong_type(self):
        with pytest.raises(QueryDefinitionError):
            self.make_op().merge_partial(42)

    def test_requires_aggregates(self):
        with pytest.raises(QueryDefinitionError):
            GroupAggregateOperator("g", lambda r: (), [])

    def test_clone_has_fresh_state(self):
        op = self.make_op()
        op.process(probes(3))
        clone = op.clone()
        assert clone.group_count() == 0
        assert op.group_count() > 0

    def test_default_value_fn_extracts_rtt_in_ms(self):
        op = self.make_op()
        op.process([PingmeshRecord(0.0, 1, 2, rtt_us=2000.0)])
        row = op.flush()[0]
        assert row.values["avg(rtt)"] == pytest.approx(2.0)
