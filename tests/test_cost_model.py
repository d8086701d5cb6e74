"""Unit tests for the operator cost model and its calibration helper."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.query.builder import s2s_probe_query, t2t_probe_query
from repro.query.operators import FilterOperator, MapOperator
from repro.query.records import IpToTorTable
from repro.simulation.cost_model import (
    CostModel,
    OperatorCostSpec,
    calibrate_cost_model,
)
from repro.workloads.pingmesh import s2s_cost_model, t2t_cost_model


class TestOperatorCostSpec:
    def test_rejects_negative_cost(self):
        with pytest.raises(ConfigurationError):
            OperatorCostSpec(cpu_per_record=-1.0)

    def test_rejects_bad_ref_table_size(self):
        with pytest.raises(ConfigurationError):
            OperatorCostSpec(cpu_per_record=1.0, ref_table_size=0)


class TestCostModelLookup:
    def test_kind_defaults_apply(self):
        model = CostModel()
        cheap = FilterOperator("f", lambda r: True)
        expensive = MapOperator("m", lambda r: r)
        assert model.cost_per_record(cheap) > 0
        assert model.cost_per_record(expensive) > model.cost_per_record(cheap)

    def test_name_spec_overrides_kind(self):
        model = CostModel()
        model.set_operator_spec("f", OperatorCostSpec(cpu_per_record=42.0))
        op = FilterOperator("f", lambda r: True)
        assert model.cost_per_record(op) == pytest.approx(42.0)

    def test_cost_hint_scales_cost(self):
        model = CostModel()
        cheap = MapOperator("a", lambda r: r, cost_hint=1.0)
        pricey = MapOperator("b", lambda r: r, cost_hint=3.0)
        assert model.cost_per_record(pricey) == pytest.approx(
            3.0 * model.cost_per_record(cheap)
        )

    def test_batch_cost_scales_linearly(self):
        model = CostModel()
        op = FilterOperator("f", lambda r: True)
        assert model.batch_cost(op, 100) == pytest.approx(100 * model.cost_per_record(op))

    def test_batch_cost_rejects_negative_count(self):
        with pytest.raises(ConfigurationError):
            CostModel().batch_cost(FilterOperator("f", lambda r: True), -1)

    def test_window_is_free_by_default(self):
        query = s2s_probe_query()
        assert CostModel().cost_per_record(query.operators[0]) == 0.0


class TestContextDependentCosts:
    def test_join_cost_grows_with_table_size(self):
        small_table = IpToTorTable.dense(500)
        big_table = IpToTorTable.dense(5000)
        query_small = t2t_probe_query(table=small_table)
        model = t2t_cost_model(query_small)
        join = query_small.operators[2]
        cost_small = model.cost_per_record(join)
        join.table = big_table
        cost_big = model.cost_per_record(join)
        assert cost_big > cost_small

    def test_group_cost_term_grows_with_group_count(self):
        model = CostModel()
        query = s2s_probe_query()
        gr = query.operators[2]
        base = model.cost_per_record(gr)
        from repro.query.records import PingmeshRecord

        gr.process([PingmeshRecord(0.0, 1, i, 1.0) for i in range(1000)])
        assert model.cost_per_record(gr) > base

    def test_cost_depends_on_state_exactly_when_the_group_term_applies(self):
        query = s2s_probe_query()
        window, filter_op, gr = query.operators
        defaults = CostModel()
        assert defaults.cost_depends_on_state(gr)
        assert not defaults.cost_depends_on_state(filter_op)
        assert not defaults.cost_depends_on_state(window)
        calibrated = s2s_cost_model(query)
        assert not any(
            calibrated.cost_depends_on_state(op) for op in (window, filter_op, gr)
        )
        grouped = calibrate_cost_model(
            [window, filter_op, gr],
            cpu_fractions={"filter": 0.13, "group_aggregate": 0.8},
            input_records_per_second=1000.0,
            group_log_cost_fraction=0.2,
        )
        assert grouped.cost_depends_on_state(gr)
        assert not grouped.cost_depends_on_state(filter_op)


class TestCalibration:
    def test_s2s_calibration_matches_paper_fractions(self):
        """At the reference rate the paper's CPU percentages must hold."""
        rate = 1000.0
        query = s2s_probe_query()
        model = s2s_cost_model(query, reference_records_per_second=rate)
        operators = query.operators
        window, filt, gr = operators
        assert model.cost_per_record(window) == 0.0
        # Filter: 13% of a core when processing the full input rate.
        assert model.cost_per_record(filt) * rate == pytest.approx(0.13, rel=0.01)
        # G+R: 80% of a core when processing all of the filter's output (86%).
        assert model.cost_per_record(gr) * rate * 0.86 == pytest.approx(0.80, rel=0.01)

    def test_full_query_cost_near_93_percent(self):
        rate = 1000.0
        query = s2s_probe_query()
        model = s2s_cost_model(query, reference_records_per_second=rate)
        operators = query.operators
        full = model.pipeline_full_cost_fraction(operators, rate, [1.0, 0.86, 0.3])
        assert full == pytest.approx(0.93, rel=0.02)

    def test_t2t_query_exceeds_one_core(self):
        """The paper notes T2TProbe needs more than one core end to end."""
        rate = 1000.0
        table = IpToTorTable.dense(500)
        query = t2t_probe_query(table=table)
        model = t2t_cost_model(query, reference_records_per_second=rate, table=table)
        operators = query.operators
        full = model.pipeline_full_cost_fraction(
            operators, rate, [1.0, 0.86, 1.0, 1.0, 0.1]
        )
        assert full > 1.0

    def test_calibrate_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            calibrate_cost_model([], {}, input_records_per_second=0.0)

    def test_pipeline_full_cost_validates_lengths(self):
        model = CostModel()
        with pytest.raises(ConfigurationError):
            model.pipeline_full_cost_fraction(
                [FilterOperator("f", lambda r: True)], 100.0, [1.0, 0.5]
            )

    def test_calibration_scale_invariance(self):
        """Costs calibrate per record: halving the rate halves per-epoch cost."""
        query = s2s_probe_query()
        model = s2s_cost_model(query, reference_records_per_second=1000.0)
        filt = query.operators[1]
        per_record = model.cost_per_record(filt)
        assert per_record * 500.0 == pytest.approx(0.065, rel=0.01)
