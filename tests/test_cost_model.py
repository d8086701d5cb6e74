"""Unit tests for the operator cost model and its calibration helper."""

from __future__ import annotations

import pytest

from repro.baselines.base import static_profile
from repro.errors import ConfigurationError, QueryDefinitionError
from repro.query.builder import Stream, s2s_probe_query, t2t_probe_query
from repro.query.operators import FilterOperator, MapOperator
from repro.query.records import IpToTorTable
from repro.simulation.cost_model import (
    CostModel,
    OperatorCostSpec,
    calibrate_cost_model,
)
from repro.workloads.pingmesh import s2s_cost_model, t2t_cost_model

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestOperatorCostSpec:
    def test_rejects_negative_cost(self):
        with pytest.raises(ConfigurationError):
            OperatorCostSpec(cpu_per_record=-1.0)

    def test_rejects_bad_ref_table_size(self):
        with pytest.raises(ConfigurationError):
            OperatorCostSpec(cpu_per_record=1.0, ref_table_size=0)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "name", ["cpu_per_record", "table_scale_exp", "ref_table_size"]
    )
    def test_rejects_non_finite_values(self, name: str, value: float) -> None:
        # A NaN or infinite per-record cost would turn the CPU-budget cut
        # into a garbage record count and the stage's CPU into NaN.
        with pytest.raises(ConfigurationError, match=name):
            OperatorCostSpec(**{"cpu_per_record": 1e-6, name: value})


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

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_stream_refuses_a_non_finite_cost_hint(self, value: float) -> None:
        # The hint scales the per-record cost, so it must be finite too.
        with pytest.raises(QueryDefinitionError, match="cost_hint"):
            Stream("q").window(10.0).filter(lambda r: True, cost_hint=value)


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
        profile = static_profile(
            query.operators, model, [1.0, 0.86, 0.3], rate, compute_budget=1.0
        )
        assert profile.full_cost_fraction() == pytest.approx(0.93, rel=0.02)

    def test_t2t_query_exceeds_one_core(self):
        """The paper notes T2TProbe needs more than one core end to end."""
        rate = 1000.0
        table = IpToTorTable.dense(500)
        query = t2t_probe_query(table=table)
        model = t2t_cost_model(query, reference_records_per_second=rate, table=table)
        profile = static_profile(
            query.operators, model, [1.0, 0.86, 1.0, 1.0, 0.1], rate, compute_budget=1.0
        )
        assert profile.full_cost_fraction() > 1.0

    def test_calibrate_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            calibrate_cost_model([], {}, input_records_per_second=0.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_calibrate_rejects_a_non_finite_rate(self, value: float) -> None:
        with pytest.raises(ConfigurationError, match="input_records_per_second"):
            calibrate_cost_model([], {}, input_records_per_second=value)

    def test_calibration_scale_invariance(self):
        """Costs calibrate per record: halving the rate halves per-epoch cost."""
        query = s2s_probe_query()
        model = s2s_cost_model(query, reference_records_per_second=1000.0)
        filt = query.operators[1]
        per_record = model.cost_per_record(filt)
        assert per_record * 500.0 == pytest.approx(0.065, rel=0.01)
