"""Integration tests for the experiment harness (small-scale versions).

The single-source figures run through :mod:`repro.analysis.experiments`; the
cluster figures (10 and 11) run as dict-shaped scenario specs through
:class:`repro.scenarios.ScenarioRunner`, the one entry point they have.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    adaptation_overhead,
    convergence_run,
    make_setup,
    operator_count_convergence,
    partitioning_mode_comparison,
    reset_jarvis_plan,
    swap_join_table,
    synopsis_comparison,
    throughput_sweep,
)
from repro.analysis.reporting import (
    format_table,
    series_table,
    speedup_table,
    summarize_sweep,
)
from repro.core import lp_solver
from repro.errors import ConfigurationError
from repro.query.records import IpToTorTable
from repro.scenarios import ScenarioRunner, spec_from_dict
from repro.simulation.node import BudgetSchedule

RPE = 200  # records per epoch for fast integration runs


class TestSetups:
    def test_make_setup_rejects_unknown_query(self):
        with pytest.raises(ConfigurationError):
            make_setup("nope")

    def test_setup_relays_measured(self, s2s_setup):
        assert len(s2s_setup.byte_relays) == 3
        assert s2s_setup.byte_relays[1] == pytest.approx(0.86, abs=0.05)
        assert s2s_setup.count_relays[1] == pytest.approx(0.86, abs=0.05)
        assert s2s_setup.byte_relays[2] < 0.6

    def test_setup_bandwidth_ratio_matches_paper(self, s2s_setup):
        assert s2s_setup.bandwidth_mbps / s2s_setup.input_rate_mbps == pytest.approx(
            20.48 / 26.2, rel=0.01
        )

    def test_rate_scale_reduces_records(self):
        full = make_setup("s2s_probe", records_per_epoch=RPE, rate_scale=1.0)
        half = make_setup("s2s_probe", records_per_epoch=RPE, rate_scale=0.5)
        assert half.records_per_epoch == RPE // 2
        assert half.input_rate_mbps == pytest.approx(full.input_rate_mbps / 2, rel=0.05)


class TestFigure3:
    def test_data_level_reduces_network_over_operator_level(self, s2s_setup):
        results = partitioning_mode_comparison(
            s2s_setup, budget=0.8, num_epochs=30, warmup_epochs=12
        )
        op_level = results["operator-level"]
        data_level = results["data-level"]
        # Paper: 22.5 Mbps vs 9.4 Mbps (a 2.4x reduction) at an 80% budget.
        assert op_level["network_fraction_of_input"] > 0.7
        assert data_level["network_fraction_of_input"] < 0.55
        assert op_level["network_mbps"] / data_level["network_mbps"] > 1.7
        # Data-level partitioning uses the budget; operator-level leaves it idle.
        assert data_level["cpu_utilization"] > 0.8
        assert op_level["cpu_utilization"] < 0.3


class TestFigure7:
    def test_throughput_sweep_shape(self, s2s_setup):
        sweep = throughput_sweep(
            setup=s2s_setup,
            budgets=(0.4, 0.8),
            strategies=("All-Src", "Best-OP", "Jarvis"),
            num_epochs=25,
            warmup_epochs=10,
        )
        assert set(sweep) == {"All-Src", "Best-OP", "Jarvis"}
        series = summarize_sweep(sweep)
        # Jarvis dominates All-Src under constrained budgets and is at least
        # as good as Best-OP everywhere.
        for budget in (0.4, 0.8):
            assert series["Jarvis"][budget] >= series["All-Src"][budget]
            assert series["Jarvis"][budget] >= 0.95 * series["Best-OP"][budget]
        assert series["Jarvis"][0.4] > 1.5 * series["All-Src"][0.4]


class TestFigure8:
    def test_convergence_run_s2s(self, s2s_setup):
        results = convergence_run(
            setup=s2s_setup,
            strategies=("Jarvis", "w/o LP-init"),
            schedule=BudgetSchedule([(0, 0.10), (3, 0.90)]),
            num_epochs=26,
        )
        jarvis = results["Jarvis"]["convergence_epochs"][3]
        no_lp = results["w/o LP-init"]["convergence_epochs"][3]
        assert jarvis is not None and no_lp is not None
        # LP initialisation converges faster than the pure model-agnostic search.
        assert jarvis <= no_lp
        # Three detection epochs + profile + a handful of fine-tuning epochs.
        assert jarvis <= 13

    def test_event_callbacks_exist(self, t2t_setup):
        table = IpToTorTable.dense(5000)
        swap = swap_join_table(table)
        reset = reset_jarvis_plan()
        assert callable(swap) and callable(reset)


class TestFigure9:
    def test_synopsis_comparison_structure(self):
        results = synopsis_comparison(
            sampling_rates=(0.2, 0.8),
            records_per_epoch=RPE,
            num_windows=1,
            jarvis_budgets=(1.0,),
        )
        assert set(results["sampling"]) == {0.2, 0.8}
        low, high = results["sampling"][0.2], results["sampling"][0.8]
        assert low["network_mbps"] < high["network_mbps"]
        assert low["fraction_within_1ms"] <= high["fraction_within_1ms"]
        assert results["jarvis"][1.0]["accuracy_loss"] == 0.0


def run_scenario(data):
    return ScenarioRunner().run(spec_from_dict(data)).raw


class TestFigure10:
    def test_scaling_sweep_jarvis_supports_more_sources(self):
        supported = run_scenario(
            {
                "scenario": {"name": "f10", "kind": "scaling", "mode": "analytic"},
                "run": {"max_sources_limit": 200},
                "workload": {"records_per_epoch": 400, "rate_scale": 0.5},
                "fleet": {"budget": 0.30},
                "sweep": {"strategies": ["Jarvis", "Best-OP"]},
            }
        )["supported"]
        assert supported["Jarvis"] > supported["Best-OP"]
        # The paper reports ~75% more sources; allow a generous band.
        ratio = supported["Jarvis"] / max(1, supported["Best-OP"])
        assert ratio > 1.4

    def test_scaling_sweep_results_structure(self):
        results = run_scenario(
            {
                "scenario": {"name": "f10", "kind": "scaling", "mode": "analytic"},
                "run": {"epochs": 25, "warmup_epochs": 10, "max_sources_limit": 0},
                "workload": {"records_per_epoch": RPE, "rate_scale": 1.0},
                "fleet": {"budget": 0.55},
                "sweep": {"sources": [1, 16, 64], "strategies": ["Jarvis"]},
            }
        )
        series = results["sweep"]["Jarvis"]
        assert [r.num_sources for r in series] == [1, 16, 64]
        assert series[0].aggregate_throughput_mbps <= series[-1].expected_throughput_mbps
        # Throughput grows with the node count even past saturation.
        assert series[2].aggregate_throughput_mbps > series[0].aggregate_throughput_mbps


class TestFigure11:
    def test_multi_query_saturates_with_core_count(self):
        one_core, two_cores = (
            run_scenario(
                {
                    "scenario": {"name": "f11", "kind": "colocated", "mode": "analytic"},
                    "run": {"epochs": 25, "warmup_epochs": 10},
                    "workload": {"records_per_epoch": RPE, "rate_scale": 1.0},
                    "fleet": {"cores": cores},
                    "sweep": {"queries": [1, 2, 4]},
                }
            )
            for cores in (1, 2)
        )
        # Aggregate throughput is monotone in the query count until saturation,
        # and two cores support strictly more aggregate throughput at 4 queries.
        assert one_core[1]["aggregate_throughput_mbps"] >= one_core[0]["aggregate_throughput_mbps"]
        assert two_cores[2]["aggregate_throughput_mbps"] > one_core[2]["aggregate_throughput_mbps"]


class TestSectionVIC:
    def test_finetune_convergence_grows_with_operator_count(self):
        results = operator_count_convergence(operator_counts=(2, 4), samples_per_count=30)
        assert results[4]["max_iterations"] >= results[2]["max_iterations"]
        assert results[4]["max_iterations"] >= 8

    def test_adaptation_overhead_below_one_percent(self):
        overhead = adaptation_overhead(num_epochs=20, records_per_epoch=RPE)
        assert overhead["core_fraction"] < 0.01

    def test_adaptation_overhead_times_real_solves(self, monkeypatch):
        """Back-to-back measurements each run HiGHS instead of memo hits."""
        solves = []
        original = lp_solver._solve_with_linprog

        def counting(*args):
            solves.append(args)
            return original(*args)

        monkeypatch.setattr(lp_solver, "_solve_with_linprog", counting)
        counts = []
        for _ in range(2):
            adaptation_overhead(num_epochs=20, records_per_epoch=RPE)
            counts.append(len(solves))
        assert 0 < counts[0] < counts[1]
        assert counts[1] == 2 * counts[0]


class TestReporting:
    def test_format_table_alignment_and_validation(self):
        table = format_table(["a", "b"], [[1, 2.5], ["x", 3.14159]])
        assert "a" in table and "x" in table
        with pytest.raises(ConfigurationError):
            format_table([], [])
        with pytest.raises(ConfigurationError):
            format_table(["a"], [[1, 2]])

    def test_series_table(self):
        table = series_table({"Jarvis": {0.2: 1.0, 0.4: 2.0}, "Best-OP": {0.2: 0.5}})
        assert "Jarvis" in table and "Best-OP" in table
        with pytest.raises(ConfigurationError):
            series_table({})

    def test_speedup_table_requires_reference(self):
        sweep = {"Jarvis": {0.2: {"throughput_mbps": 2.0}}}
        with pytest.raises(ConfigurationError):
            speedup_table(sweep, reference="Best-OP")
        assert "Jarvis" in speedup_table(sweep, reference="Jarvis")
