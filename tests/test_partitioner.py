"""Unit tests for operator-level partitioning (Eq. 1 utilities)."""

from __future__ import annotations

import pytest

from repro.core.partitioner import (
    OperatorLevelPartitioner,
    boundary_to_load_factors,
    operator_level_boundary,
    prefix_cpu_fractions,
)
from repro.core.profiler import OperatorProfile, PipelineProfile
from repro.errors import PartitioningError


def profile(costs, relays, budget, records=1000.0):
    ops = [
        OperatorProfile(f"op{i}", c, r, 1000, True)
        for i, (c, r) in enumerate(zip(costs, relays))
    ]
    return PipelineProfile(ops, compute_budget=budget, records_per_epoch=records)


def s2s_profile(budget):
    return profile([0.0, 0.13 / 1000, 0.80 / 860], [1.0, 0.86, 0.3], budget)


class TestPrefixCosts:
    def test_prefix_costs_are_cumulative(self):
        fractions = prefix_cpu_fractions(s2s_profile(1.0))
        assert fractions[0] == 0.0
        assert fractions[1] == pytest.approx(0.0)
        assert fractions[2] == pytest.approx(0.13, rel=0.01)
        assert fractions[3] == pytest.approx(0.93, rel=0.02)

    def test_prefix_costs_non_decreasing(self):
        fractions = prefix_cpu_fractions(s2s_profile(1.0))
        assert all(fractions[i] <= fractions[i + 1] + 1e-12 for i in range(len(fractions) - 1))


class TestBoundarySelection:
    def test_generous_budget_takes_whole_pipeline(self):
        assert operator_level_boundary(s2s_profile(1.0)) == 3

    def test_tight_budget_takes_only_cheap_prefix(self):
        # 60% of a core fits W+F (13%) but not W+F+G+R (93%).
        assert operator_level_boundary(s2s_profile(0.60)) == 2

    def test_zero_budget_takes_free_operators_only(self):
        assert operator_level_boundary(s2s_profile(0.0)) == 1  # the free window op

    def test_budget_override(self):
        assert operator_level_boundary(s2s_profile(1.0), compute_budget=0.2) == 2

    def test_offload_limit_caps_boundary(self):
        assert operator_level_boundary(s2s_profile(1.0), offload_limit=1) == 1

    def test_negative_budget_rejected(self):
        with pytest.raises(PartitioningError):
            operator_level_boundary(s2s_profile(1.0), compute_budget=-0.1)


class TestLoadFactorConversion:
    def test_boundary_to_load_factors(self):
        assert boundary_to_load_factors(2, 4) == [1.0, 1.0, 0.0, 0.0]
        assert boundary_to_load_factors(0, 3) == [0.0, 0.0, 0.0]
        assert boundary_to_load_factors(3, 3) == [1.0, 1.0, 1.0]

    def test_out_of_range_boundary_rejected(self):
        with pytest.raises(PartitioningError):
            boundary_to_load_factors(5, 3)
        with pytest.raises(PartitioningError):
            boundary_to_load_factors(-1, 3)


class TestOperatorLevelPartitioner:
    def test_solve_reports_boundary_and_cost(self):
        plan = OperatorLevelPartitioner().solve(s2s_profile(0.6))
        assert plan.boundary == 2
        assert plan.load_factors == [1.0, 1.0, 0.0]
        assert plan.local_cpu_fraction == pytest.approx(0.13, rel=0.02)
