"""Unit tests for the stream-processor node and CPU budget schedules."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.simulation.node import (
    BudgetSchedule,
    StreamProcessorNode,
    as_budget_schedule,
)
from repro.workloads.dynamics import ResourceDynamics


class TestBudgetSchedule:
    def test_constant_schedule(self):
        schedule = BudgetSchedule.constant(0.6)
        assert schedule.budget_at(0) == 0.6
        assert schedule.budget_at(1000) == 0.6
        assert schedule.change_epochs() == []

    def test_step_schedule_matches_figure_8a(self):
        schedule = BudgetSchedule([(0, 0.10), (3, 0.90), (18, 0.60)])
        assert schedule.budget_at(0) == 0.10
        assert schedule.budget_at(2) == 0.10
        assert schedule.budget_at(3) == 0.90
        assert schedule.budget_at(17) == 0.90
        assert schedule.budget_at(18) == 0.60
        assert schedule.change_epochs() == [3, 18]

    def test_breakpoints_are_sorted_automatically(self):
        schedule = BudgetSchedule([(5, 0.5), (0, 1.0)])
        assert schedule.budget_at(0) == 1.0
        assert schedule.budget_at(5) == 0.5

    def test_requires_epoch_zero_breakpoint(self):
        with pytest.raises(ConfigurationError):
            BudgetSchedule([(2, 0.5)])

    def test_rejects_negative_budgets_and_epochs(self):
        with pytest.raises(ConfigurationError):
            BudgetSchedule([(0, -0.5)])
        schedule = BudgetSchedule.constant(1.0)
        with pytest.raises(ConfigurationError):
            schedule.budget_at(-1)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            BudgetSchedule([])

    def test_schedule_is_callable(self):
        schedule = BudgetSchedule.constant(0.4)
        assert schedule(7) == 0.4

    def test_as_budget_schedule_coercions(self):
        assert as_budget_schedule(0.5).budget_at(10) == 0.5
        assert as_budget_schedule([(0, 0.1), (5, 0.9)]).budget_at(6) == 0.9
        original = BudgetSchedule.constant(0.3)
        assert as_budget_schedule(original) is original


class TestResourceDynamics:
    def test_bursty_foreground(self):
        schedule = ResourceDynamics.bursty_foreground(
            baseline=0.8, burst_budget=0.2, period_epochs=10, burst_epochs=3,
            num_epochs=30, start_offset=5,
        )
        assert schedule.budget_at(0) == 0.8
        assert schedule.budget_at(5) == 0.2
        assert schedule.budget_at(7) == 0.2
        assert schedule.budget_at(8) == 0.8
        assert schedule.budget_at(15) == 0.2

    def test_bursty_foreground_validation(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            ResourceDynamics.bursty_foreground(0.8, 0.2, period_epochs=2, burst_epochs=5, num_epochs=10)


class TestNodes:
    def test_stream_processor_defaults(self):
        sp = StreamProcessorNode()
        assert sp.cores == 64
        assert sp.compute_capacity_per_epoch(1.0) == 64.0

    def test_stream_processor_validation(self):
        with pytest.raises(ConfigurationError):
            StreamProcessorNode(cores=0)
        with pytest.raises(ConfigurationError):
            StreamProcessorNode(ingress_bandwidth_mbps=0.0)
        with pytest.raises(ConfigurationError):
            StreamProcessorNode().compute_capacity_per_epoch(0.0)
