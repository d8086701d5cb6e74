"""Unit tests for the LP formulation of the data-level partitioning problem."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.analysis.experiments import make_setup, make_strategy
from repro.core import lp_solver, stepwise_adapt
from repro.core.lp_solver import (
    clear_plan_cache,
    cumulative_relay,
    plan_cpu_fraction,
    plan_drain_fraction,
    solve_data_level_lp,
)
from repro.core.profiler import OperatorProfile, PipelineProfile
from repro.errors import PartitioningError, SolverError
from repro.simulation.multisource import (
    MultiSourceConfig,
    MultiSourceExecutor,
    homogeneous_sources,
)


def make_profile(costs, relays, budget, records=1000.0):
    operators = [
        OperatorProfile(
            name=f"op{i}",
            cost_per_record=c,
            relay_ratio=r,
            records_observed=1000,
            trusted=True,
        )
        for i, (c, r) in enumerate(zip(costs, relays))
    ]
    return PipelineProfile(
        operators=operators,
        compute_budget=budget,
        records_per_epoch=records,
        epoch_duration_s=1.0,
    )


def s2s_like_profile(budget):
    """Costs/relays shaped like the paper's S2SProbe query at 1000 rec/s."""
    costs = [0.0, 0.13 / 1000.0, 0.80 / 860.0]
    relays = [1.0, 0.86, 0.30]
    return make_profile(costs, relays, budget)


class TestHelpers:
    def test_cumulative_relay(self):
        assert cumulative_relay([0.5, 0.5, 1.0]) == pytest.approx([1.0, 0.5, 0.25])

    def test_plan_cpu_fraction_full_load(self):
        profile = s2s_like_profile(1.0)
        cpu = plan_cpu_fraction([1.0, 1.0, 1.0], profile.costs, profile.relay_ratios, 1000.0)
        assert cpu == pytest.approx(0.93, rel=0.02)

    def test_plan_drain_fraction_zero_when_everything_local(self):
        assert plan_drain_fraction([1.0, 1.0, 1.0], [1.0, 0.86, 0.3]) == pytest.approx(0.0)

    def test_plan_drain_fraction_one_when_everything_drained(self):
        assert plan_drain_fraction([0.0, 0.0, 0.0], [1.0, 0.86, 0.3]) == pytest.approx(1.0)


class TestSolve:
    def test_generous_budget_keeps_everything_local(self):
        plan = solve_data_level_lp(s2s_like_profile(1.0))
        assert plan.load_factors == pytest.approx([1.0, 1.0, 1.0], abs=1e-6)
        assert plan.expected_drain_fraction == pytest.approx(0.0, abs=1e-6)

    def test_zero_budget_drains_everything(self):
        plan = solve_data_level_lp(s2s_like_profile(0.0))
        assert plan.solver == "zero"
        assert plan.expected_drain_fraction == pytest.approx(1.0)
        assert all(p == 0.0 for p in plan.load_factors)

    def test_constrained_budget_respects_cpu_constraint(self):
        profile = s2s_like_profile(0.6)
        plan = solve_data_level_lp(profile)
        assert plan.expected_cpu_fraction <= 0.6 + 1e-6
        # Cheap filter should run fully; the expensive G+R partially.
        assert plan.load_factors[1] == pytest.approx(1.0, abs=1e-6)
        assert 0.3 < plan.load_factors[2] < 0.9

    def test_partial_plan_beats_operator_level_on_drain(self):
        """Data-level plans drain strictly less than the best all-or-nothing plan."""
        profile = s2s_like_profile(0.6)
        plan = solve_data_level_lp(profile)
        # Operator-level best at 0.6 budget: run window+filter only.
        operator_level_drain = plan_drain_fraction([1.0, 1.0, 0.0], profile.relay_ratios)
        assert plan.expected_drain_fraction < operator_level_drain

    def test_monotone_effective_factors(self):
        plan = solve_data_level_lp(s2s_like_profile(0.45))
        effective = plan.effective_load_factors
        assert all(effective[i] >= effective[i + 1] - 1e-9 for i in range(len(effective) - 1))

    def test_drain_decreases_with_budget(self):
        drains = [
            solve_data_level_lp(s2s_like_profile(budget)).expected_drain_fraction
            for budget in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(drains[i] >= drains[i + 1] - 1e-9 for i in range(len(drains) - 1))

    def test_budget_override_argument(self):
        profile = s2s_like_profile(1.0)
        plan = solve_data_level_lp(profile, compute_budget=0.2)
        assert plan.expected_cpu_fraction <= 0.2 + 1e-6

    def test_empty_profile_rejected(self):
        with pytest.raises(SolverError):
            solve_data_level_lp(make_profile([], [], 1.0))

    def test_negative_costs_rejected_at_profile_construction(self):
        from repro.errors import PartitioningError

        with pytest.raises(PartitioningError):
            make_profile([-1.0], [0.5], 1.0)

    def test_zero_cost_operators_get_full_load(self):
        plan = solve_data_level_lp(make_profile([0.0, 0.0], [1.0, 0.5], 0.5))
        assert plan.load_factors == pytest.approx([1.0, 1.0])

    def test_plan_len(self):
        assert len(solve_data_level_lp(s2s_like_profile(0.5))) == 3


class TestFallback:
    def test_fallback_is_feasible(self):
        from repro.core import lp_solver

        profile = s2s_like_profile(0.6)
        upstream = lp_solver.cumulative_relay(profile.relay_ratios)
        effective = lp_solver._fallback_effective(
            profile.costs, profile.relay_ratios, upstream, 0.6 / 1000.0
        )
        cpu = plan_cpu_fraction(effective, profile.costs, profile.relay_ratios, 1000.0)
        assert cpu <= 0.6 + 1e-6
        assert all(effective[i] >= effective[i + 1] - 1e-9 for i in range(len(effective) - 1))

    def test_fallback_is_uniform_and_positive_under_partial_budget(self):
        from repro.core import lp_solver

        costs = [0.5 / 1000.0, 0.5 / 1000.0]
        relays = [0.9, 0.1]
        upstream = lp_solver.cumulative_relay(relays)
        effective = lp_solver._fallback_effective(costs, relays, upstream, 0.5 / 1000.0)
        assert effective[0] == pytest.approx(effective[1])
        assert 0.0 < effective[0] < 1.0

    def test_fallback_saturates_at_one_with_generous_budget(self):
        from repro.core import lp_solver

        effective = lp_solver._fallback_effective(
            [1e-5, 1e-5], [1.0, 1.0], [1.0, 1.0], 1.0
        )
        assert effective == [1.0, 1.0]


def unchecked_profile(costs, relays, budget=0.5, records=1000.0, epoch=1.0):
    """A profile whose operators bypass :class:`OperatorProfile` validation."""
    operators = [
        SimpleNamespace(name=f"op{i}", cost_per_record=c, relay_ratio=r)
        for i, (c, r) in enumerate(zip(costs, relays))
    ]
    return PipelineProfile(
        operators=operators,
        compute_budget=budget,
        records_per_epoch=records,
        epoch_duration_s=epoch,
    )


def plan_bits(plan):
    """Every field of a plan, floats as their exact bit pattern."""
    return (
        [x.hex() for x in plan.load_factors],
        [x.hex() for x in plan.effective_load_factors],
        float(plan.expected_cpu_fraction).hex(),
        float(plan.expected_drain_fraction).hex(),
        plan.solver,
        plan.status,
        dict(plan.metadata),
    )


@pytest.fixture
def solve_calls(monkeypatch):
    """Count the HiGHS solves that actually run, starting from an empty memo."""
    clear_plan_cache()
    calls = []
    original = lp_solver._solve_with_linprog

    def counting(costs, relays, upstream, per_record_budget, records, epoch):
        calls.append(
            (
                tuple(c.hex() for c in costs),
                tuple(r.hex() for r in relays),
                per_record_budget.hex(),
                records.hex(),
                epoch.hex(),
            )
        )
        return original(costs, relays, upstream, per_record_budget, records, epoch)

    monkeypatch.setattr(lp_solver, "_solve_with_linprog", counting)
    yield calls
    clear_plan_cache()


class TestNonFiniteInputs:
    @pytest.fixture(autouse=True)
    def no_solver(self, monkeypatch):
        clear_plan_cache()

        def fail(*args):
            raise AssertionError("non-finite inputs must not reach HiGHS")

        monkeypatch.setattr(lp_solver, "_solve_with_linprog", fail)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_cost_rejected(self, bad):
        with pytest.raises(SolverError, match="costs"):
            solve_data_level_lp(unchecked_profile([1e-4, bad], [1.0, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_relay_rejected(self, bad):
        with pytest.raises(SolverError, match="relay_ratios"):
            solve_data_level_lp(unchecked_profile([1e-4, 1e-4], [bad, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_compute_budget_rejected(self, bad):
        with pytest.raises(SolverError, match="compute_budget"):
            solve_data_level_lp(s2s_like_profile(bad))
        with pytest.raises(SolverError, match="compute_budget"):
            solve_data_level_lp(s2s_like_profile(0.5), compute_budget=bad)

    def test_nan_budget_is_not_a_zero_budget_plan(self):
        # max(0.0, nan) is 0.0: without the guard this returned solver="zero".
        with pytest.raises(SolverError):
            solve_data_level_lp(s2s_like_profile(math.nan))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_records_per_epoch_rejected(self, bad):
        with pytest.raises(SolverError, match="records_per_epoch"):
            solve_data_level_lp(unchecked_profile([1e-4], [0.5], records=bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_epoch_duration_rejected(self, bad):
        with pytest.raises(SolverError, match="epoch_duration_s"):
            solve_data_level_lp(unchecked_profile([1e-4], [0.5], epoch=bad))

    @pytest.mark.parametrize("field", ["cost_per_record", "relay_ratio"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_operator_profile_rejects_non_finite(self, field, bad):
        values = {"cost_per_record": 1e-4, "relay_ratio": 0.5, field: bad}
        with pytest.raises(PartitioningError, match=field):
            OperatorProfile(name="op", records_observed=10, trusted=True, **values)


class TestPlanMemo:
    def test_hit_equals_fresh_solve(self, solve_calls):
        first = solve_data_level_lp(s2s_like_profile(0.6))
        hit = solve_data_level_lp(s2s_like_profile(0.6))
        assert len(solve_calls) == 1
        clear_plan_cache()
        fresh = solve_data_level_lp(s2s_like_profile(0.6))
        assert len(solve_calls) == 2
        assert first.solver == "lp"
        assert plan_bits(hit) == plan_bits(fresh) == plan_bits(first)
        assert hit == fresh

    def test_mutating_a_plan_does_not_poison_later_hits(self, solve_calls):
        first = solve_data_level_lp(s2s_like_profile(0.6))
        expected = plan_bits(first)
        first.load_factors[2] = 99.0
        first.effective_load_factors.clear()
        first.metadata["poisoned"] = True
        hit = solve_data_level_lp(s2s_like_profile(0.6))
        assert len(solve_calls) == 1
        assert plan_bits(hit) == expected
        assert hit.load_factors is not first.load_factors
        assert hit.metadata is not first.metadata

    def test_signed_zero_inputs_are_separate_keys(self, solve_calls):
        positive = solve_data_level_lp(make_profile([0.0, 1e-3], [1.0, 0.5], 0.5))
        negative = solve_data_level_lp(make_profile([-0.0, 1e-3], [1.0, 0.5], 0.5))
        assert len(solve_calls) == 2
        assert solve_calls[0][0][0] == "0x0.0p+0"
        assert solve_calls[1][0][0] == "-0x0.0p+0"
        assert positive.load_factors == negative.load_factors

    def test_budget_and_records_are_part_of_the_key(self, solve_calls):
        profile = s2s_like_profile(0.6)
        solve_data_level_lp(profile)
        solve_data_level_lp(profile, compute_budget=0.5)
        # Same per-record budget C / N_r, but twice the records per epoch.
        solve_data_level_lp(
            make_profile(profile.costs, profile.relay_ratios, 1.2, records=2000.0)
        )
        assert len(solve_calls) == 3
        assert len(set(solve_calls)) == 3

    def test_solver_failure_is_memoized_and_falls_back(self, monkeypatch):
        clear_plan_cache()
        failures = []

        def failing(*args):
            failures.append(args)
            return None

        monkeypatch.setattr(lp_solver, "_solve_with_linprog", failing)
        plans = [solve_data_level_lp(s2s_like_profile(0.6)) for _ in range(3)]
        clear_plan_cache()
        assert len(failures) == 1
        assert all(plan.solver == "fallback" for plan in plans)
        assert plan_bits(plans[0]) == plan_bits(plans[2])

    def test_fallback_path_without_scipy_is_unaffected(self, monkeypatch, solve_calls):
        monkeypatch.setattr(lp_solver, "_HAVE_SCIPY", False)
        plans = [solve_data_level_lp(s2s_like_profile(0.6)) for _ in range(2)]
        assert solve_calls == []
        profile = s2s_like_profile(0.6)
        upstream = cumulative_relay(profile.relay_ratios)
        expected = lp_solver._fallback_effective(
            profile.costs, profile.relay_ratios, upstream, 0.6 / 1000.0
        )
        for plan in plans:
            assert plan.solver == "fallback"
            assert plan.effective_load_factors == expected

    def test_homogeneous_fleet_solves_each_key_once(self, monkeypatch, solve_calls):
        setup = make_setup("s2s_probe", records_per_epoch=120)

        def run():
            sources = homogeneous_sources(
                64,
                workload_factory=lambda i: setup.workload_factory(10 + i),
                strategy_factory=lambda i: make_strategy("Jarvis", setup, 0.3),
                budget=0.3,
            )
            executor = MultiSourceExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=sources,
                cluster_config=MultiSourceConfig(
                    config=setup.config, record_mode="arena"
                ),
            )
            return [executor.run_epoch() for _ in range(10)]

        lp_requests = []
        original = stepwise_adapt.solve_data_level_lp

        def recording(profile, compute_budget=None):
            lp_requests.append(compute_budget)
            return original(profile, compute_budget=compute_budget)

        monkeypatch.setattr(stepwise_adapt, "solve_data_level_lp", recording)
        memoized = run()
        assert len(solve_calls) == len(set(solve_calls))
        # The fleet is homogeneous enough that the memo is actually hit.
        assert 0 < len(solve_calls) < len(lp_requests)

        def uncached(profile, compute_budget=None):
            clear_plan_cache()
            return original(profile, compute_budget=compute_budget)

        monkeypatch.setattr(stepwise_adapt, "solve_data_level_lp", uncached)
        solves_before = len(solve_calls)
        reference = run()
        assert len(solve_calls) - solves_before == len(lp_requests)
        assert memoized == reference
