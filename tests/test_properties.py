"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core.control_proxy import (
    effective_load_factors,
    load_factors_from_effective,
    route_counts,
)
from repro.core.lp_solver import (
    cumulative_relay,
    plan_cpu_fraction,
    plan_drain_fraction,
    solve_data_level_lp,
)
from repro.core.partitioner import boundary_to_load_factors, operator_level_boundary
from repro.core.profiler import OperatorProfile, PipelineProfile
from repro.core.state import (
    OPERATOR_STATES,
    OperatorState,
    QueryState,
    classify_query_state,
    classify_query_states,
)
from repro.query.aggregates import AvgAggregate, MaxAggregate, MinAggregate, SumAggregate
from repro.simulation.network import NetworkLink


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

load_factors_st = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=6
)

relays_st = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=1, max_size=5
)

costs_st = st.lists(
    st.floats(min_value=0.0, max_value=1e-3, allow_nan=False), min_size=1, max_size=5
)

values_st = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


def make_profile(costs, relays, budget):
    n = min(len(costs), len(relays))
    operators = [
        OperatorProfile(f"op{i}", costs[i], relays[i], 1000, True) for i in range(n)
    ]
    return PipelineProfile(operators, compute_budget=budget, records_per_epoch=1000.0)


# ---------------------------------------------------------------------------
# Load factor algebra
# ---------------------------------------------------------------------------


class TestLoadFactorProperties:
    @given(load_factors_st)
    def test_effective_factors_are_monotone_and_bounded(self, factors):
        effective = effective_load_factors(factors)
        assert all(0.0 <= e <= 1.0 for e in effective)
        assert all(effective[i] >= effective[i + 1] for i in range(len(effective) - 1))

    @given(load_factors_st)
    def test_effective_round_trip(self, factors):
        effective = effective_load_factors(factors)
        recovered = load_factors_from_effective(effective)
        # Where the effective factor upstream is zero, the original p is lost
        # (anything times zero is zero); compare the effective vectors instead.
        assert effective_load_factors(recovered) == [
            0.0 if e < 1e-12 else e for e in effective
        ] or all(
            math.isclose(a, b, abs_tol=1e-9)
            for a, b in zip(effective_load_factors(recovered), effective)
        )

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=1.0))
    def test_proxy_routing_conserves_records(self, incoming, load_factor):
        (forwarded,) = route_counts(
            np.array([load_factor]), np.array([incoming])
        ).tolist()
        assert 0 <= forwarded <= incoming


# ---------------------------------------------------------------------------
# LP solver invariants
# ---------------------------------------------------------------------------


class TestLPSolverProperties:
    @settings(max_examples=40, deadline=None)
    @given(costs_st, relays_st, st.floats(min_value=0.0, max_value=2.0))
    def test_plans_are_feasible_and_monotone(self, costs, relays, budget):
        n = min(len(costs), len(relays))
        assume(n >= 1)
        profile = make_profile(costs[:n], relays[:n], budget)
        plan = solve_data_level_lp(profile)
        assert len(plan.load_factors) == n
        assert all(0.0 <= p <= 1.0 for p in plan.load_factors)
        effective = plan.effective_load_factors
        assert all(effective[i] >= effective[i + 1] - 1e-6 for i in range(n - 1))
        # The plan never exceeds the budget it was given (up to solver
        # tolerance).  The LP's own feasibility slack is ~1e-6, so the
        # reported fraction can legitimately sit a float ulp beyond
        # ``budget + 1e-6``; allow a little headroom on top of the slack.
        assert plan.expected_cpu_fraction <= budget + 5e-6

    @settings(max_examples=40, deadline=None)
    @given(costs_st, relays_st, st.floats(min_value=0.0, max_value=2.0))
    def test_drain_fraction_within_bounds(self, costs, relays, budget):
        n = min(len(costs), len(relays))
        assume(n >= 1)
        profile = make_profile(costs[:n], relays[:n], budget)
        plan = solve_data_level_lp(profile)
        assert -1e-9 <= plan.expected_drain_fraction <= 1.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(costs_st, relays_st,
           st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.05, max_value=1.0))
    def test_more_budget_never_increases_drain(self, costs, relays, b1, b2):
        n = min(len(costs), len(relays))
        assume(n >= 1)
        low, high = sorted((b1, b2))
        drain_low = solve_data_level_lp(make_profile(costs[:n], relays[:n], low)).expected_drain_fraction
        drain_high = solve_data_level_lp(make_profile(costs[:n], relays[:n], high)).expected_drain_fraction
        assert drain_high <= drain_low + 1e-6

    @given(relays_st)
    def test_cumulative_relay_is_non_increasing(self, relays):
        cumulative = cumulative_relay(relays)
        assert all(cumulative[i] >= cumulative[i + 1] - 1e-12 for i in range(len(cumulative) - 1))
        assert cumulative[0] == 1.0


# ---------------------------------------------------------------------------
# Operator-level partitioning invariants
# ---------------------------------------------------------------------------


class TestPartitionerProperties:
    @settings(max_examples=40, deadline=None)
    @given(costs_st, relays_st, st.floats(min_value=0.0, max_value=2.0))
    def test_boundary_prefix_always_fits_budget(self, costs, relays, budget):
        n = min(len(costs), len(relays))
        assume(n >= 1)
        profile = make_profile(costs[:n], relays[:n], budget)
        boundary = operator_level_boundary(profile)
        assert 0 <= boundary <= n
        factors = boundary_to_load_factors(boundary, n)
        effective = effective_load_factors(factors)
        cpu = plan_cpu_fraction(effective, profile.costs, profile.relay_ratios, 1000.0)
        assert cpu <= budget + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(costs_st, relays_st, st.floats(min_value=0.05, max_value=1.0))
    def test_data_level_plan_never_drains_more_than_operator_level(self, costs, relays, budget):
        """Data-level partitioning dominates operator-level partitioning."""
        n = min(len(costs), len(relays))
        assume(n >= 1)
        profile = make_profile(costs[:n], relays[:n], budget)
        boundary = operator_level_boundary(profile)
        op_level = plan_drain_fraction(
            effective_load_factors(boundary_to_load_factors(boundary, n)),
            profile.relay_ratios,
        )
        data_level = solve_data_level_lp(profile).expected_drain_fraction
        assert data_level <= op_level + 1e-6


# ---------------------------------------------------------------------------
# Aggregates: merge == union
# ---------------------------------------------------------------------------


class TestAggregateProperties:
    @settings(max_examples=60, deadline=None)
    @given(values_st, st.integers(min_value=0, max_value=59))
    def test_merge_equals_union_for_all_basic_aggregates(self, values, split_at):
        split = min(split_at, len(values))
        left, right = values[:split], values[split:]
        for agg_cls in (SumAggregate, AvgAggregate, MinAggregate, MaxAggregate):
            agg = agg_cls("x")
            state_l = agg.create()
            for v in left:
                state_l = agg.add(state_l, v)
            state_r = agg.create()
            for v in right:
                state_r = agg.add(state_r, v)
            merged = agg.merge(state_l, state_r)
            whole = agg.create()
            for v in values:
                whole = agg.add(whole, v)
            a, b = agg.result(merged), agg.result(whole)
            if math.isnan(a) or math.isnan(b):
                assert math.isnan(a) and math.isnan(b)
            else:
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# Query-state classification and network conservation
# ---------------------------------------------------------------------------


class TestMiscProperties:
    @given(st.lists(st.sampled_from(list(OperatorState)), min_size=1, max_size=8))
    def test_classification_matches_paper_rule(self, states):
        result = classify_query_state(states)
        if any(s is OperatorState.CONGESTED for s in states):
            assert result is QueryState.CONGESTED
        elif all(s is OperatorState.IDLE for s in states):
            assert result is QueryState.IDLE
        else:
            assert result is QueryState.STABLE

    @given(
        st.lists(
            st.lists(st.sampled_from(list(OperatorState)), min_size=3, max_size=3),
            min_size=1,
            max_size=8,
        )
    )
    def test_block_classification_matches_the_one_source_rule(self, sources):
        """The accountant's block form classifies every source as the
        runtime's one-source rule does."""
        codes = np.array(
            [[OPERATOR_STATES.index(state) for state in states] for states in sources]
        ).T
        assert classify_query_states(codes) == [
            classify_query_state(states) for states in sources
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_network_link_conserves_bytes(self, offers, bandwidth):
        link = NetworkLink(bandwidth_mbps=bandwidth)
        total_sent = 0.0
        for offered in offers:
            link.offer(offered)
            total_sent += link.transmit_epoch().sent_bytes
        assert total_sent + link.queued_bytes == (
            sum(offers)
        ) or math.isclose(total_sent + link.queued_bytes, sum(offers), rel_tol=1e-9)
        assert link.queued_bytes >= 0.0
