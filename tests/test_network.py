"""Unit tests for the bandwidth-limited network model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.simulation.network import (
    NetworkLink,
    max_min_fair_share,
    weighted_max_min_fair_share,
)
from repro.simulation.node import StreamProcessorNode


class TestNetworkLink:
    def test_capacity_conversion(self):
        link = NetworkLink(bandwidth_mbps=8.0, epoch_duration_s=1.0)
        assert link.bytes_per_second == pytest.approx(1e6)
        assert link.capacity_bytes_per_epoch == pytest.approx(1e6)

    def test_under_capacity_transmits_everything(self):
        link = NetworkLink(8.0, 1.0)
        link.offer(500_000)
        result = link.transmit_epoch()
        assert result.sent_bytes == pytest.approx(500_000)
        assert result.queued_bytes == 0.0
        assert result.queue_delay_s == 0.0

    def test_over_capacity_queues_excess(self):
        link = NetworkLink(8.0, 1.0)
        link.offer(1_500_000)
        result = link.transmit_epoch()
        assert result.sent_bytes == pytest.approx(1e6)
        assert result.queued_bytes == pytest.approx(500_000)
        assert result.queue_delay_s == pytest.approx(0.5)

    def test_queue_drains_over_multiple_epochs(self):
        link = NetworkLink(8.0, 1.0)
        link.offer(2_500_000)
        results = [link.transmit_epoch() for _ in range(3)]
        assert results[-1].queued_bytes == 0.0
        assert [result.sent_bytes for result in results] == pytest.approx(
            [1e6, 1e6, 500_000]
        )

    def test_cumulative_counters(self):
        """Offers accumulate in the one queue until an epoch sends them."""
        link = NetworkLink(8.0, 1.0)
        link.offer(100.0)
        link.offer(200.0)
        assert link.queued_bytes == pytest.approx(300.0)
        assert link.transmit_epoch().sent_bytes == pytest.approx(300.0)
        assert link.queued_bytes == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            NetworkLink(0.0)
        with pytest.raises(ConfigurationError):
            NetworkLink(1.0, epoch_duration_s=0.0)

    def test_construction_rejects_degenerate_bandwidth(self):
        """Regression/hardening: transmit_epoch divides by bytes_per_second,
        so zero, negative, and non-finite bandwidths (and epoch durations)
        must raise a loud ConfigurationError at construction instead of a
        latent ZeroDivisionError or NaN-poisoned queue delay mid-run."""
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                NetworkLink(bad)
        for bad in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                NetworkLink(1.0, epoch_duration_s=bad)

    def test_rejects_negative_offer(self):
        link = NetworkLink(1.0)
        with pytest.raises(SimulationError):
            link.offer(-5.0)

    def test_withdraw_moves_queued_bytes_out(self):
        """Live migration pulls a departing source's queued bytes off the
        link without sending them."""
        link = NetworkLink(1.0)
        link.offer(1000.0)
        assert link.transmit_epoch(max_bytes=300.0).sent_bytes == 300.0
        assert link.withdraw(500.0) == 500.0
        assert link.queued_bytes == pytest.approx(200.0)
        assert link.transmit_epoch().sent_bytes == pytest.approx(200.0)

    def test_withdraw_validations(self):
        link = NetworkLink(1.0)
        link.offer(100.0)
        with pytest.raises(SimulationError):
            link.withdraw(-1.0)
        with pytest.raises(SimulationError):
            link.withdraw(200.0)
        # Sub-tolerance float residue clamps instead of going negative.
        assert link.withdraw(100.0 + 1e-9) == pytest.approx(100.0)
        assert link.queued_bytes == 0.0

    def test_sub_second_epochs(self):
        link = NetworkLink(8.0, epoch_duration_s=0.5)
        assert link.capacity_bytes_per_epoch == pytest.approx(500_000)


class TestSharedLink:
    """The stream processor's ingress: one link every source offers into."""

    def test_fair_share(self):
        link = StreamProcessorNode(ingress_bandwidth_mbps=100.0).ingress_link()
        demands = [link.capacity_bytes_per_epoch] * 4
        assert max_min_fair_share(demands, link.capacity_bytes_per_epoch) == (
            pytest.approx([link.capacity_bytes_per_epoch / 4] * 4)
        )

    def test_shared_link_is_a_network_link(self):
        link = StreamProcessorNode(ingress_bandwidth_mbps=10.0).ingress_link(0.5)
        assert type(link) is NetworkLink
        assert link.bandwidth_mbps == 10.0
        assert link.epoch_duration_s == 0.5
        link.offer(1000.0)
        assert link.transmit_epoch().sent_bytes == pytest.approx(1000.0)


class TestFairShareAllocation:
    #: One epoch of an 8 Mbps link.
    CAPACITY = 1e6

    def split(self, demands):
        return max_min_fair_share(demands, self.CAPACITY)

    def test_under_capacity_grants_every_demand(self):
        allocations = self.split([100.0, 200.0, 300.0])
        assert allocations == pytest.approx([100.0, 200.0, 300.0])

    def test_saturated_equal_demands_split_evenly(self):
        allocations = self.split([2e6, 2e6, 2e6, 2e6])
        assert allocations == pytest.approx([250_000.0] * 4)

    def test_water_filling_redistributes_unused_share(self):
        # One light source (100K) and two heavy ones: the light source keeps
        # its demand, the remaining 900K splits evenly between the heavies.
        allocations = self.split([100_000.0, 2e6, 2e6])
        assert allocations[0] == pytest.approx(100_000.0)
        assert allocations[1] == pytest.approx(450_000.0)
        assert allocations[2] == pytest.approx(450_000.0)

    def test_allocation_never_exceeds_capacity(self):
        allocations = self.split([5e5, 9e5, 3e5, 7e5])
        assert sum(allocations) <= self.CAPACITY + 1e-6

    def test_zero_demands_get_nothing(self):
        allocations = self.split([0.0, 4e6])
        assert allocations[0] == 0.0
        assert allocations[1] == pytest.approx(1e6)

    def test_empty_demands(self):
        assert self.split([]) == []

    def test_negative_demand_rejected(self):
        with pytest.raises(SimulationError):
            self.split([-1.0])


class TestExplicitCapacityAllocation:
    def test_splits_a_links_epoch_capacity(self):
        """The multi-source executor splits its ingress link's epoch capacity."""
        link = NetworkLink(8.0)  # 1e6 bytes per epoch
        assert max_min_fair_share(
            [7e5, 2e5, 4e5], link.capacity_bytes_per_epoch
        ) == pytest.approx([4e5, 2e5, 4e5])

    def test_splits_an_external_budget(self):
        """A co-located query splits the budget it was granted, not the
        link's whole epoch capacity."""
        assert max_min_fair_share([600.0, 600.0], 300.0) == [
            pytest.approx(150.0),
            pytest.approx(150.0),
        ]

    def test_budget_split_is_capacity_independent(self):
        assert max_min_fair_share([100.0, 400.0], 300.0) == [
            pytest.approx(100.0),
            pytest.approx(200.0),
        ]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationError):
            max_min_fair_share([-1.0], 100.0)
        with pytest.raises(SimulationError):
            max_min_fair_share([1.0], -5.0)


class TestWeightedAllocation:
    def test_saturated_split_follows_weights(self):
        grants = weighted_max_min_fair_share([1e6, 1e6, 1e6], [2.0, 1.0, 1.0], 400.0)
        assert grants == [
            pytest.approx(200.0),
            pytest.approx(100.0),
            pytest.approx(100.0),
        ]

    def test_work_conserving_redistribution(self):
        """A light claimant keeps its demand; its surplus flows to the heavy
        ones weighted by their weights."""
        grants = weighted_max_min_fair_share([30.0, 1e6, 1e6], [2.0, 1.0, 1.0], 400.0)
        assert grants[0] == pytest.approx(30.0)
        assert grants[1] == pytest.approx(185.0)
        assert grants[2] == pytest.approx(185.0)
        assert sum(grants) == pytest.approx(400.0)

    def test_sole_claimant_owns_the_capacity(self):
        """A single query is granted the full link even below its demand: the
        grant is an upper bound, and this keeps the single-query co-located
        path bit-identical to the standalone executor."""
        assert weighted_max_min_fair_share([10.0], [3.0], 400.0) == [400.0]

    def test_idle_claimants_get_nothing(self):
        grants = weighted_max_min_fair_share([0.0, 500.0], [5.0, 1.0], 400.0)
        assert grants == [0.0, pytest.approx(400.0)]

    def test_under_capacity_grants_every_demand(self):
        grants = weighted_max_min_fair_share([50.0, 20.0], [1.0, 9.0], 400.0)
        assert grants == [pytest.approx(50.0), pytest.approx(20.0)]

    def test_never_exceeds_capacity(self):
        grants = weighted_max_min_fair_share(
            [300.0, 300.0, 300.0], [1.0, 2.0, 5.0], 500.0
        )
        assert sum(grants) <= 500.0 + 1e-9

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationError):
            weighted_max_min_fair_share([1.0], [1.0, 2.0], 100.0)
        with pytest.raises(SimulationError):
            weighted_max_min_fair_share([1.0, 1.0], [1.0, 0.0], 100.0)
        with pytest.raises(SimulationError):
            weighted_max_min_fair_share([1.0, -1.0], [1.0, 1.0], 100.0)
        assert weighted_max_min_fair_share([], [], 100.0) == []


class TestTransmitMaxBytes:
    def test_caps_transmission_below_capacity(self):
        link = NetworkLink(8.0, 1.0)
        link.offer(900_000)
        result = link.transmit_epoch(max_bytes=300_000)
        assert result.sent_bytes == pytest.approx(300_000)
        assert result.queued_bytes == pytest.approx(600_000)

    def test_cap_above_queue_is_harmless(self):
        link = NetworkLink(8.0, 1.0)
        link.offer(100.0)
        assert link.transmit_epoch(max_bytes=1e9).sent_bytes == pytest.approx(100.0)

    def test_negative_cap_rejected(self):
        link = NetworkLink(8.0, 1.0)
        with pytest.raises(SimulationError):
            link.transmit_epoch(max_bytes=-1.0)
