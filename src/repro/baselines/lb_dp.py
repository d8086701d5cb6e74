"""LB-DP (LoadBalance-DP): query-level load balancing of the input stream.

Baseline 5 of Section VI-A, modelled on M3-style streaming MapReduce: the
input stream is split between the data source and the stream processor in
proportion to their available compute, and whatever fraction stays local runs
through the *whole* query pipeline.  In proxy terms the first control proxy
gets a load factor equal to the locally processable fraction of the input and
every downstream proxy forwards everything.

The split balances compute, not network traffic: the drained share is raw,
unreduced input, so LB-DP transfers far more data than Jarvis under the same
budget (Figures 7a and 7c).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.profiler import PipelineProfile
from ..core.runtime import EpochObservation
from ..errors import PartitioningError
from .base import PartitioningStrategy


class LoadBalanceDPStrategy(PartitioningStrategy):
    """Split the raw input stream proportionally to available compute.

    Args:
        profile: Accurate pipeline profile (costs, relay ratios, budget).
        sp_compute_share: Stream-processor compute available to this source's
            query instance, as a fraction of a core (the paper's 64-core SP
            shared by up to 250 sources gives roughly a quarter core each).
    """

    name = "LB-DP"

    def __init__(self, profile: PipelineProfile, sp_compute_share: float = 0.25) -> None:
        if len(profile) == 0:
            raise PartitioningError("LB-DP needs a non-empty pipeline profile")
        if sp_compute_share < 0:
            raise PartitioningError(
                f"sp_compute_share must be >= 0, got {sp_compute_share!r}"
            )
        self.profile = profile
        self.sp_compute_share = sp_compute_share
        self._current_budget: Optional[float] = None
        self._factors: List[float] = [0.0] * len(profile)

    def _recompute(self, budget: float) -> None:
        full_cost = self.profile.full_cost_fraction()
        if full_cost <= 1e-12:
            fraction = 1.0
        else:
            # Balance compute between the two nodes, but never hand the source
            # more than it can actually process within its budget.
            proportional = budget / max(budget + self.sp_compute_share, 1e-12)
            feasible = budget / full_cost
            fraction = min(1.0, max(0.0, proportional, 0.0))
            fraction = min(fraction, feasible)
        self._factors = [fraction] + [1.0] * (len(self.profile) - 1)
        self._current_budget = budget

    def initial_load_factors(self, num_stages: int) -> List[float]:
        self._recompute(self.profile.compute_budget)
        factors = self._factors[:num_stages]
        return factors + [1.0] * (num_stages - len(factors))

    def on_epoch_end(self, observation: EpochObservation) -> Optional[Sequence[float]]:
        budget = observation.compute_budget
        if self._current_budget is None or abs(budget - self._current_budget) > 1e-9:
            self._recompute(budget)
            return list(self._factors)
        return None
