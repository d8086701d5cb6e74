"""Operator-level partitioning (Eq. 1) and related utilities.

Operator-level partitioning chooses a *boundary operator* ``b`` per data
source: operators up to and including ``b`` run at the source on **all**
records; everything downstream runs on the stream processor.  The paper shows
the joint problem over all data sources is NP-hard (reduction from the
generalized assignment problem); baselines such as Best-OP (Sonata-style)
solve the per-source restriction with a small search, which is what this
module implements.  It also provides the conversion from a boundary operator
to the equivalent degenerate data-level plan (load factors of 1 up to the
boundary and 0 after), which lets every baseline run on the same executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import PartitioningError
from .lp_solver import cumulative_relay
from .profiler import PipelineProfile


@dataclass(frozen=True)
class OperatorLevelPlan:
    """Result of operator-level partitioning for one data source.

    Attributes:
        boundary: Number of leading operators executed at the data source
            (0 means everything runs on the stream processor).
        load_factors: Equivalent data-level load factors.
        local_cpu_fraction: Predicted CPU use of the chosen prefix.
    """

    boundary: int
    load_factors: List[float]
    local_cpu_fraction: float


def prefix_cpu_fractions(profile: PipelineProfile) -> List[float]:
    """CPU fraction needed to run each prefix of the pipeline on all records.

    ``result[k]`` is the cost of running the first ``k`` operators (so
    ``result[0] == 0``).  Uses the profiled relay ratios, i.e. operator ``j``
    only sees the records surviving operators before it.
    """
    upstream = cumulative_relay(profile.relay_ratios)
    records = profile.records_per_epoch
    epoch = max(profile.epoch_duration_s, 1e-12)
    fractions = [0.0]
    total = 0.0
    for cost, r_up in zip(profile.costs, upstream):
        total += records * r_up * cost
        fractions.append(total / epoch)
    return fractions


def operator_level_boundary(
    profile: PipelineProfile,
    compute_budget: Optional[float] = None,
    offload_limit: Optional[int] = None,
) -> int:
    """Choose the boundary operator for one data source (Eq. 1, per source).

    The boundary is the longest prefix whose full-data compute cost fits in
    the budget; this maximizes the number of operators executed at the source
    (equivalently minimizes the remote-execution cost ``Σ rc_j x_ij`` since
    ``rc_1 > rc_2 > ... > rc_M``) without exceeding the local compute budget.

    Args:
        profile: Profiled pipeline.
        compute_budget: Budget override (fraction of a core).
        offload_limit: Maximum number of operators allowed at the source
            (from the physical plan's offloadability rules).
    """
    budget = profile.compute_budget if compute_budget is None else compute_budget
    if budget < 0:
        raise PartitioningError(f"compute budget must be >= 0, got {budget!r}")
    limit = len(profile) if offload_limit is None else min(offload_limit, len(profile))
    fractions = prefix_cpu_fractions(profile)
    boundary = 0
    for k in range(1, limit + 1):
        if fractions[k] <= budget + 1e-12:
            boundary = k
        else:
            break
    return boundary


def boundary_to_load_factors(boundary: int, num_operators: int) -> List[float]:
    """Convert a boundary operator into equivalent data-level load factors."""
    if boundary < 0 or boundary > num_operators:
        raise PartitioningError(
            f"boundary must be within [0, {num_operators}], got {boundary}"
        )
    return [1.0] * boundary + [0.0] * (num_operators - boundary)


class OperatorLevelPartitioner:
    """Solver for the per-source operator-level partitioning problem.

    Each source's boundary is the deepest prefix that fits its budget
    (:func:`operator_level_boundary`), which minimizes the paper's Eq. 1
    objective for any strictly decreasing remote costs ``rc_j``.
    """

    def solve(
        self,
        profile: PipelineProfile,
        compute_budget: Optional[float] = None,
        offload_limit: Optional[int] = None,
    ) -> OperatorLevelPlan:
        """Return the operator-level plan for one data source."""
        boundary = operator_level_boundary(profile, compute_budget, offload_limit)
        fractions = prefix_cpu_fractions(profile)
        return OperatorLevelPlan(
            boundary=boundary,
            load_factors=boundary_to_load_factors(boundary, len(profile)),
            local_cpu_fraction=fractions[boundary],
        )
