"""Model-based step of StepWise-Adapt: the linear program of Eq. 3.

The data-level partitioning problem (Eq. 2 in the paper) minimizes the number
of drained records subject to the compute budget.  It is non-convex in the
per-proxy load factors ``p_i``, but the change of variables

    e_i = Π_{j<=i} p_j        (the *effective* load factor of proxy i)

turns it into a linear program (Eq. 3):

    minimize    Σ_i  R_{i-1} (e_{i-1} - e_i)
    subject to  Σ_i  R_{i-1} c_i e_i  <=  C / N_r
                0 <= e_i <= e_{i-1},   e_0 = 1

where ``R_{i-1} = Π_{j<i} r_j`` is the cumulative relay ratio, ``c_i`` the
per-record cost of operator ``i``, ``C`` the compute budget, and ``N_r`` the
number of records entering the query in an epoch.

This module solves that LP with ``scipy.optimize.linprog`` (HiGHS) and falls
back to a proportional heuristic when the solver is unavailable or fails, so
callers always receive a feasible plan.

Every data source runs its own Jarvis runtime, and in a homogeneous fleet the
runtimes profile identical pipelines, so the same LP comes up again and again.
Solves therefore go through a bounded LRU memo keyed on the exact bit pattern
(``float.hex``) of every value the solve reads: the per-operator costs and
relay ratios, the per-record budget ``C / N_r``, the records per epoch and the
epoch duration.  The solve reconstructs its inputs from that key, so a key
determines its plan completely, and HiGHS is deterministic, so a hit returns
the bits a re-solve would.  ``0.0`` and ``-0.0`` are different keys.  Solver
failures are memoized too, so a hit takes the same fallback path a re-solve
would.  Each call returns a fresh :class:`DataLevelPlan` with its own lists
and metadata dict.  The memo is per process: forked workers warm their own
copy.  :func:`clear_plan_cache` empties it, e.g. before timing real solves.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SolverError, require_finite
from .control_proxy import load_factors_from_effective
from .profiler import PipelineProfile

try:  # scipy is a hard dependency, but keep the import failure explainable.
    from scipy.optimize import linprog

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - scipy is installed in CI
    _HAVE_SCIPY = False

#: Distinct LP inputs kept by the solve memo (least recently used evicted).
_PLAN_CACHE_SIZE = 1024

#: Memo key: ``float.hex`` of the costs, the relay ratios, the per-record
#: budget, the records per epoch and the epoch duration.
_PlanKey = Tuple[Tuple[str, ...], Tuple[str, ...], str, str, str]


@dataclass(frozen=True)
class DataLevelPlan:
    """A data-level partitioning plan produced by the LP (or its fallback).

    Attributes:
        load_factors: Per-proxy load factors ``p_i``.
        effective_load_factors: Effective factors ``e_i = Π p_j``.
        expected_cpu_fraction: Predicted CPU utilisation of the plan, as a
            fraction of the budget-providing core (uses the model's costs).
        expected_drain_fraction: Predicted fraction of input records drained.
        solver: Which method produced the plan ("lp", "fallback", "zero").
        status: Solver status message (for diagnostics).
    """

    load_factors: List[float]
    effective_load_factors: List[float]
    expected_cpu_fraction: float
    expected_drain_fraction: float
    solver: str = "lp"
    status: str = "optimal"
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.load_factors)


def cumulative_relay(relay_ratios: Sequence[float]) -> List[float]:
    """Return ``R_i = Π_{j<=i} r_j`` with ``R_{-1}`` implied as 1.

    ``cumulative_relay(r)[i-1]`` is the paper's ``R_{i-1}`` for operator ``i``
    (1-indexed): the fraction of input data that survives to the input of
    operator ``i`` when all upstream operators run at full load.
    """
    result: List[float] = []
    running = 1.0
    for r in relay_ratios:
        result.append(running)
        running *= r
    return result


def plan_cpu_fraction(
    effective: Sequence[float],
    costs: Sequence[float],
    relay_ratios: Sequence[float],
    records_per_epoch: float,
    epoch_duration_s: float = 1.0,
) -> float:
    """CPU fraction consumed by a plan according to the cost model.

    Operator ``i`` processes ``N_r * R_{i-1} * e_i`` records at cost ``c_i``
    each.
    """
    upstream = cumulative_relay(relay_ratios)
    total = 0.0
    for e_i, c_i, r_up in zip(effective, costs, upstream):
        total += records_per_epoch * r_up * e_i * c_i
    return total / max(epoch_duration_s, 1e-12)


def plan_drain_fraction(
    effective: Sequence[float], relay_ratios: Sequence[float]
) -> float:
    """Fraction of input records drained under a plan (the Eq. 3 objective)."""
    upstream = cumulative_relay(relay_ratios)
    drained = 0.0
    previous = 1.0
    for e_i, r_up in zip(effective, upstream):
        drained += r_up * (previous - e_i)
        previous = e_i
    return drained


def solve_data_level_lp(
    profile: PipelineProfile,
    compute_budget: Optional[float] = None,
) -> DataLevelPlan:
    """Solve Eq. 3 for the given pipeline profile.

    Args:
        profile: Profiled operator costs/relay ratios, records per epoch, and
            the available compute budget.
        compute_budget: Optional override for the budget (fraction of a core).

    Returns:
        A feasible :class:`DataLevelPlan`.  If the LP solver fails, a
        proportional fallback plan is returned with ``solver="fallback"``.

    Raises:
        SolverError: If the profile is empty or contains negative, NaN or
            infinite values.
    """
    costs = profile.costs
    relays = profile.relay_ratios
    n_ops = len(costs)
    if n_ops == 0:
        raise SolverError("cannot partition an empty pipeline")
    for i, (c, r) in enumerate(zip(costs, relays)):
        require_finite(f"costs[{i}]", c, non_negative=True, error=SolverError)
        require_finite(f"relay_ratios[{i}]", r, non_negative=True, error=SolverError)

    budget = profile.compute_budget if compute_budget is None else compute_budget
    require_finite("compute_budget", budget, error=SolverError)
    require_finite("records_per_epoch", profile.records_per_epoch, error=SolverError)
    require_finite("epoch_duration_s", profile.epoch_duration_s, error=SolverError)
    budget = max(0.0, float(budget))
    records = max(profile.records_per_epoch, 1e-9)
    epoch = max(profile.epoch_duration_s, 1e-9)
    # Per-record budget (the paper's C / N_r), in core-seconds per record.
    per_record_budget = budget * epoch / records

    # Degenerate budgets (including values so small the solver's feasibility
    # tolerance would dwarf them) behave exactly like a zero budget.
    if per_record_budget <= 1e-15:
        budget = 0.0
    if budget <= 0.0:
        effective = [0.0] * n_ops
        return _plan_from_effective(
            effective, costs, relays, records, epoch, "zero", "no compute budget"
        )

    if _HAVE_SCIPY:
        key: _PlanKey = (
            tuple(float(c).hex() for c in costs),
            tuple(float(r).hex() for r in relays),
            float(per_record_budget).hex(),
            float(records).hex(),
            float(epoch).hex(),
        )
        plan = _memoized_solve(key)
        if plan is not None:
            return _fresh_copy(plan)

    upstream = cumulative_relay(relays)
    effective = _fallback_effective(costs, relays, upstream, per_record_budget)
    return _plan_from_effective(
        effective, costs, relays, records, epoch, "fallback", "proportional fallback"
    )


def clear_plan_cache() -> None:
    """Forget every memoized LP solve in this process."""
    _memoized_solve.cache_clear()


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _memoized_solve(key: _PlanKey) -> Optional[DataLevelPlan]:
    """Solve the LP whose inputs are exactly the bits in ``key``.

    The returned plan is shared by every hit on ``key``; callers hand out
    :func:`_fresh_copy` of it, never the plan itself.
    """
    cost_bits, relay_bits, budget_bits, records_bits, epoch_bits = key
    costs = [float.fromhex(c) for c in cost_bits]
    relays = [float.fromhex(r) for r in relay_bits]
    return _solve_with_linprog(
        costs,
        relays,
        cumulative_relay(relays),
        float.fromhex(budget_bits),
        float.fromhex(records_bits),
        float.fromhex(epoch_bits),
    )


def _fresh_copy(plan: DataLevelPlan) -> DataLevelPlan:
    """A copy of ``plan`` that shares no mutable container with it."""
    return dataclasses.replace(
        plan,
        load_factors=list(plan.load_factors),
        effective_load_factors=list(plan.effective_load_factors),
        metadata=dict(plan.metadata),
    )


def _solve_with_linprog(
    costs: Sequence[float],
    relays: Sequence[float],
    upstream: Sequence[float],
    per_record_budget: float,
    records: float,
    epoch: float,
) -> Optional[DataLevelPlan]:
    """Solve the LP with scipy's HiGHS backend; return None on failure."""
    n_ops = len(costs)

    # Objective: minimize sum_i R_{i-1} (e_{i-1} - e_i).  Dropping the constant
    # R_0 * e_0 term, the coefficient of e_i is (R_i - R_{i-1}) for i < M and
    # -R_{M-1} for the last operator.
    c_vec = np.zeros(n_ops)
    for i in range(n_ops - 1):
        c_vec[i] = upstream[i + 1] - upstream[i]
    c_vec[n_ops - 1] = -upstream[n_ops - 1]

    # Budget constraint: sum_i R_{i-1} c_i e_i <= C / N_r.
    a_ub = [np.array([upstream[i] * costs[i] for i in range(n_ops)])]
    b_ub = [per_record_budget]

    # Chain constraints e_i <= e_{i-1} for i >= 2 (e_1 <= 1 is a bound).
    for i in range(1, n_ops):
        row = np.zeros(n_ops)
        row[i] = 1.0
        row[i - 1] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)

    bounds = [(0.0, 1.0)] * n_ops

    try:
        result = linprog(
            c=c_vec,
            A_ub=np.vstack(a_ub),
            b_ub=np.array(b_ub),
            bounds=bounds,
            method="highs",
        )
    except (ValueError, TypeError):
        return None
    if not result.success:
        return None

    effective = [float(min(1.0, max(0.0, e))) for e in result.x]
    # Enforce monotonicity exactly (numerical noise can violate it slightly).
    for i in range(1, n_ops):
        effective[i] = min(effective[i], effective[i - 1])
    return _plan_from_effective(
        effective, costs, relays, records, epoch, "lp", str(result.message)
    )


def _fallback_effective(
    costs: Sequence[float],
    relays: Sequence[float],
    upstream: Sequence[float],
    per_record_budget: float,
) -> List[float]:
    """Proportional fallback: one uniform effective load factor for all stages.

    With ``e_i = e`` for every operator, the compute constraint becomes
    ``e * Σ R_{i-1} c_i <= C / N_r``, so the largest feasible uniform factor is
    trivially computable and always satisfies the chain constraints.  It is
    not optimal (the LP is), but it is feasible, monotone, and gives the
    model-agnostic fine-tuning step a sensible starting point when the solver
    is unavailable.
    """
    n_ops = len(costs)
    denom = sum(upstream[i] * costs[i] for i in range(n_ops))
    if denom <= 1e-15:
        uniform = 1.0
    else:
        uniform = min(1.0, max(0.0, per_record_budget / denom))
    return [uniform] * n_ops


def _plan_from_effective(
    effective: Sequence[float],
    costs: Sequence[float],
    relays: Sequence[float],
    records: float,
    epoch: float,
    solver: str,
    status: str,
) -> DataLevelPlan:
    effective = [float(min(1.0, max(0.0, e))) for e in effective]
    for i in range(1, len(effective)):
        effective[i] = min(effective[i], effective[i - 1])
    load_factors = load_factors_from_effective(effective)
    cpu = plan_cpu_fraction(effective, costs, relays, records, epoch)
    drain = plan_drain_fraction(effective, relays)
    if math.isnan(cpu) or math.isnan(drain):
        raise SolverError("plan evaluation produced NaN")
    return DataLevelPlan(
        load_factors=load_factors,
        effective_load_factors=list(effective),
        expected_cpu_fraction=cpu,
        expected_drain_fraction=drain,
        solver=solver,
        status=status,
    )
