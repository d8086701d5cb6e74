"""StepWise-Adapt: the hybrid data-level partitioning algorithm (Section IV-D).

The algorithm combines two techniques:

1. **Model-based initialisation** — solve the LP of Eq. 3 using the profiled
   operator costs and relay ratios to get near-optimal load factors quickly.
2. **Model-agnostic fine-tuning** — observe the query state after executing an
   epoch with the current load factors and adjust them when the query is still
   congested or idle.  Operators are prioritized by relay ratio (lower relay
   ratio = more data reduction = higher priority), inspired by the
   first-fit-decreasing bin-packing heuristic: when the query is *idle* the
   highest-priority operator's load factor is increased first; when the query
   is *congested* the lowest-priority operator's load factor is decreased
   first.  Each adjustment is a binary search over discretized load-factor
   values, which bounds convergence time.

Both halves can be disabled individually to obtain the paper's two ablations:
``LP only`` (no fine-tuning) and ``w/o LP-init`` (load factors start at zero
and only fine-tuning runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..config import AdaptationConfig
from ..errors import PartitioningError
from ..query.records import half_up
from .lp_solver import DataLevelPlan, solve_data_level_lp
from .profiler import PipelineProfile
from .state import QueryState


@dataclass(frozen=True)
class AdaptationResult:
    """Outcome of one adaptation step.

    Attributes:
        load_factors: Load factors to apply for the next epoch.
        converged: True when the fine-tuner believes no further adjustment
            will help (either the query is stable or the search is exhausted).
        changed: True when the returned load factors differ from the inputs.
        tuned_operator: Index of the operator whose load factor was adjusted,
            or ``None`` when no adjustment was made.
    """

    load_factors: List[float]
    converged: bool
    changed: bool
    tuned_operator: Optional[int] = None


def operator_priorities(relay_ratios: Sequence[float]) -> List[int]:
    """Operator indices ordered from highest to lowest priority.

    Priority is higher for operators with a *lower* relay ratio, because
    giving them compute yields more outbound-data reduction per cycle.  Ties
    are broken towards upstream operators, which see more data.
    """
    return sorted(range(len(relay_ratios)), key=lambda i: (relay_ratios[i], i))


class _BinarySearchState:
    """Per-operator binary-search bounds over discretized load factors."""

    __slots__ = ("lo", "hi")

    def __init__(self) -> None:
        self.lo = 0.0
        self.hi = 1.0

    def reset(self) -> None:
        self.lo = 0.0
        self.hi = 1.0

    def exhausted(self, step: float) -> bool:
        return (self.hi - self.lo) <= step * 1.0001


class FineTuner:
    """Model-agnostic, iterative fine-tuning of load factors.

    One instance is created per Adapt phase; it keeps binary-search bounds per
    operator and walks the priority order as individual searches converge.
    """

    def __init__(
        self,
        relay_ratios: Sequence[float],
        config: Optional[AdaptationConfig] = None,
    ) -> None:
        self.config = config or AdaptationConfig()
        self.relay_ratios = list(relay_ratios)
        self.priorities = operator_priorities(self.relay_ratios)
        self._search = [_BinarySearchState() for _ in self.relay_ratios]
        self._step = 1.0 / self.config.load_factor_steps
        self.iterations = 0

    # -- helpers --------------------------------------------------------------

    def _quantize(self, value: float) -> float:
        steps = half_up(value / self._step)
        return min(1.0, max(0.0, steps * self._step))

    def _pick_for_increase(self, load_factors: Sequence[float]) -> Optional[int]:
        """Highest-priority operator whose load factor can still increase."""
        for index in self.priorities:
            if load_factors[index] < 1.0 - 1e-9 and not self._search[index].exhausted(
                self._step
            ):
                return index
        return None

    def _pick_for_decrease(self, load_factors: Sequence[float]) -> Optional[int]:
        """Lowest-priority operator whose load factor can still decrease."""
        for index in reversed(self.priorities):
            if load_factors[index] > 1e-9 and not self._search[index].exhausted(
                self._step
            ):
                return index
        return None

    # -- main step -------------------------------------------------------------

    def step(
        self, query_state: QueryState, load_factors: Sequence[float]
    ) -> AdaptationResult:
        """Adjust load factors in response to the observed query state."""
        if len(load_factors) != len(self.relay_ratios):
            raise PartitioningError(
                "load factor vector length does not match the pipeline "
                f"({len(load_factors)} vs {len(self.relay_ratios)})"
            )
        factors = [min(1.0, max(0.0, p)) for p in load_factors]
        self.iterations += 1

        if query_state is QueryState.STABLE:
            return AdaptationResult(factors, converged=True, changed=False)
        if self.iterations > self.config.max_finetune_epochs:
            return AdaptationResult(factors, converged=True, changed=False)

        if query_state is QueryState.IDLE:
            index = self._pick_for_increase(factors)
            if index is None:
                return AdaptationResult(factors, converged=True, changed=False)
            search = self._search[index]
            # The current value is known to be too low.
            search.lo = max(search.lo, factors[index])
            candidate = self._quantize((search.lo + search.hi) / 2.0)
            if candidate <= factors[index] + 1e-12:
                candidate = min(1.0, factors[index] + self._step)
                search.lo = candidate
        else:  # CONGESTED
            index = self._pick_for_decrease(factors)
            if index is None:
                return AdaptationResult(factors, converged=True, changed=False)
            search = self._search[index]
            # The current value is known to be too high.
            search.hi = min(search.hi, factors[index])
            candidate = self._quantize((search.lo + search.hi) / 2.0)
            if candidate >= factors[index] - 1e-12:
                candidate = max(0.0, factors[index] - self._step)
                search.hi = candidate

        changed = abs(candidate - factors[index]) > 1e-12
        factors[index] = candidate
        return AdaptationResult(
            factors, converged=False, changed=changed, tuned_operator=index
        )


class StepWiseAdapt:
    """The full StepWise-Adapt algorithm (LP initialisation + fine-tuning)."""

    def __init__(self, config: Optional[AdaptationConfig] = None) -> None:
        self.config = config or AdaptationConfig()
        self._tuner: Optional[FineTuner] = None
        self._last_plan: Optional[DataLevelPlan] = None

    @property
    def last_plan(self) -> Optional[DataLevelPlan]:
        """The plan produced by the most recent initialisation (if any)."""
        return self._last_plan

    def initial_load_factors(self, profile: PipelineProfile) -> List[float]:
        """Compute the model-based initial load factors for a fresh Adapt phase.

        When ``use_lp_init`` is disabled (the "w/o LP-init" ablation), load
        factors start from zero and the model-agnostic fine-tuning does all
        the work, as in the model-free baseline of Nardelli et al. discussed
        in Section VI-C.

        The LP targets slightly less than the measured budget
        (``budget_headroom``) so that modelling error does not immediately
        leave the query congested.

        The solve is memoized per process on the exact bits of the profiled
        costs, relay ratios, per-record budget, records per epoch and epoch
        duration (see :mod:`repro.core.lp_solver`).  Runtimes of a homogeneous
        fleet that profile identical pipelines share one HiGHS solve, and
        since the solver is deterministic a hit is bit-identical to a
        re-solve.  :attr:`last_plan` is always this runtime's own copy.
        """
        if self.config.use_lp_init:
            budget = profile.compute_budget * (1.0 - self.config.budget_headroom)
            plan = solve_data_level_lp(profile, compute_budget=budget)
            self._last_plan = plan
            factors = list(plan.load_factors)
        else:
            self._last_plan = None
            factors = [0.0] * len(profile)
        self._tuner = FineTuner(profile.relay_ratios, self.config)
        return factors

    def fine_tune(
        self, query_state: QueryState, load_factors: Sequence[float]
    ) -> AdaptationResult:
        """Run one fine-tuning iteration.

        Must be called after :meth:`initial_load_factors` (which creates the
        per-phase binary-search state).  When ``use_finetune`` is disabled
        (the "LP only" ablation) the result always reports convergence without
        changing the load factors.
        """
        factors = list(load_factors)
        if not self.config.use_finetune:
            return AdaptationResult(factors, converged=True, changed=False)
        if self._tuner is None:
            raise PartitioningError(
                "fine_tune() called before initial_load_factors()"
            )
        return self._tuner.step(query_state, factors)

    def reset(self) -> None:
        """Forget fine-tuning state (called when leaving the Adapt phase)."""
        self._tuner = None
