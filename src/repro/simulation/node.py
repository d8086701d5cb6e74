"""Node abstractions: the stream processor and data-source budget schedules.

Data sources host foreground services; the CPU left over for monitoring
queries fluctuates over time (Section II-B).  A :class:`BudgetSchedule`
describes that fluctuation as a function of the epoch index, which is how the
convergence experiments of Figure 8 inject resource changes
(e.g. 10% → 90% → 60% of a core).  A source's schedule travels with it
(``SourceSpec.budget`` in :mod:`repro.simulation.multisource`);
:class:`StreamProcessorNode` describes the shared stream processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..errors import ConfigurationError, require_finite
from .network import NetworkLink


class BudgetSchedule:
    """CPU budget (fraction of one core) available to a query per epoch.

    A schedule is a piecewise-constant function of the epoch index, described
    by ``(start_epoch, budget)`` breakpoints.  Budgets may exceed 1.0 on
    multi-core data sources (the multi-query experiment of Figure 11 uses a
    two-core node).
    """

    def __init__(self, breakpoints: Sequence[Tuple[int, float]]) -> None:
        if not breakpoints:
            raise ConfigurationError("budget schedule needs at least one breakpoint")
        ordered = sorted(breakpoints, key=lambda item: item[0])
        if ordered[0][0] != 0:
            raise ConfigurationError("the first breakpoint must start at epoch 0")
        for _, budget in ordered:
            if budget < 0:
                raise ConfigurationError(f"budgets must be >= 0, got {budget!r}")
        self._breakpoints: List[Tuple[int, float]] = list(ordered)

    @classmethod
    def constant(cls, budget: float) -> "BudgetSchedule":
        """A schedule that never changes."""
        return cls([(0, budget)])

    @classmethod
    def steps(cls, *steps: Tuple[int, float]) -> "BudgetSchedule":
        """A schedule from explicit ``(start_epoch, budget)`` steps."""
        return cls(list(steps))

    def budget_at(self, epoch: int) -> float:
        """Budget in effect during ``epoch``."""
        if epoch < 0:
            raise ConfigurationError(f"epoch must be >= 0, got {epoch!r}")
        current = self._breakpoints[0][1]
        for start, budget in self._breakpoints:
            if epoch >= start:
                current = budget
            else:
                break
        return current

    def change_epochs(self) -> List[int]:
        """Epoch indices at which the budget changes (excluding epoch 0)."""
        return [start for start, _ in self._breakpoints[1:]]

    def __call__(self, epoch: int) -> float:
        return self.budget_at(epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        parts = ", ".join(f"{s}:{b:.2f}" for s, b in self._breakpoints)
        return f"<BudgetSchedule {parts}>"


@dataclass
class StreamProcessorNode:
    """The shared stream processor that parents a set of data sources.

    Attributes:
        name: Node identifier.
        cores: Number of cores (the paper's SP has 64).
        ingress_bandwidth_mbps: Aggregate ingress bandwidth available to the
            query across all of its data sources.
    """

    name: str = "stream-processor"
    cores: int = 64
    ingress_bandwidth_mbps: float = 440.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {self.cores!r}")
        require_finite(
            "ingress_bandwidth_mbps", self.ingress_bandwidth_mbps, positive=True
        )

    def compute_capacity_per_epoch(self, epoch_duration_s: float = 1.0) -> float:
        """Core-seconds of compute available per epoch."""
        if epoch_duration_s <= 0:
            raise ConfigurationError(
                f"epoch_duration_s must be positive, got {epoch_duration_s!r}"
            )
        return self.cores * epoch_duration_s

    def ingress_link(self, epoch_duration_s: float = 1.0) -> NetworkLink:
        """A :class:`~repro.simulation.network.NetworkLink` over this node's
        ingress bandwidth — the shared resource the multi-source executor
        arbitrates per epoch."""
        return NetworkLink(self.ingress_bandwidth_mbps, epoch_duration_s)


BudgetFunction = Callable[[int], float]


def as_budget_schedule(
    budget: "float | BudgetSchedule | Sequence[Tuple[int, float]]",
) -> BudgetSchedule:
    """Coerce a budget specification into a :class:`BudgetSchedule`.

    Accepts a plain float (constant budget), an existing schedule, or a list
    of ``(start_epoch, budget)`` pairs.
    """
    if isinstance(budget, BudgetSchedule):
        return budget
    if isinstance(budget, (int, float)):
        return BudgetSchedule.constant(float(budget))
    return BudgetSchedule(list(budget))
