"""Resource-availability and workload dynamics.

Section II-B motivates adaptivity with two kinds of change:

* **Resource availability** — foreground services experience bursty load, so
  the CPU budget left for monitoring queries changes on the order of minutes.
  :class:`ResourceDynamics` produces :class:`~repro.simulation.node.BudgetSchedule`
  objects for bursty foreground load; a step change is a
  :class:`~repro.simulation.node.BudgetSchedule` of its breakpoints.
* **Resource demands** — anomalies change the monitoring-data distribution
  (error bursts, latency spikes lasting 40-60 seconds), so the query's compute
  demand changes even when the budget does not.  :class:`WorkloadBurst` wraps
  a workload generator and injects such bursts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import WorkloadError, require_finite
from ..query.records import Record
from ..simulation.node import BudgetSchedule


class ResourceDynamics:
    """Factory for CPU-budget schedules used by the evaluation."""

    @staticmethod
    def bursty_foreground(
        baseline: float,
        burst_budget: float,
        period_epochs: int,
        burst_epochs: int,
        num_epochs: int,
        start_offset: int = 0,
    ) -> BudgetSchedule:
        """Periodic foreground bursts that shrink the monitoring budget.

        Models minute-scale load bursts of hosted services: for
        ``burst_epochs`` out of every ``period_epochs`` the available budget
        drops from ``baseline`` to ``burst_budget``.
        """
        if period_epochs <= 0 or burst_epochs < 0 or burst_epochs > period_epochs:
            raise WorkloadError(
                "invalid burst shape: need 0 <= burst_epochs <= period_epochs "
                f"(got {burst_epochs}, {period_epochs})"
            )
        breakpoints: List[Tuple[int, float]] = [(0, baseline)]
        epoch = start_offset
        while epoch < num_epochs:
            breakpoints.append((epoch, burst_budget))
            breakpoints.append((min(num_epochs, epoch + burst_epochs), baseline))
            epoch += period_epochs
        return BudgetSchedule(breakpoints)


@dataclass
class BurstSpec:
    """One workload burst: multiply the record rate during an epoch range."""

    start_epoch: int
    end_epoch: int
    rate_multiplier: float

    def __post_init__(self) -> None:
        if self.end_epoch <= self.start_epoch:
            raise WorkloadError("burst end_epoch must be after start_epoch")
        require_finite(
            "rate_multiplier", self.rate_multiplier, positive=True,
            error=WorkloadError,
        )

    def active(self, epoch: int) -> bool:
        return self.start_epoch <= epoch < self.end_epoch


class WorkloadBurst:
    """Wraps a workload generator and injects record-rate bursts.

    The paper notes that service failures generate error-log bursts and that
    latency spikes last 40-60 seconds; wrapping the base generator lets the
    same query/strategy stack be exercised under those conditions without any
    special-casing in the executor.
    """

    def __init__(self, base, bursts: Optional[Sequence[BurstSpec]] = None) -> None:
        self._base = base
        self.bursts: List[BurstSpec] = list(bursts or [])

    def _multiplier(self, epoch: int) -> float:
        """Rate multiplier in effect during ``epoch`` (1.0 outside bursts)."""
        multiplier = 1.0
        for burst in self.bursts:
            if burst.active(epoch):
                multiplier = max(multiplier, burst.rate_multiplier)
        return multiplier

    def records_for_epoch(self, epoch: int) -> List[Record]:
        records = self._base.records_for_epoch(epoch)
        multiplier = self._multiplier(epoch)
        if multiplier <= 1.0:
            return records
        extra_rounds = multiplier - 1.0
        boosted = list(records)
        while extra_rounds >= 1.0:
            boosted.extend(self._base.records_for_epoch(epoch))
            extra_rounds -= 1.0
        if extra_rounds > 0:
            partial = self._base.records_for_epoch(epoch)
            boosted.extend(partial[: int(len(partial) * extra_rounds)])
        return boosted

    def batch_for_epoch(self, epoch: int):
        """Columnar view of the boosted epoch (same arithmetic as the object
        path: whole extra draws plus a truncated fractional prefix, so both
        execution modes consume identical data by construction).  A wrapped
        workload without columnar generation hands over its boosted record
        objects, exactly as the engine takes them from the bare workload."""
        if getattr(self._base, "batch_for_epoch", None) is None:
            return self.records_for_epoch(epoch)
        batch = self._base.batch_for_epoch(epoch)
        multiplier = self._multiplier(epoch)
        if multiplier <= 1.0:
            return batch
        extra_rounds = multiplier - 1.0
        boosted = batch
        while extra_rounds >= 1.0:
            boosted = boosted + self._base.batch_for_epoch(epoch)
            extra_rounds -= 1.0
        if extra_rounds > 0:
            partial = self._base.batch_for_epoch(epoch)
            boosted = boosted + partial[: int(len(partial) * extra_rounds)]
        return boosted

    @property
    def input_rate_mbps(self) -> float:
        """Nominal (un-boosted) input rate of the wrapped workload."""
        return getattr(self._base, "input_rate_mbps", 0.0)
