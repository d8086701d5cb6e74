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
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import WorkloadError, require_finite
from ..query.records import Record
from ..simulation.node import BudgetSchedule
from .pingmesh import ArenaUnits


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
    """One workload burst: multiply the record rate during an epoch range.

    A burst adds records, so its multiplier is at least 1.
    """

    start_epoch: int
    end_epoch: int
    rate_multiplier: float

    def __post_init__(self) -> None:
        if self.end_epoch <= self.start_epoch:
            raise WorkloadError("burst end_epoch must be after start_epoch")
        require_finite("rate_multiplier", self.rate_multiplier, error=WorkloadError)
        if self.rate_multiplier < 1.0:
            raise WorkloadError(
                f"burst rate_multiplier must be >= 1, got {self.rate_multiplier!r}"
            )

    def active(self, epoch: int) -> bool:
        return self.start_epoch <= epoch < self.end_epoch


class WorkloadBurst:
    """Wraps a workload generator and injects record-rate bursts.

    The paper notes that service failures generate error-log bursts and that
    latency spikes last 40-60 seconds; wrapping the base generator lets the
    same query/strategy stack be exercised under those conditions without any
    special-casing in the executor.

    A boosted epoch draws whole extra epochs of the base, then, for a
    fractional multiplier, one more epoch of which it keeps a prefix; the
    object and columnar paths run the same arithmetic (:meth:`_rounds`), so
    both record modes consume identical data by construction.  Over a base
    with the block-fill entry (a Pingmesh stream), the whole rounds are
    units of the base's generation kernel, written straight into the
    engine's arena (:meth:`arena_units`).
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

    def _rounds(self, epoch: int) -> Tuple[int, float]:
        """Whole base epochs that ``epoch`` draws, and the fraction of one
        more whose prefix it keeps (a draw happens whenever it is > 0)."""
        extra_rounds = self._multiplier(epoch) - 1.0
        rounds = 1
        while extra_rounds >= 1.0:
            rounds += 1
            extra_rounds -= 1.0
        return rounds, extra_rounds

    def _boosted(self, epoch: int, fetch: Callable[[int], Any]) -> Any:
        """``fetch(epoch)``'s containers for the boosted epoch, joined."""
        rounds, fraction = self._rounds(epoch)
        boosted = fetch(epoch)
        for _ in range(rounds - 1):
            boosted = boosted + fetch(epoch)
        if fraction > 0:
            partial = fetch(epoch)
            boosted = boosted + partial[: int(len(partial) * fraction)]
        return boosted

    def records_for_epoch(self, epoch: int) -> List[Record]:
        return self._boosted(epoch, self._base.records_for_epoch)

    def arena_units(self, epoch: int) -> Optional[ArenaUnits]:
        """The boosted epoch as block-fill units of the base's generator.

        Its whole rounds are units the engine writes straight into the
        arena; a fractional round is a full draw of which the prefix is
        kept.  None when the base has no block-fill entry on its type (record
        objects, or a wrapper), or its own epoch is not one whole unit.
        """
        entry = getattr(type(self._base), "arena_units", None)
        base = None if entry is None else entry(self._base, epoch)
        if base is None or base.rounds != 1 or base.prefix is not None:
            return None
        rounds, fraction = self._rounds(epoch)
        count = base.generator.config.records_per_epoch
        prefix = int(count * fraction) if fraction > 0 else None
        return ArenaUnits(base.generator, rounds, prefix)

    def batch_for_epoch(self, epoch: int) -> Any:
        """Columnar view of the boosted epoch.

        The one-source form of the block fill: a Pingmesh base's units are
        generated into fresh columns.  Any other columnar base's batches are
        joined, and a wrapped workload without columnar generation hands
        over its boosted record objects, exactly as the engine takes them
        from the bare workload.
        """
        units = self.arena_units(epoch)
        if units is not None:
            return units.batch(epoch)
        if getattr(self._base, "batch_for_epoch", None) is None:
            return self.records_for_epoch(epoch)
        return self._boosted(epoch, self._base.batch_for_epoch)

    @property
    def input_rate_mbps(self) -> float:
        """Nominal (un-boosted) input rate of the wrapped workload."""
        return getattr(self._base, "input_rate_mbps", 0.0)
