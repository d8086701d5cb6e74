"""Bandwidth-limited network links.

Models the uplink from a data source to its parent stream processor, and the
stream processor's ingress that many sources share.  Bytes offered to a link
enter a FIFO byte queue; each epoch the link transmits up to
``bandwidth * epoch`` bytes.  The remaining queue length determines the
transfer delay experienced by newly offered data, which feeds the latency
metric ("query processing throughput with a latency bound of 5 seconds",
Section VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..errors import SimulationError, require_finite


def max_min_fair_share(demands: Sequence[float], capacity: float) -> List[float]:
    """Max-min fair (water-filling) split of ``capacity`` across ``demands``.

    Every claimant is entitled to an equal share; claimants demanding less
    than their share are satisfied in full and their unused entitlement is
    redistributed among the still-unsatisfied claimants.  When every demand
    fits, each claimant simply gets its demand.  The returned allocations sum
    to at most ``capacity``.

    This is the arbitration primitive of the stream processor's shared
    ingress link: the multi-source executor splits the link's epoch capacity
    with it, and the co-located multi-query executor splits the byte budget
    it granted a query.
    """
    if not demands:
        return []
    for demand in demands:
        if demand < 0:
            raise SimulationError(f"demands must be >= 0, got {demand!r}")
    if capacity < 0:
        raise SimulationError(f"capacity must be >= 0, got {capacity!r}")
    allocations = [0.0] * len(demands)
    remaining = capacity
    unsatisfied = [i for i, demand in enumerate(demands) if demand > 0]
    while unsatisfied and remaining > 1e-9:
        share = remaining / len(unsatisfied)
        still_unsatisfied: List[int] = []
        for i in unsatisfied:
            grant = min(share, demands[i] - allocations[i])
            allocations[i] += grant
            remaining -= grant
            if demands[i] - allocations[i] > 1e-9:
                still_unsatisfied.append(i)
        if len(still_unsatisfied) == len(unsatisfied):
            # Nobody was satisfied this round: the equal share was the
            # binding constraint for everyone, so the split is final.
            break
        unsatisfied = still_unsatisfied
    return allocations


def weighted_max_min_fair_share(
    demands: Sequence[float],
    weights: Sequence[float],
    capacity: float,
) -> List[float]:
    """Weighted max-min fair split of ``capacity`` across ``demands``.

    Water-filling where each round's share is proportional to the claimant's
    weight instead of equal: a claimant of weight ``w`` among unsatisfied
    claimants of total weight ``W`` is entitled to ``remaining * w / W``.
    Claimants demanding less than their entitlement are satisfied in full and
    their surplus is redistributed among the still-unsatisfied — the
    work-conserving property the co-located multi-query executor relies on
    (an idle query's ingress share flows to its backlogged neighbours).

    A sole claimant is granted the whole ``capacity`` outright, regardless of
    its demand: the grant is an upper bound the claimant ships under, so
    over-granting is harmless, and it keeps the single-query co-located path
    bit-identical to :class:`~repro.simulation.multisource.MultiSourceExecutor`
    (which arbitrates its sources against the full link capacity).
    """
    if len(demands) != len(weights):
        raise SimulationError(
            f"got {len(demands)} demands but {len(weights)} weights"
        )
    if not demands:
        return []
    for weight in weights:
        if not weight > 0:
            raise SimulationError(f"weights must be > 0, got {weight!r}")
    for demand in demands:
        if demand < 0:
            raise SimulationError(f"demands must be >= 0, got {demand!r}")
    if capacity < 0:
        raise SimulationError(f"capacity must be >= 0, got {capacity!r}")
    if len(demands) == 1:
        return [capacity]
    allocations = [0.0] * len(demands)
    remaining = capacity
    unsatisfied = [i for i, demand in enumerate(demands) if demand > 0]
    while unsatisfied and remaining > 1e-9:
        total_weight = sum(weights[i] for i in unsatisfied)
        still_unsatisfied: List[int] = []
        for i in unsatisfied:
            share = remaining * weights[i] / total_weight
            grant = min(share, demands[i] - allocations[i])
            allocations[i] += grant
            if demands[i] - allocations[i] > 1e-9:
                still_unsatisfied.append(i)
        remaining = capacity - sum(allocations)
        if len(still_unsatisfied) == len(unsatisfied):
            # Everyone was share-bound this round: the weighted split is final.
            break
        unsatisfied = still_unsatisfied
    return allocations


@dataclass(frozen=True)
class TransferPlan:
    """Outcome of fitting a FIFO run of records into a byte budget.

    Attributes:
        completed_records: Records whose bytes fully crossed the link.
        completed_bytes: Exact integer byte total of the completed records.
        sent_bytes: Link bytes consumed (completed bytes minus the head
            record's pre-existing progress, plus any new partial progress).
        new_progress_bytes: Bytes of the next still-queued record that have
            crossed (0.0 when the run ended on a record boundary).
        budget_left: Byte budget remaining for subsequent queue items.
    """

    completed_records: int
    completed_bytes: int
    sent_bytes: float
    new_progress_bytes: float
    budget_left: float


def plan_fifo_transfer(
    count: int,
    budget_bytes: float,
    progress_bytes: float = 0.0,
    uniform_size: Optional[int] = None,
    sizes: Optional[Iterable[int]] = None,
    tolerance: float = 1e-9,
) -> TransferPlan:
    """Count-based FIFO byte-serialized transfer arithmetic.

    Determines how many whole records of a queued run fit into
    ``budget_bytes``, given that ``progress_bytes`` of the head record already
    crossed the link in earlier epochs.  Record sizes are exact integers —
    either one ``uniform_size`` (closed form, O(1)) or a per-record ``sizes``
    sequence (one cumulative walk) — so byte totals never accumulate float
    error, and the object and arena execution modes share this single
    arithmetic, which is what makes their metrics bit-identical.

    A record completes when the budget covers its remaining bytes within
    ``tolerance``; leftover budget smaller than ``tolerance`` is not turned
    into partial progress (it could never complete anything).
    """
    if count < 0:
        raise SimulationError(f"count must be >= 0, got {count!r}")
    if (uniform_size is None) == (sizes is None):
        raise SimulationError("pass exactly one of uniform_size / sizes")
    effective = budget_bytes + progress_bytes
    limit = effective + tolerance
    if uniform_size is not None:
        if uniform_size <= 0:
            completed = count
        else:
            completed = min(count, int(limit // uniform_size))
            # Guard the float floor-division against off-by-one rounding.
            while completed < count and (completed + 1) * uniform_size <= limit:
                completed += 1
            while completed > 0 and completed * uniform_size > limit:
                completed -= 1
        completed_bytes = completed * uniform_size
    else:
        completed = 0
        completed_bytes = 0
        for size in sizes:
            if completed >= count or completed_bytes + size > limit:
                break
            completed_bytes += size
            completed += 1
    if completed > 0:
        sent = completed_bytes - progress_bytes
        budget_left = budget_bytes - sent
        progress = 0.0
    else:
        sent = 0.0
        budget_left = budget_bytes
        progress = progress_bytes
    if completed < count and budget_left > tolerance:
        # The next record starts crossing with whatever budget is left.
        progress = progress + budget_left
        sent = sent + budget_left
        budget_left = 0.0
    return TransferPlan(
        completed_records=completed,
        completed_bytes=completed_bytes,
        sent_bytes=sent,
        new_progress_bytes=progress,
        budget_left=budget_left,
    )


@dataclass(frozen=True)
class TransmitResult:
    """Outcome of transmitting one epoch's worth of queued bytes.

    Attributes:
        sent_bytes: Bytes transmitted during the epoch.
        queued_bytes: Bytes still waiting after the epoch.
        queue_delay_s: Estimated delay a byte offered *now* would experience.
    """

    sent_bytes: float
    queued_bytes: float
    queue_delay_s: float


class NetworkLink:
    """A FIFO, fixed-bandwidth link.

    Either the uplink from a data source to its parent SP, or the SP's
    ingress shared by many sources (``StreamProcessorNode.ingress_link``):
    each active source offers its drained bytes into the one queue, and the
    executor splits each epoch's capacity among the contending sources
    max-min fairly (:func:`max_min_fair_share`), so a source never benefits
    from another source's unused share unless that share is genuinely idle.
    """

    def __init__(self, bandwidth_mbps: float, epoch_duration_s: float = 1.0) -> None:
        # Queue-delay arithmetic divides by ``bytes_per_second``
        # (:meth:`transmit_epoch`), so a zero/negative/non-finite bandwidth
        # must fail loudly at construction instead of surfacing later as a
        # ZeroDivisionError or a NaN-poisoned latency estimate.
        require_finite("bandwidth_mbps", bandwidth_mbps, positive=True)
        require_finite("epoch_duration_s", epoch_duration_s, positive=True)
        self.bandwidth_mbps = float(bandwidth_mbps)
        self.epoch_duration_s = float(epoch_duration_s)
        self._queue_bytes = 0.0

    # -- properties ------------------------------------------------------------

    @property
    def bytes_per_second(self) -> float:
        """Link capacity in bytes per second."""
        return self.bandwidth_mbps * 1e6 / 8.0

    @property
    def capacity_bytes_per_epoch(self) -> float:
        """Bytes the link can move in one epoch."""
        return self.bytes_per_second * self.epoch_duration_s

    @property
    def queued_bytes(self) -> float:
        """Bytes currently waiting in the queue."""
        return self._queue_bytes

    # -- operations --------------------------------------------------------------

    def offer(self, num_bytes: float) -> None:
        """Enqueue ``num_bytes`` for transmission."""
        if num_bytes < 0:
            raise SimulationError(f"cannot offer negative bytes ({num_bytes!r})")
        self._queue_bytes += float(num_bytes)

    def withdraw(self, num_bytes: float) -> float:
        """Remove ``num_bytes`` from the queue without transmitting them.

        The live-migration handoff uses this to take a departing source's
        still-queued bytes off its old block's shared link so they can be
        re-offered on the new block's link.  Tiny float residue from
        carryover arithmetic is clamped; withdrawing clearly more than is
        queued is a bookkeeping bug and fails loudly.
        """
        if num_bytes < 0:
            raise SimulationError(f"cannot withdraw negative bytes ({num_bytes!r})")
        amount = float(num_bytes)
        if amount > self._queue_bytes + 1e-6:
            raise SimulationError(
                f"cannot withdraw {amount!r} bytes; only "
                f"{self._queue_bytes!r} queued"
            )
        amount = min(amount, self._queue_bytes)
        self._queue_bytes -= amount
        return amount

    def transmit_epoch(self, max_bytes: float | None = None) -> TransmitResult:
        """Transmit up to one epoch's capacity from the queue.

        Args:
            max_bytes: Optional cap below the epoch capacity.  The multi-source
                executor uses this to transmit exactly the bytes its per-source
                arbitration shipped (record atomicity can leave a sliver of
                capacity unused), keeping the link's byte queue consistent with
                the per-source carryover queues.
        """
        sent = min(self._queue_bytes, self.capacity_bytes_per_epoch)
        if max_bytes is not None:
            if max_bytes < 0:
                raise SimulationError(f"max_bytes must be >= 0, got {max_bytes!r}")
            sent = min(sent, float(max_bytes))
        self._queue_bytes -= sent
        return TransmitResult(
            sent_bytes=sent,
            queued_bytes=self._queue_bytes,
            queue_delay_s=self._queue_bytes / self.bytes_per_second,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<NetworkLink {self.bandwidth_mbps:.2f} Mbps "
            f"queued={self._queue_bytes:.0f}B>"
        )
