"""Sharding: tile the source fleet across stream-processor building blocks.

The paper's deployment unit is the *core building block* (Figure 4b): one
stream processor parenting a set of data sources through a shared ingress
link.  A datacenter-scale deployment tiles many such blocks side by side —
the monitoring fleet is partitioned so that every data source reports to
exactly one stream processor, and blocks never exchange data (§VI-E scales
one block; the fleet scales by adding blocks).

:class:`ShardedClusterExecutor` reproduces that tiling on top of the
single-block :class:`~repro.simulation.multisource.MultiSourceExecutor`:

1. a :class:`PlacementPolicy` partitions the fleet of
   :class:`~repro.simulation.multisource.SourceSpec`\\ s across ``K`` blocks
   (round-robin, byte-rate-balanced greedy bin-packing, or an explicit static
   assignment);
2. each block gets its own :class:`~repro.simulation.node.StreamProcessorNode`
   capacity — its own :class:`~repro.simulation.network.SharedLink` and its
   own compute-capped stream-processor pipeline — built from one shared
   :class:`~repro.simulation.multisource.MultiSourceConfig` template;
3. every epoch all blocks step in lockstep; per-source metrics merge into one
   fleet-wide view and the blocks' shared-resource measurements are summed
   via :meth:`~repro.simulation.metrics.ClusterEpochMetrics.merge`.

With ``K = 1`` the sharded executor is exactly the single-block executor:
same arithmetic, same metrics.  Past one block's saturation knee (Figure 10),
adding blocks divides the contention, so aggregate goodput scales ~linearly
with ``K`` until every block is unsaturated.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..errors import SimulationError
from ..query.physical_plan import PhysicalPlan
from .cost_model import CostModel
from .metrics import ClusterEpochMetrics, ClusterMetrics, EpochMetrics, RunMetrics
from .multisource import (
    MultiSourceConfig,
    MultiSourceExecutor,
    SourceMigrationState,
    SourceSpec,
)
from .node import StreamProcessorNode

T = TypeVar("T")


def estimated_rate_mbps(spec: SourceSpec, default: float = 1.0) -> float:
    """Best-effort estimate of one source's offered input rate in Mbps.

    Uses the workload's ``input_rate_mbps`` attribute when it exposes one
    (both bundled workloads do).  Probing ``records_for_epoch`` instead would
    consume workload RNG state and perturb the simulation, so unknown
    workloads fall back to ``default`` — which degrades byte-rate-balanced
    placement to source-count balancing, never corrupts the run.

    Non-finite rates also fall back to ``default``: an ``inf`` would swallow
    the greedy bin-packer's load comparisons (every block looks equally
    overloaded) and a ``nan`` poisons the heaviest-first sort and the load
    sums — both silently skew the placement rather than failing loudly.

    Negative rates are equally nonsensical (a buggy workload, not a real
    demand) and get the same treatment: clamping them to ``0.0`` — the old
    behaviour — made every such source look free, so the greedy bin-packer
    piled all of them onto one block.
    """
    rate = getattr(spec.workload, "input_rate_mbps", None)
    if rate is None:
        return default
    try:
        value = float(rate)
    except (TypeError, ValueError):
        return default
    if not math.isfinite(value) or value < 0:
        return default
    return value


class PlacementPolicy:
    """Assigns every source in a fleet to one building block."""

    name = "placement"

    def assign(
        self,
        sources: Sequence[SourceSpec],
        num_blocks: int,
        block_weights: Optional[Sequence[float]] = None,
    ) -> List[int]:
        """Block index (``0 <= block < num_blocks``) per source, same order.

        ``block_weights`` describes relative block capacity (e.g. per-block
        ingress bandwidth) for heterogeneous deployments; policies may ignore
        it.
        """
        raise NotImplementedError


class RoundRobinPlacement(PlacementPolicy):
    """Deal sources out in fleet order: source ``i`` goes to block ``i % K``."""

    name = "round-robin"

    def assign(
        self,
        sources: Sequence[SourceSpec],
        num_blocks: int,
        block_weights: Optional[Sequence[float]] = None,
    ) -> List[int]:
        return [index % num_blocks for index in range(len(sources))]


class ByteRateBalancedPlacement(PlacementPolicy):
    """Greedy bin-packing on each source's estimated input byte rate.

    Sources are placed heaviest-first onto the currently-lightest block
    (longest-processing-time-first scheduling), which keeps the per-block
    offered load within one source's rate of optimal — the placement that
    delays each block's shared-link saturation knee the longest for a
    heterogeneous fleet.

    With ``block_weights`` (relative block capacity, e.g. per-block ingress
    bandwidth), "lightest" means lowest load *per unit of capacity*, so a
    faster block absorbs proportionally more of the fleet's byte rate.
    """

    name = "byte-rate-balanced"

    def __init__(
        self, rate_fn: Optional[Callable[[SourceSpec], float]] = None
    ) -> None:
        self._rate_fn = rate_fn or estimated_rate_mbps

    def assign(
        self,
        sources: Sequence[SourceSpec],
        num_blocks: int,
        block_weights: Optional[Sequence[float]] = None,
    ) -> List[int]:
        rates = [self._rate_fn(spec) for spec in sources]
        if block_weights is None:
            weights = [1.0] * num_blocks
        else:
            if len(block_weights) != num_blocks:
                raise SimulationError(
                    f"got {len(block_weights)} block weights for "
                    f"{num_blocks} blocks"
                )
            weights = [
                weight if math.isfinite(weight) and weight > 0 else 1.0
                for weight in block_weights
            ]
        loads = [0.0] * num_blocks
        counts = [0] * num_blocks
        assignment = [0] * len(sources)
        heaviest_first = sorted(
            range(len(sources)), key=lambda index: (-rates[index], index)
        )
        for index in heaviest_first:
            # Tie-break equal relative loads by source count so an
            # all-zero-rate fleet degrades to count balancing instead of
            # collapsing onto block 0.
            block = min(
                range(num_blocks),
                key=lambda b: (loads[b] / weights[b], counts[b], b),
            )
            assignment[index] = block
            loads[block] += rates[index]
            counts[block] += 1
        return assignment


class StaticPlacement(PlacementPolicy):
    """Explicit operator-provided assignment: source name -> block index."""

    name = "static"

    def __init__(self, assignment: Mapping[str, int]) -> None:
        self._assignment = dict(assignment)

    def assign(
        self,
        sources: Sequence[SourceSpec],
        num_blocks: int,
        block_weights: Optional[Sequence[float]] = None,
    ) -> List[int]:
        result: List[int] = []
        for spec in sources:
            if spec.name not in self._assignment:
                raise SimulationError(
                    f"static placement has no block for source {spec.name!r}"
                )
            block = self._assignment[spec.name]
            if not 0 <= block < num_blocks:
                raise SimulationError(
                    f"static placement sends {spec.name!r} to block {block}, "
                    f"but only blocks 0..{num_blocks - 1} exist"
                )
            result.append(block)
        return result


#: What callers may pass wherever a placement is expected.
PlacementLike = Union[PlacementPolicy, Mapping[str, int], str]


def make_placement(placement: PlacementLike) -> PlacementPolicy:
    """Coerce a placement specification into a :class:`PlacementPolicy`.

    Accepts a policy instance, an explicit ``{source_name: block}`` mapping
    (static placement), or a policy name (``"round_robin"`` /
    ``"byte_rate_balanced"``; dashes and case are normalised).
    """
    if isinstance(placement, PlacementPolicy):
        return placement
    if isinstance(placement, Mapping):
        return StaticPlacement(placement)
    if isinstance(placement, str):
        key = placement.replace("-", "_").lower()
        if key in ("round_robin", "rr"):
            return RoundRobinPlacement()
        if key in ("byte_rate_balanced", "balanced", "bin_packed"):
            return ByteRateBalancedPlacement()
        raise SimulationError(
            f"unknown placement policy {placement!r}; expected 'round_robin' "
            "or 'byte_rate_balanced' (or pass a mapping / PlacementPolicy)"
        )
    raise SimulationError(
        f"cannot build a placement from {placement!r}; expected a policy "
        "name, a source->block mapping, or a PlacementPolicy instance"
    )


# -- dynamic re-placement ----------------------------------------------------------


@dataclass(frozen=True)
class MigrationDecision:
    """One move a :class:`MigrationPolicy` wants executed between epochs."""

    source: str
    from_block: int
    to_block: int
    reason: str = ""


@dataclass(frozen=True)
class MigrationEvent:
    """One executed live migration (recorded in run metadata).

    ``epoch`` counts epochs already stepped when the move executed — moves
    happen at epoch boundaries, so it is the index of the *first* 0-based
    metric epoch run under the new placement (the policy reacted to metrics
    of epoch ``epoch - 1``, and ``placement_timeline()[epoch - 1]`` is the
    first snapshot showing the move).  ``moved_bytes`` is the queued demand
    withdrawn from the old block's link and re-offered on the new one;
    ``in_flight_records`` counts the drained records that travelled with the
    move (carryover queue plus SP backlog).
    """

    epoch: int
    source: str
    from_block: int
    to_block: int
    moved_bytes: float
    in_flight_records: int
    reason: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "source": self.source,
            "from_block": self.from_block,
            "to_block": self.to_block,
            "moved_bytes": self.moved_bytes,
            "in_flight_records": self.in_flight_records,
            "reason": self.reason,
        }


class MigrationPolicy:
    """Decides, between epochs, which sources move to which blocks.

    The sharded executor consults the policy after every stepped epoch with
    the per-block shared-resource measurements
    (:class:`~repro.simulation.metrics.ClusterEpochMetrics`), the current
    source -> block assignment, and each source's bytes offered to its link
    this epoch (the *measured* demand — during a hotspot the workload's
    declared nominal rate is exactly what went stale).  Returned decisions
    are executed immediately via the live-migration handoff; a policy that
    returns ``[]`` leaves placement untouched, and a run constructed without
    a policy never consults one.
    """

    name = "migration"

    def decide(
        self,
        epoch: int,
        block_epochs: Sequence[ClusterEpochMetrics],
        assignment: Mapping[str, int],
        offered_bytes: Mapping[str, float],
    ) -> List[MigrationDecision]:
        """Moves to execute now (empty list means placement stays put)."""
        raise NotImplementedError


class NeverMigrate(MigrationPolicy):
    """Keeps the initial placement forever (the static baseline, but driven
    through the lockstep migration machinery — used to prove the machinery
    itself is a no-op when no move is ever decided)."""

    name = "never"

    def decide(
        self,
        epoch: int,
        block_epochs: Sequence[ClusterEpochMetrics],
        assignment: Mapping[str, int],
        offered_bytes: Mapping[str, float],
    ) -> List[MigrationDecision]:
        return []


class SaturationMigrationPolicy(MigrationPolicy):
    """Migrates sources off blocks whose shared resources saturate mid-run.

    A block's *pressure* is the demand its shared link saw this epoch
    relative to capacity — ``(sent + still-queued bytes) / capacity`` — so a
    pressure above 1 means backlog is accumulating.  A block is *saturated*
    when its pressure reaches ``saturation_pressure`` (or, optionally, when
    its SP compute backlog exceeds ``sp_backlog_records``).  Two forms of
    hysteresis keep placement from thrashing:

    * a block must stay saturated for ``hot_epochs`` consecutive epochs
      before any source moves off it (and its streak resets after a move, so
      the move gets time to take effect before the next one);
    * a migrated source is frozen for ``cooldown_epochs`` epochs.

    When a block trips, the policy moves its highest-measured-rate movable
    source to the least-pressured block that can absorb that rate while
    staying below ``relief_pressure`` — measured rates are an exponential
    moving average (``rate_smoothing``) of each source's offered bytes, so
    one bursty epoch neither triggers nor misdirects a move.  At most
    ``max_moves_per_epoch`` sources move per epoch boundary.
    """

    name = "saturation"

    def __init__(
        self,
        saturation_pressure: float = 0.95,
        relief_pressure: float = 0.85,
        hot_epochs: int = 2,
        cooldown_epochs: int = 5,
        max_moves_per_epoch: int = 1,
        rate_smoothing: float = 0.5,
        sp_backlog_records: Optional[int] = None,
    ) -> None:
        if not 0 < saturation_pressure:
            raise SimulationError(
                f"saturation_pressure must be > 0, got {saturation_pressure!r}"
            )
        if not 0 < relief_pressure <= saturation_pressure:
            raise SimulationError(
                "relief_pressure must be within (0, saturation_pressure], got "
                f"{relief_pressure!r}"
            )
        if hot_epochs < 1:
            raise SimulationError(f"hot_epochs must be >= 1, got {hot_epochs!r}")
        if cooldown_epochs < 0:
            raise SimulationError(
                f"cooldown_epochs must be >= 0, got {cooldown_epochs!r}"
            )
        if max_moves_per_epoch < 1:
            raise SimulationError(
                f"max_moves_per_epoch must be >= 1, got {max_moves_per_epoch!r}"
            )
        if not 0 < rate_smoothing <= 1:
            raise SimulationError(
                f"rate_smoothing must be within (0, 1], got {rate_smoothing!r}"
            )
        self.saturation_pressure = saturation_pressure
        self.relief_pressure = relief_pressure
        self.hot_epochs = hot_epochs
        self.cooldown_epochs = cooldown_epochs
        self.max_moves_per_epoch = max_moves_per_epoch
        self.rate_smoothing = rate_smoothing
        self.sp_backlog_records = sp_backlog_records
        self._streaks: Dict[int, int] = {}
        self._frozen_until: Dict[str, int] = {}
        self._rates: Dict[str, float] = {}

    @staticmethod
    def block_pressure(epoch_metrics: ClusterEpochMetrics) -> float:
        """Link demand this epoch relative to capacity (> 1 means backlog)."""
        if epoch_metrics.network_capacity_bytes <= 0:
            return 0.0
        demand = (
            epoch_metrics.network_sent_bytes + epoch_metrics.network_queued_bytes
        )
        return demand / epoch_metrics.network_capacity_bytes

    def _saturated(self, epoch_metrics: ClusterEpochMetrics) -> bool:
        if self.block_pressure(epoch_metrics) >= self.saturation_pressure:
            return True
        return (
            self.sp_backlog_records is not None
            and epoch_metrics.sp_backlog_records >= self.sp_backlog_records
        )

    def decide(
        self,
        epoch: int,
        block_epochs: Sequence[ClusterEpochMetrics],
        assignment: Mapping[str, int],
        offered_bytes: Mapping[str, float],
    ) -> List[MigrationDecision]:
        alpha = self.rate_smoothing
        for name, offered in offered_bytes.items():
            previous = self._rates.get(name, offered)
            self._rates[name] = alpha * offered + (1.0 - alpha) * previous

        pressures = [self.block_pressure(em) for em in block_epochs]
        for block, em in enumerate(block_epochs):
            if self._saturated(em):
                self._streaks[block] = self._streaks.get(block, 0) + 1
            else:
                self._streaks[block] = 0

        hot_blocks = sorted(
            (
                block
                for block in range(len(block_epochs))
                if self._streaks.get(block, 0) >= self.hot_epochs
            ),
            key=lambda block: -pressures[block],
        )
        decisions: List[MigrationDecision] = []
        projected = dict(assignment)
        for hot in hot_blocks:
            if len(decisions) >= self.max_moves_per_epoch:
                break
            decision = self._relieve_block(
                hot, epoch, block_epochs, pressures, projected
            )
            if decision is not None:
                decisions.append(decision)
                # Give the move an epoch to take effect before re-triggering,
                # and freeze the moved source for the cooldown window.
                self._streaks[hot] = 0
                self._frozen_until[decision.source] = epoch + self.cooldown_epochs
                # Account the move in this epoch's projections, so a second
                # decision neither re-moves the source nor piles onto a
                # target past relief_pressure on stale pre-move pressures.
                projected[decision.source] = decision.to_block
                rate = self._rates.get(decision.source, 0.0)
                for block, sign in ((decision.to_block, 1.0), (hot, -1.0)):
                    capacity = block_epochs[block].network_capacity_bytes
                    if capacity > 0:
                        pressures[block] = max(
                            0.0, pressures[block] + sign * rate / capacity
                        )
        return decisions

    def _relieve_block(
        self,
        hot: int,
        epoch: int,
        block_epochs: Sequence[ClusterEpochMetrics],
        pressures: Sequence[float],
        assignment: Mapping[str, int],
    ) -> Optional[MigrationDecision]:
        movable = sorted(
            (
                name
                for name, block in assignment.items()
                if block == hot and self._frozen_until.get(name, 0) <= epoch
            ),
            key=lambda name: (-self._rates.get(name, 0.0), name),
        )
        if not movable:
            return None
        targets = sorted(
            (
                block
                for block in range(len(block_epochs))
                if block != hot and pressures[block] < self.relief_pressure
            ),
            key=lambda block: (pressures[block], block),
        )
        for name in movable:  # heaviest first: relieves the hot link fastest
            rate = self._rates.get(name, 0.0)
            for target in targets:
                capacity = block_epochs[target].network_capacity_bytes
                projected = pressures[target] + (
                    rate / capacity if capacity > 0 else 0.0
                )
                if projected <= self.relief_pressure:
                    return MigrationDecision(
                        source=name,
                        from_block=hot,
                        to_block=target,
                        reason=(
                            f"block {hot} pressure "
                            f"{pressures[hot]:.2f} >= {self.saturation_pressure} "
                            f"for {self.hot_epochs}+ epochs; block {target} "
                            f"projected {projected:.2f}"
                        ),
                    )
        return None


class ShardedClusterExecutor:
    """Simulates a fleet of sources tiled across K building blocks.

    Each block is an independent :class:`MultiSourceExecutor` — its own
    stream-processor node, shared ingress link, and SP pipeline, all built
    from the one ``cluster_config`` template — and all blocks step in
    lockstep per epoch.  Blocks never share state: a record drained by a
    source only ever crosses its own block's link and compute, exactly as in
    the paper's tiled deployment (Figure 4b).

    This class is the one implementation of sharded execution: the run and
    lockstep loops, the migration policy and handoff, placement bookkeeping,
    and metric assembly.  It reaches live block state only through
    :meth:`_blockwise` and :meth:`_handoff`, which run in-process here;
    :class:`~repro.simulation.parallel.ParallelBlockController` overrides
    just those two to run in the worker processes that own the blocks.
    """

    def __init__(
        self,
        plan: PhysicalPlan,
        cost_model: CostModel,
        sources: Sequence[SourceSpec],
        num_blocks: int,
        placement: PlacementLike = "round_robin",
        cluster_config: Optional[MultiSourceConfig] = None,
        stream_processors: Optional[Sequence[Optional[StreamProcessorNode]]] = None,
        migration: Optional[MigrationPolicy] = None,
    ) -> None:
        """``stream_processors`` optionally overrides the template's SP node
        per block (heterogeneous deployments: some blocks faster than
        others).  ``None`` entries keep the ``cluster_config`` template; the
        per-block ingress bandwidths are handed to capacity-aware placement
        policies as block weights, so a faster block absorbs more of a
        byte-rate-balanced fleet.

        ``migration`` enables dynamic re-placement: the policy is consulted
        after every epoch and its decisions are executed as live migrations
        (:meth:`migrate`).  Without a policy the placement is frozen at
        construction and the executor behaves exactly as before.
        """
        if num_blocks <= 0:
            raise SimulationError(f"num_blocks must be positive, got {num_blocks!r}")
        if not sources:
            raise SimulationError("sharded executor needs at least one source")
        names = [spec.name for spec in sources]
        if len(set(names)) != len(names):
            raise SimulationError(f"source names must be unique, got {names!r}")

        self.plan = plan
        self.cost_model = cost_model
        self.cluster_config = cluster_config or MultiSourceConfig()
        self.placement = make_placement(placement)

        if stream_processors is None:
            stream_processors = [None] * num_blocks
        if len(stream_processors) != num_blocks:
            raise SimulationError(
                f"got {len(stream_processors)} per-block stream processors "
                f"for {num_blocks} blocks"
            )
        self._block_nodes: List[StreamProcessorNode] = [
            node if node is not None else self.cluster_config.stream_processor
            for node in stream_processors
        ]
        block_weights = [node.ingress_bandwidth_mbps for node in self._block_nodes]

        assignment = list(
            self.placement.assign(sources, num_blocks, block_weights=block_weights)
        )
        if len(assignment) != len(sources):
            raise SimulationError(
                f"placement {self.placement.name!r} returned {len(assignment)} "
                f"assignments for {len(sources)} sources"
            )
        groups: List[List[SourceSpec]] = [[] for _ in range(num_blocks)]
        for spec, block in zip(sources, assignment):
            if not 0 <= block < num_blocks:
                raise SimulationError(
                    f"placement {self.placement.name!r} sent {spec.name!r} to "
                    f"block {block}, but only blocks 0..{num_blocks - 1} exist"
                )
            groups[block].append(spec)
        # Blocks without sources are legitimate: a tiling wider than the
        # fleet, or a migration that drained a block, leaves idle blocks
        # stepping zero-byte epochs with their capacity still counted in the
        # fleet-wide ClusterEpochMetrics merge (they can also receive
        # migrated sources later).

        self._groups = groups
        self._assignment: Dict[str, int] = {
            spec.name: block for spec, block in zip(sources, assignment)
        }
        self.blocks: List[MultiSourceExecutor] = [
            MultiSourceExecutor(
                plan=plan,
                cost_model=cost_model,
                sources=group,
                cluster_config=(
                    self.cluster_config
                    if node is self.cluster_config.stream_processor
                    else replace(self.cluster_config, stream_processor=node)
                ),
                allow_empty_fleet=True,
            )
            for group, node in zip(groups, self._block_nodes)
        ]
        self._epoch = 0
        self.migration = migration
        self._migration_events: List[MigrationEvent] = []
        self._placement_epochs: List[Dict[str, int]] = []

    # -- block access (the two primitives a worker pool overrides) ----------------

    def _blockwise(self, fn: Callable[[int, MultiSourceExecutor], T]) -> List[T]:
        """``fn(index, block)`` for every block, results in block order.

        ``fn`` must pickle by reference (a module-level function, or a
        ``functools.partial`` of one) so a worker pool can ship it.
        """
        return [fn(index, block) for index, block in enumerate(self.blocks)]

    def _handoff(
        self, source_name: str, from_block: int, to_block: int
    ) -> SourceMigrationState:
        """Detach one source from ``from_block`` and attach it to ``to_block``."""
        state = self.blocks[from_block].detach_source(source_name)
        self.blocks[to_block].attach_source(state)
        return state

    # -- introspection -----------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def num_sources(self) -> int:
        return len(self._assignment)

    def source_names(self) -> List[str]:
        """Fleet source names, grouped by block in placement order.

        Read from the placement bookkeeping, which :meth:`migrate` keeps in
        the blocks' own order (a migrated source joins the end of its new
        block).
        """
        return [spec.name for group in self._groups for spec in group]

    def block_of(self, source_name: str) -> int:
        """Block index a source was placed on."""
        if source_name not in self._assignment:
            raise SimulationError(f"unknown source {source_name!r}")
        return self._assignment[source_name]

    def assignment(self) -> Dict[str, int]:
        """Copy of the full source -> block assignment."""
        return dict(self._assignment)

    def sp_backlog_records(self) -> int:
        """Records waiting for compute across every block's stream processor."""
        return sum(self._blockwise(_block_sp_backlog))

    def placement_report(self) -> Dict[str, object]:
        """Placement-imbalance statistics over estimated per-block rates."""
        block_rates = [
            sum(estimated_rate_mbps(spec) for spec in group)
            for group in self._groups
        ]
        low, high = min(block_rates), max(block_rates)
        return {
            "policy": self.placement.name,
            "sources_per_block": [len(group) for group in self._groups],
            "estimated_block_rates_mbps": block_rates,
            "block_ingress_mbps": [
                node.ingress_bandwidth_mbps for node in self._block_nodes
            ],
            "rate_imbalance_ratio": high / low if low > 0 else float("inf"),
            "rate_stdev_mbps": (
                statistics.pstdev(block_rates) if len(block_rates) > 1 else 0.0
            ),
        }

    def record_conservation_report(self) -> Dict[str, Dict[str, object]]:
        """Per-source record accounting, merged across blocks (names disjoint)."""
        report: Dict[str, Dict[str, object]] = {}
        for block_report in self._blockwise(_block_conservation_report):
            report.update(block_report)
        return report

    def verify_record_conservation(self) -> List[str]:
        """Conservation violations across every block (empty means none)."""
        return [
            f"block {index}: {violation}"
            for index, violations in enumerate(self._blockwise(_block_violations))
            for violation in violations
        ]

    def migration_events(self) -> List[MigrationEvent]:
        """Live migrations executed so far, in execution order."""
        return list(self._migration_events)

    # -- execution ----------------------------------------------------------------

    def migrate(
        self, source_name: str, to_block: int, reason: str = ""
    ) -> MigrationEvent:
        """Live-migrate one source to another block, between epochs.

        Executes the handoff protocol: the source's engine state (pipeline,
        strategy, conservation counters, carryover queue with its in-flight
        partial-transfer progress) detaches from its current block, its
        queued bytes move from the old block's shared link to the new one,
        and its SP-backlog items re-queue at the destination stream
        processor — record conservation and per-source metric timelines stay
        continuous across the move.  Blocks step in lockstep, so the move is
        valid at any epoch boundary (including epoch 0).
        """
        from_block = self.block_of(source_name)
        if not 0 <= to_block < self.num_blocks:
            raise SimulationError(
                f"cannot migrate {source_name!r} to block {to_block}; only "
                f"blocks 0..{self.num_blocks - 1} exist"
            )
        if from_block == to_block:
            raise SimulationError(
                f"source {source_name!r} is already on block {to_block}"
            )
        handoff = self._handoff(source_name, from_block, to_block)
        self._assignment[source_name] = to_block
        spec = next(
            spec for spec in self._groups[from_block] if spec.name == source_name
        )
        self._groups[from_block].remove(spec)
        self._groups[to_block].append(spec)
        event = MigrationEvent(
            epoch=self._epoch,
            source=source_name,
            from_block=from_block,
            to_block=to_block,
            moved_bytes=handoff.requeue_bytes,
            in_flight_records=handoff.in_flight_records,
            reason=reason,
        )
        self._migration_events.append(event)
        return event

    def run_epoch(self) -> Dict[str, EpochMetrics]:
        """Step every block one epoch in lockstep.

        With a migration policy configured, the policy is consulted after
        the blocks step (per-block link/SP measurements plus each source's
        measured offered bytes) and its decisions execute immediately, so
        the new placement is in effect for the next epoch.  Returns
        fleet-wide per-source epoch metrics keyed by source name.
        """
        self._epoch += 1
        metrics: Dict[str, EpochMetrics] = {}
        block_epochs: List[ClusterEpochMetrics] = []
        for block_metrics, block_epoch in self._blockwise(_step_block):
            metrics.update(block_metrics)
            block_epochs.append(block_epoch)
        self._last_cluster_epoch = ClusterEpochMetrics.merge(block_epochs)
        if self.migration is not None:
            decisions = self.migration.decide(
                epoch=self._epoch,
                block_epochs=block_epochs,
                assignment=self.assignment(),
                offered_bytes={
                    name: em.network_bytes_offered for name, em in metrics.items()
                },
            )
            for decision in decisions:
                self.migrate(
                    decision.source, decision.to_block, reason=decision.reason
                )
            self._placement_epochs.append(self.assignment())
        return metrics

    def run(
        self, num_epochs: int, warmup_epochs: Optional[int] = None
    ) -> ClusterMetrics:
        """Run ``num_epochs`` epochs on every block; returns fleet-wide metrics.

        The result aggregates every source's timeline plus the summed
        shared-resource measurements of all blocks
        (:meth:`ClusterMetrics.merged`); ``metadata`` carries the block
        structure (placement report and per-block summaries).  With one block
        this is numerically identical to :meth:`MultiSourceExecutor.run`.

        Blocks accumulate pipeline and carryover state as they step, so a run
        must start from a fresh executor: calling ``run`` after any epoch has
        been stepped (via ``run`` or ``run_epoch``) raises
        :class:`SimulationError`.  With or without a migration policy the
        epoch counter ends at ``num_epochs``: a later :meth:`migrate` stamps
        its event with the epochs the run stepped, and :meth:`run_epoch`
        continues the count.
        """
        if num_epochs <= 0:
            raise SimulationError(f"num_epochs must be positive, got {num_epochs!r}")
        stepped = max(self._epoch, *self._blockwise(_block_epochs_run))
        if stepped:
            raise SimulationError(
                f"run() needs a fresh executor, but {stepped} epoch(s) have "
                "already been stepped; build a new executor for a new run"
            )
        warmup = (
            self.cluster_config.warmup_epochs if warmup_epochs is None else warmup_epochs
        )
        if self.migration is not None:
            return self._run_lockstep(num_epochs, warmup)
        # Without migration, blocks never share state, so running each block
        # to completion is numerically identical to lockstep stepping (which
        # run_epoch still offers for per-epoch drivers) and reuses
        # MultiSourceExecutor.run's metric assembly instead of mirroring it.
        block_metrics = self._blockwise(
            functools.partial(_run_block, num_epochs, warmup)
        )
        self._epoch = num_epochs
        return ClusterMetrics.merged(
            block_metrics,
            metadata={
                **self._run_metadata(),
                "per_block_summary": [m.summary() for m in block_metrics],
            },
        )

    def _run_lockstep(self, num_epochs: int, warmup: int) -> ClusterMetrics:
        """Run with dynamic re-placement: lockstep epochs, policy in the loop.

        Sources move between blocks mid-run, so per-source timelines are
        collected fleet-wide (one :class:`RunMetrics` per source, continuous
        across moves) instead of per block; the per-block shared-resource
        measurements still merge into one fleet view per epoch.  A policy
        that never migrates reproduces the per-block-completion path of
        :meth:`run` bit-exactly (test-enforced): blocks only interact
        through executed moves.
        """
        cluster = ClusterMetrics(
            epoch_duration_s=self.cluster_config.config.epoch.duration_s,
            warmup_epochs=warmup,
            metadata=self._run_metadata(),
        )
        # Building collectors reads only construction-time fields (names,
        # strategy labels, epoch duration), so blocks that never stepped (the
        # parallel controller's fork snapshot) serve as well as live ones;
        # the placement bookkeeping supplies the order.
        collectors: Dict[str, RunMetrics] = {}
        for block in self.blocks:
            collectors.update(block._prepare_run_collectors(warmup)[1])
        per_source_runs = {name: collectors[name] for name in self.source_names()}
        for _ in range(num_epochs):
            epoch_metrics = self.run_epoch()
            for name, em in epoch_metrics.items():
                per_source_runs[name].record(em)
            cluster.record_cluster_epoch(self._last_cluster_epoch)
        for name, run_metrics in per_source_runs.items():
            cluster.register_source(name, run_metrics)
        cluster.metadata.update(
            {
                "migration_policy": self.migration.name,
                "migrations": [
                    event.as_dict() for event in self._migration_events
                ],
                "placement_epochs": [
                    dict(snapshot) for snapshot in self._placement_epochs
                ],
                "final_assignment": self.assignment(),
            }
        )
        return cluster

    def _run_metadata(self) -> Dict[str, object]:
        """The block structure every run result carries in its metadata."""
        block = self.blocks[0]
        return {
            "query": self.plan.query_name,
            "num_sources": self.num_sources,
            "num_blocks": self.num_blocks,
            "ingress_bandwidth_mbps": block.link.bandwidth_mbps,
            "sp_compute_capacity_s": block.sp_compute_capacity_s,
            "placement": self.placement_report(),
        }


# -- per-block steps ---------------------------------------------------------------
#
# What the executor hands to ``_blockwise``.  Module-level so a worker pool can
# unpickle them by reference and run them in the process owning each block.


def _step_block(
    index: int, block: MultiSourceExecutor
) -> Tuple[Dict[str, EpochMetrics], ClusterEpochMetrics]:
    """Step one block one epoch: per-source and shared-resource metrics."""
    metrics = block.run_epoch()
    return metrics, block._last_cluster_epoch


def _run_block(
    num_epochs: int, warmup: int, index: int, block: MultiSourceExecutor
) -> ClusterMetrics:
    """Run one block to completion (the no-migration whole-run path)."""
    metrics = block.run(num_epochs, warmup_epochs=warmup)
    metrics.metadata["block"] = index
    return metrics


def _block_epochs_run(index: int, block: MultiSourceExecutor) -> int:
    return block.epochs_run


def _block_sp_backlog(index: int, block: MultiSourceExecutor) -> int:
    return block.sp_backlog_records()


def _block_violations(index: int, block: MultiSourceExecutor) -> List[str]:
    return block.verify_record_conservation()


def _block_conservation_report(
    index: int, block: MultiSourceExecutor
) -> Dict[str, Dict[str, object]]:
    return block.record_conservation_report()
