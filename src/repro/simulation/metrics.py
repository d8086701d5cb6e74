"""Run metrics: throughput, network traffic, latency, convergence.

The paper's evaluation reports three metrics (Section VI-A):

* **query processing throughput** in Mbps with a latency bound of 5 seconds,
* **epoch processing latency** in seconds,
* **convergence duration** in epochs after a resource-condition change.

:class:`EpochMetrics` captures what happened in one epoch;
:class:`RunMetrics` aggregates a run and exposes the reported quantities.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.state import QueryState, RuntimePhase
from ..errors import SimulationError
from ..query.records import half_up


@dataclass(frozen=True)
class EpochMetrics:
    """Measurements for a single epoch of a single data source."""

    epoch: int
    input_bytes: float
    goodput_bytes: float
    network_bytes_offered: float
    network_bytes_sent: float
    network_queue_bytes: float
    cpu_used_seconds: float
    cpu_budget_seconds: float
    sp_cpu_seconds: float
    source_backlog_records: int
    latency_s: float
    query_state: Optional[QueryState] = None
    runtime_phase: Optional[RuntimePhase] = None
    load_factors: Sequence[float] = ()

    @property
    def cpu_utilization(self) -> float:
        """Fraction of the CPU budget actually used this epoch."""
        if self.cpu_budget_seconds <= 0:
            return 0.0
        return min(1.0, self.cpu_used_seconds / self.cpu_budget_seconds)


def _mbps(total_bytes: float, seconds: float) -> float:
    if seconds <= 0:
        raise SimulationError(f"duration must be positive, got {seconds!r}")
    return total_bytes * 8.0 / 1e6 / seconds


@dataclass
class RunMetrics:
    """Aggregated metrics for one simulated run."""

    epoch_duration_s: float
    warmup_epochs: int = 0
    epochs: List[EpochMetrics] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def record(self, metrics: EpochMetrics) -> None:
        """Append one epoch's metrics."""
        self.epochs.append(metrics)

    # -- selection -----------------------------------------------------------

    def measured_epochs(self) -> List[EpochMetrics]:
        """Epochs after the warm-up period (the paper warms up for 3 minutes)."""
        return self.epochs[self.warmup_epochs :]

    def __len__(self) -> int:
        return len(self.epochs)

    # -- headline metrics ------------------------------------------------------

    def throughput_mbps(self, latency_bound_s: Optional[float] = None) -> float:
        """Average goodput in Mbps over the measurement window.

        Goodput counts input data that the system kept up with (input minus
        backlog growth at the source and in the network).  When a latency
        bound is given, epochs whose estimated latency exceeds the bound
        contribute nothing, matching the paper's bounded-latency throughput.
        """
        epochs = self.measured_epochs()
        if not epochs:
            return 0.0
        total = 0.0
        for em in epochs:
            if latency_bound_s is not None and em.latency_s > latency_bound_s:
                continue
            total += em.goodput_bytes
        return _mbps(total, len(epochs) * self.epoch_duration_s)

    def offered_mbps(self) -> float:
        """Average offered input rate in Mbps over the measurement window."""
        epochs = self.measured_epochs()
        if not epochs:
            return 0.0
        total = sum(em.input_bytes for em in epochs)
        return _mbps(total, len(epochs) * self.epoch_duration_s)

    def network_mbps(self) -> float:
        """Average network traffic offered to the uplink, in Mbps."""
        epochs = self.measured_epochs()
        if not epochs:
            return 0.0
        total = sum(em.network_bytes_offered for em in epochs)
        return _mbps(total, len(epochs) * self.epoch_duration_s)

    def network_sent_mbps(self) -> float:
        """Average network traffic actually transmitted, in Mbps."""
        epochs = self.measured_epochs()
        if not epochs:
            return 0.0
        total = sum(em.network_bytes_sent for em in epochs)
        return _mbps(total, len(epochs) * self.epoch_duration_s)

    def median_latency_s(self) -> float:
        """Median epoch-processing latency over the measurement window."""
        epochs = self.measured_epochs()
        if not epochs:
            return 0.0
        return float(statistics.median(em.latency_s for em in epochs))

    def max_latency_s(self) -> float:
        """Maximum epoch-processing latency over the measurement window."""
        epochs = self.measured_epochs()
        if not epochs:
            return 0.0
        return max(em.latency_s for em in epochs)

    def mean_cpu_utilization(self) -> float:
        """Mean fraction of the CPU budget used."""
        epochs = self.measured_epochs()
        if not epochs:
            return 0.0
        return float(statistics.fmean(em.cpu_utilization for em in epochs))

    def mean_sp_cpu_seconds(self) -> float:
        """Mean stream-processor CPU seconds per epoch for this source."""
        epochs = self.measured_epochs()
        if not epochs:
            return 0.0
        return float(statistics.fmean(em.sp_cpu_seconds for em in epochs))

    # -- convergence -------------------------------------------------------------

    def state_timeline(self) -> List[Optional[QueryState]]:
        """Query state per epoch (None where no runtime was attached)."""
        return [em.query_state for em in self.epochs]

    def phase_timeline(self) -> List[Optional[RuntimePhase]]:
        """Runtime phase per epoch (None where no runtime was attached)."""
        return [em.runtime_phase for em in self.epochs]

    def convergence_epochs(self, change_epoch: int) -> Optional[int]:
        """Epochs needed after ``change_epoch`` to return to a settled state.

        Counts epochs from the resource change until the first epoch at which
        the query is settled and remains settled for at least two epochs (or
        the run ends).  An epoch is *settled* when the query is stable, or
        when it is idle with every load factor already at 1.0 (the whole query
        runs at the source and there is simply spare budget — nothing left to
        adapt).  Returns ``None`` if the run never re-settles.
        """

        def settled(index: int) -> bool:
            state = self.epochs[index].query_state
            if state is QueryState.STABLE:
                return True
            if state is QueryState.IDLE:
                factors = self.epochs[index].load_factors
                return bool(factors) and all(p >= 1.0 - 1e-9 for p in factors)
            return False

        for i in range(change_epoch, len(self.epochs)):
            if not settled(i):
                continue
            following = range(i + 1, min(i + 3, len(self.epochs)))
            if all(settled(j) for j in following):
                return i - change_epoch
        return None

    def summary(self) -> Dict[str, float]:
        """Compact summary used by the experiment harness and benchmarks."""
        return {
            "throughput_mbps": self.throughput_mbps(),
            "offered_mbps": self.offered_mbps(),
            "network_mbps": self.network_mbps(),
            "median_latency_s": self.median_latency_s(),
            "max_latency_s": self.max_latency_s(),
            "cpu_utilization": self.mean_cpu_utilization(),
            "sp_cpu_seconds_per_epoch": self.mean_sp_cpu_seconds(),
        }


@dataclass(frozen=True)
class ClusterEpochMetrics:
    """Shared-resource measurements for one epoch of a multi-source run."""

    epoch: int
    #: New bytes every source enqueued for the shared ingress link.
    network_offered_bytes: float
    #: Bytes the shared link actually moved this epoch.
    network_sent_bytes: float
    #: Bytes still waiting in per-source carryover queues at epoch end.
    network_queued_bytes: float
    #: Link capacity for one epoch.
    network_capacity_bytes: float
    #: Stream-processor compute spent on this query's arrivals.
    sp_cpu_used_seconds: float
    #: Stream-processor compute available per epoch.
    sp_cpu_capacity_seconds: float
    #: Records parked at the stream processor waiting for compute.
    sp_backlog_records: int

    @property
    def network_utilization(self) -> float:
        if self.network_capacity_bytes <= 0:
            return 0.0
        return self.network_sent_bytes / self.network_capacity_bytes

    @property
    def sp_cpu_utilization(self) -> float:
        if self.sp_cpu_capacity_seconds <= 0:
            return 0.0
        return self.sp_cpu_used_seconds / self.sp_cpu_capacity_seconds

    @classmethod
    def merge(cls, parts: Sequence["ClusterEpochMetrics"]) -> "ClusterEpochMetrics":
        """Fleet-wide epoch measurements from per-block measurements.

        Every building block of a sharded deployment (Figure 4b tiling)
        contributes one :class:`ClusterEpochMetrics` for the same epoch; the
        fleet-wide view sums bytes, capacities, compute, and backlogs, so the
        utilisation properties become capacity-weighted fleet averages.
        """
        if not parts:
            raise SimulationError("cannot merge an empty set of cluster epochs")
        epochs = {part.epoch for part in parts}
        if len(epochs) != 1:
            raise SimulationError(
                f"cannot merge cluster epochs from different epochs: {sorted(epochs)}"
            )
        return cls(
            epoch=parts[0].epoch,
            network_offered_bytes=sum(p.network_offered_bytes for p in parts),
            network_sent_bytes=sum(p.network_sent_bytes for p in parts),
            network_queued_bytes=sum(p.network_queued_bytes for p in parts),
            network_capacity_bytes=sum(p.network_capacity_bytes for p in parts),
            sp_cpu_used_seconds=sum(p.sp_cpu_used_seconds for p in parts),
            sp_cpu_capacity_seconds=sum(p.sp_cpu_capacity_seconds for p in parts),
            sp_backlog_records=sum(p.sp_backlog_records for p in parts),
        )


@dataclass
class ClusterMetrics:
    """Aggregated metrics for a multi-source run.

    Combines one :class:`RunMetrics` per data source (heterogeneous sources
    keep their individual timelines) with per-epoch measurements of the two
    shared resources — the stream processor's ingress link and its compute.
    """

    epoch_duration_s: float
    warmup_epochs: int = 0
    per_source: Dict[str, RunMetrics] = field(default_factory=dict)
    cluster_epochs: List[ClusterEpochMetrics] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    # -- recording ------------------------------------------------------------

    def register_source(self, name: str, metrics: RunMetrics) -> None:
        if name in self.per_source:
            raise SimulationError(f"source {name!r} already registered")
        self.per_source[name] = metrics

    def record_cluster_epoch(self, metrics: ClusterEpochMetrics) -> None:
        self.cluster_epochs.append(metrics)

    @classmethod
    def merged(
        cls,
        blocks: Sequence["ClusterMetrics"],
        metadata: Optional[Dict[str, object]] = None,
    ) -> "ClusterMetrics":
        """Fleet-wide metrics from per-block runs of a sharded deployment.

        Per-source timelines are carried over unchanged (source names must be
        disjoint across blocks), and the shared-resource epoch measurements
        are summed index-wise via :meth:`ClusterEpochMetrics.merge`, so every
        block must have run the same number of epochs with the same epoch
        duration and warm-up.
        """
        if not blocks:
            raise SimulationError("cannot merge an empty set of cluster metrics")
        for attr in ("epoch_duration_s", "warmup_epochs"):
            values = {getattr(block, attr) for block in blocks}
            if len(values) != 1:
                raise SimulationError(
                    f"cannot merge blocks with differing {attr}: {sorted(values)}"
                )
        lengths = {len(block.cluster_epochs) for block in blocks}
        if len(lengths) != 1:
            raise SimulationError(
                f"cannot merge blocks with differing epoch counts: {sorted(lengths)}"
            )
        fleet = cls(
            epoch_duration_s=blocks[0].epoch_duration_s,
            warmup_epochs=blocks[0].warmup_epochs,
            metadata=dict(metadata or {}),
        )
        for block in blocks:
            for name, run_metrics in block.per_source.items():
                fleet.register_source(name, run_metrics)
        for parts in zip(*(block.cluster_epochs for block in blocks)):
            fleet.record_cluster_epoch(ClusterEpochMetrics.merge(parts))
        return fleet

    # -- selection -------------------------------------------------------------

    @property
    def num_sources(self) -> int:
        return len(self.per_source)

    def source_names(self) -> List[str]:
        return list(self.per_source)

    def measured_cluster_epochs(self) -> List[ClusterEpochMetrics]:
        return self.cluster_epochs[self.warmup_epochs :]

    # -- dynamic re-placement ----------------------------------------------------

    def migration_events(self) -> List[Dict[str, object]]:
        """Live migrations executed during the run (one dict per move).

        Populated by a dynamically-placed sharded run
        (``ShardedClusterExecutor`` with a migration policy); empty for
        static runs.  Each entry carries the epoch, source, source/target
        blocks, the queued bytes that moved links, and the policy's reason.
        """
        return list(self.metadata.get("migrations", []))

    def placement_timeline(self) -> List[Dict[str, int]]:
        """Per-epoch ``source -> block`` snapshots of a dynamic run.

        ``timeline[i]`` is the assignment after metric epoch ``i``'s
        migrations executed — the placement in effect *during* epoch
        ``i + 1`` (a migration event with ``epoch == e`` first appears in
        ``timeline[e - 1]``).  Empty for static runs, where the
        construction-time assignment in ``metadata['placement']`` is the
        whole story.
        """
        return [dict(snapshot) for snapshot in self.metadata.get("placement_epochs", [])]

    def num_migrations(self) -> int:
        """How many live migrations the run executed."""
        return len(self.metadata.get("migrations", []))

    # -- aggregate headline metrics ---------------------------------------------

    def aggregate_throughput_mbps(
        self, latency_bound_s: Optional[float] = None
    ) -> float:
        """Sum of per-source goodput, optionally under a latency bound."""
        return sum(
            metrics.throughput_mbps(latency_bound_s=latency_bound_s)
            for metrics in self.per_source.values()
        )

    def aggregate_offered_mbps(self) -> float:
        """Sum of per-source offered input rates."""
        return sum(metrics.offered_mbps() for metrics in self.per_source.values())

    def aggregate_network_mbps(self) -> float:
        """Average rate at which sources offered bytes to the shared link."""
        epochs = self.measured_cluster_epochs()
        if not epochs:
            return 0.0
        total = sum(em.network_offered_bytes for em in epochs)
        return _mbps(total, len(epochs) * self.epoch_duration_s)

    def network_sent_mbps(self) -> float:
        """Average rate the shared link actually sustained."""
        epochs = self.measured_cluster_epochs()
        if not epochs:
            return 0.0
        total = sum(em.network_sent_bytes for em in epochs)
        return _mbps(total, len(epochs) * self.epoch_duration_s)

    def network_utilization(self) -> float:
        """Mean utilisation of the shared ingress link."""
        epochs = self.measured_cluster_epochs()
        if not epochs:
            return 0.0
        return float(statistics.fmean(em.network_utilization for em in epochs))

    def sp_cpu_utilization(self) -> float:
        """Mean utilisation of the stream processor's compute capacity."""
        epochs = self.measured_cluster_epochs()
        if not epochs:
            return 0.0
        return float(statistics.fmean(em.sp_cpu_utilization for em in epochs))

    # -- latency ---------------------------------------------------------------

    def _all_latencies(self) -> List[float]:
        values: List[float] = []
        for metrics in self.per_source.values():
            values.extend(em.latency_s for em in metrics.measured_epochs())
        return values

    def median_latency_s(self) -> float:
        """Median epoch latency across every source and measured epoch."""
        values = self._all_latencies()
        return float(statistics.median(values)) if values else 0.0

    def max_latency_s(self) -> float:
        """Worst epoch latency across every source and measured epoch."""
        values = self._all_latencies()
        return max(values) if values else 0.0

    def latency_percentile_s(self, fraction: float) -> float:
        """Latency percentile (``fraction`` in [0, 1]) across the cluster."""
        if not 0.0 <= fraction <= 1.0:
            raise SimulationError(
                f"fraction must be within [0, 1], got {fraction!r}"
            )
        values = sorted(self._all_latencies())
        if not values:
            return 0.0
        index = min(len(values) - 1, half_up(fraction * (len(values) - 1)))
        return values[index]

    def summary(self) -> Dict[str, float]:
        """Compact cluster-level summary for experiments and benchmarks."""
        return {
            "num_sources": float(self.num_sources),
            "aggregate_throughput_mbps": self.aggregate_throughput_mbps(),
            "aggregate_offered_mbps": self.aggregate_offered_mbps(),
            "aggregate_network_mbps": self.aggregate_network_mbps(),
            "network_sent_mbps": self.network_sent_mbps(),
            "network_utilization": self.network_utilization(),
            "sp_cpu_utilization": self.sp_cpu_utilization(),
            "median_latency_s": self.median_latency_s(),
            "p95_latency_s": self.latency_percentile_s(0.95),
            "max_latency_s": self.max_latency_s(),
        }


@dataclass
class MultiQueryMetrics:
    """Aggregated metrics for a co-located multi-query run.

    One :class:`ClusterMetrics` per query (each query keeps the full
    per-source / shared-resource view of its own slice of the block) plus
    fleet-level aggregation across the queries sharing the stream processor —
    the measurement behind Figure 11 at cluster scale.
    """

    epoch_duration_s: float
    warmup_epochs: int = 0
    per_query: Dict[str, ClusterMetrics] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    # -- recording ------------------------------------------------------------

    def register_query(self, name: str, metrics: ClusterMetrics) -> None:
        if name in self.per_query:
            raise SimulationError(f"query {name!r} already registered")
        self.per_query[name] = metrics

    # -- selection -------------------------------------------------------------

    @property
    def num_queries(self) -> int:
        return len(self.per_query)

    # -- aggregate headline metrics ---------------------------------------------

    def aggregate_throughput_mbps(
        self, latency_bound_s: Optional[float] = None
    ) -> float:
        """Summed goodput of every co-located query, optionally latency-bounded."""
        return sum(
            metrics.aggregate_throughput_mbps(latency_bound_s=latency_bound_s)
            for metrics in self.per_query.values()
        )

    def aggregate_offered_mbps(self) -> float:
        """Summed offered input rate of every co-located query."""
        return sum(
            metrics.aggregate_offered_mbps() for metrics in self.per_query.values()
        )

    def per_query_throughput_mbps(
        self, latency_bound_s: Optional[float] = None
    ) -> Dict[str, float]:
        """Goodput per query (the per-instance curves of Figure 11)."""
        return {
            name: metrics.aggregate_throughput_mbps(latency_bound_s=latency_bound_s)
            for name, metrics in self.per_query.items()
        }

    def median_latency_s(self) -> float:
        """Median epoch latency across every query, source, and epoch."""
        values: List[float] = []
        for metrics in self.per_query.values():
            values.extend(metrics._all_latencies())
        return float(statistics.median(values)) if values else 0.0

    def max_latency_s(self) -> float:
        """Worst epoch latency across every query, source, and epoch."""
        values: List[float] = []
        for metrics in self.per_query.values():
            values.extend(metrics._all_latencies())
        return max(values) if values else 0.0

    def sp_cpu_utilization(self) -> float:
        """Summed SP compute use over the queries' combined entitlement.

        Each query's :class:`ClusterEpochMetrics` records its own compute
        share as capacity; weighting those shares back together yields the
        fraction of the compute the co-located queries were *entitled to*
        that they kept busy.  When the shares sum to 1 this equals whole-node
        utilisation; when the operator reserved headroom (shares summing
        below 1) the reserved slack is not counted as idle capacity here —
        divide by the node capacity in the executor's metadata
        (``sp_compute_capacity_s``) for the whole-node view.
        """
        used = 0.0
        capacity = 0.0
        for metrics in self.per_query.values():
            for em in metrics.measured_cluster_epochs():
                used += em.sp_cpu_used_seconds
                capacity += em.sp_cpu_capacity_seconds
        return used / capacity if capacity > 0 else 0.0

    def summary(self) -> Dict[str, object]:
        """Compact multi-query summary for experiments and benchmarks."""
        return {
            "num_queries": float(self.num_queries),
            "aggregate_throughput_mbps": self.aggregate_throughput_mbps(),
            "aggregate_offered_mbps": self.aggregate_offered_mbps(),
            "per_query_throughput_mbps": self.per_query_throughput_mbps(),
            "sp_cpu_utilization": self.sp_cpu_utilization(),
            "median_latency_s": self.median_latency_s(),
            "max_latency_s": self.max_latency_s(),
        }
