"""Co-located multi-query execution: several queries sharing one SP node.

The paper's stream processor is not dedicated to a single query: Figure 11
measures aggregate throughput when ~20 query instances are co-located on the
same node.  :class:`CoLocatedBlockExecutor` reproduces that sharing at the
cluster scale of the core building block: N independent
:class:`~repro.simulation.multisource.MultiSourceExecutor`-style queries —
each with its own physical plan, cost model, and source fleet — are stepped
in lockstep against ONE :class:`~repro.simulation.node.StreamProcessorNode`.

Two shared resources are arbitrated hierarchically per epoch:

* **Ingress link** — a single :class:`~repro.simulation.network.NetworkLink`
  over the node's ingress bandwidth is split in two tiers.  Tier 1 divides
  the epoch's capacity *across queries* by weighted max-min fairness
  (:func:`~repro.simulation.network.weighted_max_min_fair_share` on each
  query's ``ingress_weight``): a query demanding less than its weighted
  entitlement keeps only its demand and the surplus is redistributed to its
  backlogged neighbours, so the link is work-conserving — an idle query never
  strands capacity.  Tier 2 then divides each query's granted byte budget
  *across its own sources* with the same per-source max-min water-filling a
  standalone ``MultiSourceExecutor`` applies to the whole link.
* **SP compute** — the node's per-epoch core-seconds are split by each
  query's ``sp_compute_share`` (shares must sum to at most 1; the slack is
  headroom the operator reserved).  Further drain passes then water-fill
  compute that one query's share left unused into the queries whose
  backlogs are still non-empty, proportionally to their shares, until the
  surplus is exhausted or nobody is hungry — the compute analogue of the
  link's work conservation.

A single co-located query with ``sp_compute_share=1.0`` reproduces a
standalone ``MultiSourceExecutor`` *exactly* (test-enforced): the tier-1
grant degenerates to the full link capacity, the compute split to the full
cap, and every phase runs the same arithmetic in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import JarvisConfig
from ..errors import SimulationError, require_finite
from ..query.physical_plan import PhysicalPlan
from .cost_model import CostModel
from .metrics import ClusterMetrics, EpochMetrics, MultiQueryMetrics, RunMetrics
from .multisource import MultiSourceConfig, MultiSourceExecutor, SourceSpec
from .network import NetworkLink, weighted_max_min_fair_share
from .node import StreamProcessorNode

#: Tolerance for "the compute shares sum to at most one".
_SHARE_TOLERANCE = 1e-9


@dataclass
class QuerySpec:
    """One co-located query: its plan, cost model, fleet, and entitlements.

    Attributes:
        name: Unique query identifier within the co-located block.
        plan: The query's physical plan (source/SP operator split).
        cost_model: Per-operator cost model for this query.
        sources: The query's own source fleet (each source keeps its own
            workload, budget schedule, and strategy instance, exactly as in a
            standalone :class:`MultiSourceExecutor`).
        sp_compute_share: Fraction of the SP node's cores reserved for this
            query.  ``None`` means "an equal split of whatever the explicit
            shares leave over".  Explicit shares across a block must sum to
            at most 1.
        ingress_weight: Weight of this query in the tier-1 weighted max-min
            split of the shared ingress link.
        config: Jarvis configuration bundle shared by this query's sources.
            Every co-located query must use the same epoch duration (the
            block steps in lockstep).
    """

    name: str
    plan: PhysicalPlan
    cost_model: CostModel
    sources: Sequence[SourceSpec]
    sp_compute_share: Optional[float] = None
    ingress_weight: float = 1.0
    config: JarvisConfig = field(default_factory=JarvisConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("query name must be non-empty")
        require_finite(
            "sp_compute_share", self.sp_compute_share, error=SimulationError
        )
        require_finite(
            "ingress_weight", self.ingress_weight, positive=True,
            error=SimulationError,
        )
        if self.sp_compute_share is not None and not (
            0.0 < self.sp_compute_share <= 1.0
        ):
            raise SimulationError(
                f"sp_compute_share must be within (0, 1] or None, "
                f"got {self.sp_compute_share!r}"
            )


def _resolve_compute_shares(queries: Sequence[QuerySpec]) -> List[float]:
    """Final per-query compute shares: explicit values kept, the remainder
    split equally among queries that left their share unset."""
    explicit_sum = sum(
        q.sp_compute_share for q in queries if q.sp_compute_share is not None
    )
    if explicit_sum > 1.0 + _SHARE_TOLERANCE:
        raise SimulationError(
            "sp_compute_share values must sum to at most 1 across co-located "
            f"queries, got {explicit_sum!r}"
        )
    unset = [q.name for q in queries if q.sp_compute_share is None]
    if unset:
        remainder = 1.0 - explicit_sum
        if remainder <= _SHARE_TOLERANCE:
            raise SimulationError(
                f"queries {unset!r} have no sp_compute_share and the explicit "
                "shares already claim the whole stream processor"
            )
        default_share = remainder / len(unset)
    shares: List[float] = []
    for q in queries:
        shares.append(
            q.sp_compute_share if q.sp_compute_share is not None else default_share
        )
    return shares


class CoLocatedBlockExecutor:
    """Steps N independent queries in lockstep against one SP node.

    Each query runs as its own :class:`MultiSourceExecutor` engine — own
    pipelines, own SP-side replica, own carryover queues — but the engines'
    link-arbitration and SP-drain phases are driven with externally granted
    budgets instead of the whole node: the block owns the single shared
    ingress link and the node's compute, and splits both hierarchically (see
    the module docstring for the two-tier arbitration).
    """

    def __init__(
        self,
        queries: Sequence[QuerySpec],
        stream_processor: Optional[StreamProcessorNode] = None,
        warmup_epochs: int = 0,
        record_mode: str = "object",
    ) -> None:
        if not queries:
            raise SimulationError("co-located executor needs at least one query")
        names = [q.name for q in queries]
        if len(set(names)) != len(names):
            raise SimulationError(f"query names must be unique, got {names!r}")
        epoch_durations = {q.config.epoch.duration_s for q in queries}
        if len(epoch_durations) != 1:
            raise SimulationError(
                "co-located queries must share one epoch duration, got "
                f"{sorted(epoch_durations)}"
            )

        self.queries = list(queries)
        self.warmup_epochs = warmup_epochs
        self.epoch_duration_s = queries[0].config.epoch.duration_s

        self.stream_processor = stream_processor or StreamProcessorNode()
        self.link: NetworkLink = self.stream_processor.ingress_link(
            self.epoch_duration_s
        )
        self.sp_compute_capacity_s = self.stream_processor.compute_capacity_per_epoch(
            self.epoch_duration_s
        )

        self._shares = _resolve_compute_shares(queries)
        self._weights = [q.ingress_weight for q in queries]
        self._engines: List[MultiSourceExecutor] = [
            MultiSourceExecutor(
                plan=q.plan,
                cost_model=q.cost_model,
                sources=q.sources,
                cluster_config=MultiSourceConfig(
                    config=q.config,
                    stream_processor=self.stream_processor,
                    sp_compute_share=share,
                    warmup_epochs=warmup_epochs,
                    record_mode=record_mode,
                ),
            )
            for q, share in zip(queries, self._shares)
        ]
        self._epoch = 0

    # -- introspection -----------------------------------------------------------

    @property
    def num_queries(self) -> int:
        return len(self.queries)

    def compute_shares(self) -> Dict[str, float]:
        """Resolved per-query compute shares (explicit plus defaulted)."""
        return {q.name: share for q, share in zip(self.queries, self._shares)}

    def sp_backlog_records(self) -> int:
        """Records waiting for SP compute across every co-located query."""
        return sum(engine.sp_backlog_records() for engine in self._engines)

    def record_conservation_report(self) -> Dict[str, Dict[str, object]]:
        """Per-query, per-source record accounting."""
        return {
            q.name: engine.record_conservation_report()
            for q, engine in zip(self.queries, self._engines)
        }

    def verify_record_conservation(self) -> List[str]:
        """Conservation violations across every query (empty means none)."""
        violations: List[str] = []
        for q, engine in zip(self.queries, self._engines):
            violations.extend(
                f"query {q.name}: {violation}"
                for violation in engine.verify_record_conservation()
            )
        return violations

    # -- execution ----------------------------------------------------------------

    def run_epoch(self) -> Dict[str, Dict[str, EpochMetrics]]:
        """Step every query one epoch under the two-tier arbitration.

        Returns per-source epoch metrics nested under each query's name.
        """
        self._epoch += 1
        engines = self._engines

        # Phase 1: every query's sources run one epoch.  Each engine's own
        # link keeps the per-query byte-queue bookkeeping (the block's shared
        # link contributes only its capacity to the tier-1 split).
        offered = [engine._run_sources() for engine in engines]
        for engine, offered_bytes in zip(engines, offered):
            engine.link.offer(offered_bytes)

        # Phase 2, tier 1: weighted max-min across queries (work-conserving),
        # tier 2: each query runs its own per-source max-min within its grant.
        demands = [engine.total_remaining_demand() for engine in engines]
        grants = weighted_max_min_fair_share(
            demands, self._weights, self.link.capacity_bytes_per_epoch
        )
        shipped: List[List[float]] = []
        unsent: List[List[float]] = []
        contending: List[int] = []
        transmits = []
        for engine, grant in zip(engines, grants):
            shipped_bytes, unsent_bytes, contending_sources = engine._ship_fair_share(
                grant
            )
            shipped.append(shipped_bytes)
            unsent.append(unsent_bytes)
            contending.append(contending_sources)
            transmits.append(engine.link.transmit_epoch(max_bytes=sum(shipped_bytes)))

        # Phase 3: SP compute, split by sp_compute_share.  Free items (state
        # merges, final records) always drain; record batches get one pass at
        # the query's own share, then further passes share out whatever
        # compute the other queries' slices left idle.  The
        # redistribution water-fills like the link tier: surplus a hungry
        # query cannot absorb (its backlog drains mid-pass) is re-offered to
        # the queries still backlogged, until the surplus is exhausted or
        # nobody is hungry.
        for engine in engines:
            engine._drain_sp_free()
        cpu_by_query = [
            engine._drain_sp_pending(engine.sp_compute_capacity_s)
            for engine in engines
        ]
        if len(engines) > 1:
            assigned = sum(engine.sp_compute_capacity_s for engine in engines)
            leftover = assigned - sum(sum(cpu.values()) for cpu in cpu_by_query)
            while leftover > 1e-12:
                hungry = [
                    i for i, engine in enumerate(engines) if engine._sp_pending
                ]
                if not hungry:
                    break
                hungry_share = sum(self._shares[i] for i in hungry)
                for i in hungry:
                    extra = engines[i]._drain_sp_pending(
                        leftover * self._shares[i] / hungry_share
                    )
                    for name, cpu in extra.items():
                        cpu_by_query[i][name] = cpu_by_query[i].get(name, 0.0) + cpu
                remaining = assigned - sum(sum(cpu.values()) for cpu in cpu_by_query)
                if remaining >= leftover - 1e-12:
                    break  # nobody absorbed anything; the surplus is final
                leftover = remaining
        # Every query's SP ticks its epoch clock once, discarding the window
        # outputs nobody reads (as a standalone block does).
        for engine in engines:
            engine.sp_pipeline.advance_epoch()

        # Phase 4: per-query metrics.  Each query's capacity view is its
        # *static entitlement* — the weighted slice of the link and its
        # compute share — so per-query utilisation reads relative to the
        # entitlement and can legitimately exceed 1.0 when work conservation
        # hands the query an idle neighbour's share.  The drain-rate estimate
        # is the better of that entitlement and what tier 1 actually granted
        # this epoch (idle neighbours make the real rate exceed the slice).
        # A sole query bypasses the slice arithmetic so the standalone
        # executor's numbers are reproduced bit-for-bit.
        total_weight = sum(self._weights)
        metrics: Dict[str, Dict[str, EpochMetrics]] = {}
        for index, (q, engine) in enumerate(zip(self.queries, engines)):
            if len(engines) == 1:
                capacity_bytes = self.link.capacity_bytes_per_epoch
                link_rate = engine.link.bytes_per_second
            else:
                capacity_bytes = self.link.capacity_bytes_per_epoch * (
                    self._weights[index] / total_weight
                )
                link_rate = (
                    max(grants[index], capacity_bytes) / self.epoch_duration_s
                )
            metrics[q.name] = engine._finish_epoch(
                offered_bytes=offered[index],
                shipped_bytes=shipped[index],
                unsent_bytes=unsent[index],
                contending_sources=contending[index],
                sent_bytes=transmits[index].sent_bytes,
                queued_bytes=transmits[index].queued_bytes,
                sp_cpu_by_source=cpu_by_query[index],
                link_rate_bytes_per_s=link_rate,
                capacity_bytes=capacity_bytes,
            )
        self._last_query_epochs = {
            q.name: engine._last_cluster_epoch
            for q, engine in zip(self.queries, engines)
        }
        return metrics

    def run(
        self, num_epochs: int, warmup_epochs: Optional[int] = None
    ) -> MultiQueryMetrics:
        """Run ``num_epochs`` epochs; returns per-query + aggregate metrics.

        Like :meth:`MultiSourceExecutor.run`, a run must start from a fresh
        executor: reuse raises :class:`SimulationError`.
        """
        if num_epochs <= 0:
            raise SimulationError(f"num_epochs must be positive, got {num_epochs!r}")
        if self._epoch != 0:
            raise SimulationError(
                f"run() needs a fresh executor, but {self._epoch} epoch(s) have "
                "already been stepped; build a new executor for a new run"
            )
        warmup = self.warmup_epochs if warmup_epochs is None else warmup_epochs
        collectors: Dict[str, Tuple[ClusterMetrics, Dict[str, RunMetrics]]] = {}
        for q, engine, share in zip(self.queries, self._engines, self._shares):
            cluster, per_source = engine._prepare_run_collectors(warmup)
            cluster.metadata.update(
                {
                    "query": q.name,
                    "sp_compute_share": share,
                    "ingress_weight": q.ingress_weight,
                }
            )
            collectors[q.name] = (cluster, per_source)
        for _ in range(num_epochs):
            epoch_metrics = self.run_epoch()
            for name, per_source_metrics in epoch_metrics.items():
                cluster, per_source_runs = collectors[name]
                for source_name, em in per_source_metrics.items():
                    per_source_runs[source_name].record(em)
                cluster.record_cluster_epoch(self._last_query_epochs[name])
        result = MultiQueryMetrics(
            epoch_duration_s=self.epoch_duration_s,
            warmup_epochs=warmup,
            metadata={
                "num_queries": self.num_queries,
                "ingress_bandwidth_mbps": self.link.bandwidth_mbps,
                "sp_compute_capacity_s": self.sp_compute_capacity_s,
                "compute_shares": self.compute_shares(),
                "ingress_weights": {
                    q.name: q.ingress_weight for q in self.queries
                },
            },
        )
        for name, (cluster, per_source_runs) in collectors.items():
            for source_name, run_metrics in per_source_runs.items():
                cluster.register_source(source_name, run_metrics)
            result.register_query(name, cluster)
        return result
