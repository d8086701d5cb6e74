"""Query setups, strategies, and run primitives shared by every scenario.

This module holds the setup-level layer the scenario runner executes specs
against: :func:`make_setup` builds a :class:`QuerySetup` for one of the
paper's three queries, :func:`make_strategy` instantiates the partitioning
strategies, :func:`run_single_source` runs one strategy on one data source,
and the fleet helpers (:func:`_cluster_sp_node` / :func:`_homogeneous_fleet`)
size the shared stream-processor node and build homogeneous source specs.

It lives here so the scenario layer never imports ``repro.analysis`` (which
sits above it); ``repro.analysis.experiments`` re-exports the setup names
its callers use (:func:`make_setup`, :func:`make_strategy`,
:func:`run_single_source`, :class:`HotspotWorkload`, ...).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..baselines import (
    AllSPStrategy,
    AllSrcStrategy,
    BestOPStrategy,
    FilterSrcStrategy,
    JarvisStrategy,
    LoadBalanceDPStrategy,
    LPOnlyStrategy,
    NoLPInitStrategy,
    PartitioningStrategy,
    static_profile,
)
from ..config import JarvisConfig
from ..core.profiler import PipelineProfile
from ..errors import ConfigurationError
from ..query.builder import (
    Query,
    log_analytics_query,
    s2s_probe_query,
    t2t_probe_query,
)
from ..query.physical_plan import PhysicalPlan
from ..query.records import IpToTorTable, half_up, record_size_bytes
from ..simulation.cost_model import CostModel
from ..simulation.executor import BuildingBlockExecutor, ExecutorConfig
from ..simulation.metrics import RunMetrics
from ..simulation.multisource import MultiSourceConfig, homogeneous_sources
from ..simulation.node import BudgetSchedule, StreamProcessorNode, as_budget_schedule
from ..simulation.pipeline import process_records
from ..workloads.dynamics import BurstSpec, WorkloadBurst
from ..workloads.loganalytics import (
    LogAnalyticsConfig,
    LogAnalyticsWorkload,
    log_analytics_cost_model,
)
from ..workloads.pingmesh import (
    PingmeshConfig,
    PingmeshWorkload,
    s2s_cost_model,
    t2t_cost_model,
)

#: Strategy names accepted by :func:`make_strategy`.
STRATEGY_NAMES = (
    "All-SP",
    "All-Src",
    "Filter-Src",
    "Best-OP",
    "LB-DP",
    "Jarvis",
    "LP only",
    "w/o LP-init",
)

#: Query names accepted by :func:`make_setup`.
QUERY_NAMES = ("s2s_probe", "t2t_probe", "log_analytics")

#: Input rates the paper reports per data source (after its 10x scaling).
PAPER_INPUT_MBPS = {"s2s_probe": 26.2, "t2t_probe": 26.2, "log_analytics": 49.6}

#: Per-query, per-source bandwidth after the paper's 10x scaling (Section VI-A).
PAPER_BANDWIDTH_MBPS = 20.48

#: The shared stream-processor ingress capacity used by the scaling model,
#: expressed as a multiple of one source's (10x) input rate.  Calibrated so the
#: knees of Figure 10 land where the paper reports them (Best-OP ~40 sources
#: and Jarvis ~70 at 5x; Jarvis ~32 at 10x; Best-OP ~180 and Jarvis >250 at 1x).
CLUSTER_CAPACITY_INPUT_MULTIPLE = 16.8

#: Per-query CPU demand for the Figure 11 experiment at each input scaling,
#: as reported by the paper (55% at 10x, 30% at 5x, 5% at no scaling).
MULTI_QUERY_DEMAND = {1.0: 0.55, 0.5: 0.30, 0.1: 0.05}


@dataclass
class QuerySetup:
    """Everything needed to run one of the paper's queries in the simulator."""

    name: str
    query: Query
    plan: PhysicalPlan
    cost_model: CostModel
    workload_factory: Callable[[int], object]
    records_per_epoch: int
    input_rate_mbps: float
    bandwidth_mbps: float
    byte_relays: List[float] = field(default_factory=list)
    count_relays: List[float] = field(default_factory=list)
    config: JarvisConfig = field(default_factory=JarvisConfig)
    join_table: Optional[IpToTorTable] = None

    @property
    def operator_names(self) -> List[str]:
        return [op.name for op in self.plan.operators]


def make_setup(
    query_name: str,
    records_per_epoch: int = 800,
    rate_scale: float = 1.0,
    table_size: int = 500,
    seed: int = 0,
    config: Optional[JarvisConfig] = None,
) -> QuerySetup:
    """Build a :class:`QuerySetup` for one of the paper's three queries.

    Args:
        query_name: ``"s2s_probe"``, ``"t2t_probe"``, or ``"log_analytics"``.
        records_per_epoch: Simulated records per epoch at the paper's 10x
            setting; the cost model is calibrated at this rate.
        rate_scale: Input-rate scale relative to the 10x setting (1.0 = 10x,
            0.5 = 5x, 0.1 = no scaling).
        table_size: Join-table size for T2TProbe (the paper uses 500).
        seed: Base RNG seed for the workload.
        config: Jarvis configuration override.
    """
    if query_name not in QUERY_NAMES:
        raise ConfigurationError(
            f"unknown query {query_name!r}; expected one of {QUERY_NAMES}"
        )
    config = config or JarvisConfig()
    scaled_records = max(1, half_up(records_per_epoch * rate_scale))

    if query_name == "log_analytics":
        base_cfg = LogAnalyticsConfig(lines_per_epoch=scaled_records, seed=seed)
        query = log_analytics_query()
        cost_model = log_analytics_cost_model(
            query, reference_records_per_second=records_per_epoch
        )

        def workload_factory(workload_seed: int) -> LogAnalyticsWorkload:
            cfg = LogAnalyticsConfig(
                lines_per_epoch=scaled_records,
                tenants=base_cfg.tenants,
                noise_fraction=base_cfg.noise_fraction,
                malformed_fraction=base_cfg.malformed_fraction,
                seed=workload_seed,
            )
            return LogAnalyticsWorkload(cfg)

        probe = workload_factory(seed)
        input_rate = probe.input_rate_mbps
        bandwidth = input_rate * PAPER_BANDWIDTH_MBPS / PAPER_INPUT_MBPS[query_name]
        join_table = None
    else:
        # Each server pair is probed roughly twice per 10-second window (one
        # probe every 5 seconds), so the grouping-key cardinality tracks the
        # scaled input rate; T2TProbe instead probes the peers covered by the
        # static join table ("table of size 500" in Figure 7b).
        peers = table_size if query_name == "t2t_probe" else 5 * scaled_records
        ping_cfg = PingmeshConfig(
            records_per_epoch=scaled_records, peers=peers, seed=seed
        )

        def workload_factory(workload_seed: int) -> PingmeshWorkload:
            cfg = PingmeshConfig(
                records_per_epoch=scaled_records,
                peers=peers,
                error_rate=ping_cfg.error_rate,
                seed=workload_seed,
            )
            return PingmeshWorkload(cfg)

        probe = workload_factory(seed)
        input_rate = probe.input_rate_mbps
        bandwidth = input_rate * PAPER_BANDWIDTH_MBPS / PAPER_INPUT_MBPS[query_name]
        if query_name == "s2s_probe":
            query = s2s_probe_query()
            cost_model = s2s_cost_model(
                query, reference_records_per_second=records_per_epoch
            )
            join_table = None
        else:
            join_table = probe.tor_table()
            query = t2t_probe_query(table=join_table)
            cost_model = t2t_cost_model(
                query, reference_records_per_second=records_per_epoch
            )

    plan = query.physical_plan()
    setup = QuerySetup(
        name=query_name,
        query=query,
        plan=plan,
        cost_model=cost_model,
        workload_factory=workload_factory,
        records_per_epoch=scaled_records,
        input_rate_mbps=input_rate,
        bandwidth_mbps=bandwidth,
        config=config,
        join_table=join_table,
    )
    setup.byte_relays, setup.count_relays = measure_relays(setup)
    return setup


def measure_relays(setup: QuerySetup, num_windows: int = 1, seed: int = 987) -> Tuple[List[float], List[float]]:
    """Measure byte- and count-based relay ratios of a query's operators.

    Runs one (or more) full windows of the workload through fresh operator
    clones, counting records and bytes entering/leaving every stage; stateful
    operators contribute their flush output at the window boundary.  Epochs
    run columnar when the workload builds batches (``batch_for_epoch``), on
    record objects otherwise, and a grouping operator's flush is counted
    (``group_count``, ``flush_bytes``) rather than materialized; both give
    the object path's numbers exactly.
    """
    operators = [op.clone() for op in setup.plan.operators]
    window_epochs = max(
        1, half_up(setup.plan.window_length_s / setup.config.epoch.duration_s)
    )
    workload = setup.workload_factory(seed)
    epoch_input = (
        getattr(workload, "batch_for_epoch", None) or workload.records_for_epoch
    )
    n = len(operators)
    in_counts = [0] * n
    out_counts = [0] * n
    in_bytes = [0.0] * n
    out_bytes = [0.0] * n

    for epoch in range(num_windows * window_epochs):
        current = epoch_input(epoch)
        for i, operator in enumerate(operators):
            in_counts[i] += len(current)
            in_bytes[i] += record_size_bytes(current)
            current = process_records(operator, current) if current else []
            out_counts[i] += len(current)
            out_bytes[i] += record_size_bytes(current)
        if (epoch + 1) % window_epochs == 0:
            for i, operator in enumerate(operators):
                group_count = getattr(operator, "group_count", None)
                if group_count is not None:
                    out_counts[i] += group_count()
                    out_bytes[i] += operator.flush_bytes()
                    continue
                flushed = operator.flush()
                out_counts[i] += len(flushed)
                out_bytes[i] += record_size_bytes(flushed)

    byte_relays = [
        min(1.0, out_bytes[i] / in_bytes[i]) if in_bytes[i] > 0 else 1.0
        for i in range(n)
    ]
    count_relays = [
        min(1.0, out_counts[i] / in_counts[i]) if in_counts[i] > 0 else 1.0
        for i in range(n)
    ]
    return byte_relays, count_relays


def ground_truth_profile(
    setup: QuerySetup, compute_budget: float, use_count_relays: bool = True
) -> PipelineProfile:
    """Accurate pipeline profile handed to model-based baselines."""
    relays = setup.count_relays if use_count_relays else setup.byte_relays
    return static_profile(
        operators=setup.plan.operators,
        cost_model=setup.cost_model,
        relay_ratios=relays,
        records_per_epoch=setup.records_per_epoch,
        compute_budget=compute_budget,
        epoch_duration_s=setup.config.epoch.duration_s,
    )


def make_strategy(
    name: str, setup: QuerySetup, compute_budget: float
) -> PartitioningStrategy:
    """Instantiate a partitioning strategy by name for the given setup."""
    if name == "All-SP":
        return AllSPStrategy()
    if name == "All-Src":
        return AllSrcStrategy()
    if name == "Filter-Src":
        return FilterSrcStrategy(setup.plan.operators)
    if name == "Best-OP":
        return BestOPStrategy(ground_truth_profile(setup, compute_budget))
    if name == "LB-DP":
        return LoadBalanceDPStrategy(ground_truth_profile(setup, compute_budget))
    if name == "Jarvis":
        return JarvisStrategy(setup.operator_names, config=setup.config)
    if name == "LP only":
        return LPOnlyStrategy(setup.operator_names, config=setup.config)
    if name == "w/o LP-init":
        return NoLPInitStrategy(setup.operator_names, config=setup.config)
    raise ConfigurationError(
        f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}"
    )


def run_single_source(
    setup: QuerySetup,
    strategy_name: str,
    budget: "float | BudgetSchedule",
    num_epochs: int = 40,
    warmup_epochs: int = 12,
    bandwidth_mbps: Optional[float] = None,
    seed: int = 1,
    events: Optional[Dict[int, Callable[[BuildingBlockExecutor, PartitioningStrategy], None]]] = None,
    strategy: Optional[PartitioningStrategy] = None,
) -> RunMetrics:
    """Run one strategy on one data source and return its metrics.

    ``events`` maps epoch indices to callables executed *before* that epoch,
    which is how mid-run changes (e.g. swapping the join table in Figure 8b,
    or manually resetting Jarvis' load factors) are injected.  Passing a
    ``strategy`` object overrides ``strategy_name`` (used by experiments that
    need a pre-configured strategy, e.g. fixed load factors in Figure 11).
    """
    schedule = as_budget_schedule(budget)
    initial_budget = schedule.budget_at(0)
    if strategy is None:
        strategy = make_strategy(strategy_name, setup, initial_budget)
    exec_config = ExecutorConfig(
        config=setup.config,
        bandwidth_mbps=bandwidth_mbps if bandwidth_mbps is not None else setup.bandwidth_mbps,
        warmup_epochs=warmup_epochs,
    )
    executor = BuildingBlockExecutor(
        plan=setup.plan,
        workload=setup.workload_factory(seed),
        cost_model=setup.cost_model,
        strategy=strategy,
        budget=schedule,
        executor_config=exec_config,
    )
    metrics = RunMetrics(
        epoch_duration_s=setup.config.epoch.duration_s,
        warmup_epochs=warmup_epochs,
        metadata={
            "strategy": strategy.name,
            "query": setup.name,
            "budget": initial_budget,
        },
    )
    for epoch in range(num_epochs):
        if events and epoch in events:
            events[epoch](executor, strategy)
        metrics.record(executor.run_epoch())
    metrics.metadata["strategy_object"] = strategy
    return metrics


def _cluster_sp_node(
    records_per_epoch: int,
    capacity_multiple: float = CLUSTER_CAPACITY_INPUT_MULTIPLE,
) -> StreamProcessorNode:
    """Shared-SP node whose ingress capacity matches the paper calibration.

    The capacity is anchored to the 10x-scaled input rate regardless of the
    experiment's ``rate_scale``: the shared link models the query's share of
    the SP's physical ingress, which does not shrink with the input setting.
    ``capacity_multiple`` overrides the calibrated multiple — the sharded
    sweep uses a smaller one so a CI-sized fleet saturates a single block.
    """
    input_at_10x = make_setup(
        "s2s_probe", records_per_epoch=records_per_epoch
    ).input_rate_mbps
    return StreamProcessorNode(ingress_bandwidth_mbps=capacity_multiple * input_at_10x)


def _homogeneous_fleet(
    setup: QuerySetup,
    strategy_name: str,
    budget: "float | BudgetSchedule",
    num_sources: int,
    stream_processor: Optional[StreamProcessorNode],
    warmup_epochs: int,
    seed: int,
    record_mode: str = "object",
):
    """Specs + block config shared by the single-block and sharded runners.

    Every source gets its own workload (seeded ``seed + index``) and its own
    strategy instance (decentralized runtimes, Section IV-A).  Returns
    ``(specs, cluster_config, initial_budget)``.
    """
    schedule = as_budget_schedule(budget)
    initial_budget = schedule.budget_at(0)
    sp_node = stream_processor or _cluster_sp_node(setup.records_per_epoch)
    specs = homogeneous_sources(
        num_sources,
        workload_factory=lambda index: setup.workload_factory(seed + index),
        strategy_factory=lambda index: make_strategy(
            strategy_name, setup, initial_budget
        ),
        budget=schedule,
    )
    cluster_config = MultiSourceConfig(
        config=setup.config,
        stream_processor=sp_node,
        warmup_epochs=warmup_epochs,
        record_mode=record_mode,
    )
    return specs, cluster_config, initial_budget


class HotspotWorkload(WorkloadBurst):
    """A workload whose record rate multiplies from ``shift_epoch`` onwards.

    The hotspot scenario behind the dynamic re-placement experiment: a burst
    of anomalies makes part of the fleet produce ``factor``x the records
    mid-run — a :class:`~repro.workloads.dynamics.WorkloadBurst` whose single
    burst starts at the shift and never ends.  Crucially the inherited
    ``input_rate_mbps`` keeps reporting the *nominal* (pre-shift) rate —
    construction-time placement is frozen on exactly this stale estimate,
    which is what dynamic re-placement reacts to.  Boosted epochs draw whole
    extra epochs (plus a fractional prefix) through the same arithmetic on
    the object and columnar paths, so both record modes consume identical
    data by construction; in arena mode the whole extra epochs of a
    Pingmesh base are units of its generation kernel, written straight into
    the block's arena with the other sources' epochs.
    """

    def __init__(self, base, shift_epoch: int, factor: float = 2.0) -> None:
        if factor < 1.0:
            raise ConfigurationError(
                f"hotspot factor must be >= 1, got {factor!r}"
            )
        bursts = (
            [BurstSpec(int(shift_epoch), sys.maxsize, float(factor))]
            if factor > 1.0
            else []
        )
        super().__init__(base, bursts)
        self.shift_epoch = int(shift_epoch)
        self.factor = float(factor)
