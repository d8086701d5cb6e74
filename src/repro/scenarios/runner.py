"""Execute :class:`~repro.scenarios.spec.ScenarioSpec` against the simulators.

Two layers live here:

* the **run primitives** — :func:`run_multi_source`, :func:`run_sharded`,
  :func:`run_multi_query`, :func:`dynamic_replacement_sweep`, and the
  closed-form :func:`multi_query_sweep` — moved verbatim from
  ``repro.analysis.experiments`` (which still re-exports them), each running
  one configuration against the right executor;
* the :class:`ScenarioRunner`, which expands a declarative spec's sweep axes
  into primitive calls and returns a :class:`ScenarioResult` carrying the
  legacy-shaped raw result, a formatted text table, the ``BENCH_*.json``
  payload, and a self-contained HTML report.

Fixed-seed equivalence with the pre-refactor ``experiments.py`` entry points
is test-enforced (``tests/test_scenarios.py`` pins golden numbers captured
before the refactor), so the spec-driven path and the keyword-argument path
must keep producing identical metrics.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import PINGMESH_RECORD_BYTES
from ..errors import ConfigurationError, SimulationError
from ..query.records import DRAIN_HEADER_BYTES
from ..simulation.cluster import ClusterModel
from ..simulation.engine import RECORD_MODES
from ..simulation.metrics import ClusterMetrics, MultiQueryMetrics
from ..simulation.multiquery import CoLocatedBlockExecutor, QuerySpec
from ..simulation.multisource import (
    MultiSourceConfig,
    MultiSourceExecutor,
    SourceSpec,
)
from ..simulation.node import BudgetSchedule, StreamProcessorNode, as_budget_schedule
from ..simulation.parallel import ParallelBlockController
from ..simulation.sharding import (
    ByteRateBalancedPlacement,
    MigrationPolicy,
    NeverMigrate,
    SaturationMigrationPolicy,
    ShardedClusterExecutor,
)
from ..baselines import StaticLoadFactorStrategy
from .setups import (
    CLUSTER_CAPACITY_INPUT_MULTIPLE,
    MULTI_QUERY_DEMAND,
    HotspotWorkload,
    QuerySetup,
    _cluster_sp_node,
    _homogeneous_fleet,
    ground_truth_profile,
    make_setup,
    make_strategy,
    run_single_source,
)
from .spec import ScenarioSpec

#: Default per-block ingress multiple for the sharded tiling sweep: small
#: enough that a CI-sized fleet saturates a single block (§VI-E scale-out).
SHARDED_CAPACITY_MULTIPLE = 3.0

#: Default ingress headroom for the dynamic re-placement scenario.
DYNAMIC_INGRESS_HEADROOM = 1.67

#: Timed runs per record mode in the ``record_modes`` kind; the fastest counts.
_MODE_TIMING_ROUNDS = 3

#: Modes accepted by :func:`multi_query_colocation_sweep`.
FIG11_MODES = ("analytic", "simulated", "comparison")


# ---------------------------------------------------------------------------
# Run primitives (moved from repro.analysis.experiments).
# ---------------------------------------------------------------------------


def run_multi_source(
    setup: QuerySetup,
    strategy_name: str,
    budget: "float | BudgetSchedule",
    num_sources: int,
    num_epochs: int = 40,
    warmup_epochs: int = 12,
    stream_processor: Optional[StreamProcessorNode] = None,
    sp_compute_share: float = 1.0,
    seed: int = 1,
    record_mode: str = "object",
) -> ClusterMetrics:
    """Run one strategy on ``num_sources`` concurrent data sources.

    Every source gets its own workload (seeded ``seed + index``) and its own
    strategy instance (decentralized runtimes, Section IV-A); they contend for
    the shared stream-processor ingress link and compute.  ``record_mode``
    selects the simulation hot path (``"object"`` or the columnar
    ``"arena"`` fast path; metrics are bit-identical).
    """
    specs, cluster_config, initial_budget = _homogeneous_fleet(
        setup, strategy_name, budget, num_sources,
        stream_processor, sp_compute_share, warmup_epochs, seed,
        record_mode=record_mode,
    )
    executor = MultiSourceExecutor(
        plan=setup.plan,
        cost_model=setup.cost_model,
        sources=specs,
        cluster_config=cluster_config,
    )
    metrics = executor.run(num_epochs, warmup_epochs=warmup_epochs)
    metrics.metadata["strategy"] = strategy_name
    metrics.metadata["query"] = setup.name
    metrics.metadata["budget"] = initial_budget
    return metrics


def run_sharded(
    setup: QuerySetup,
    strategy_name: str,
    budget: "float | BudgetSchedule",
    num_sources: int,
    num_blocks: int,
    placement: "str | Dict[str, int]" = "round_robin",
    num_epochs: int = 40,
    warmup_epochs: int = 12,
    stream_processor: Optional[StreamProcessorNode] = None,
    sp_compute_share: float = 1.0,
    seed: int = 1,
    record_mode: str = "object",
    stream_processors: Optional[Sequence[Optional[StreamProcessorNode]]] = None,
    workers: int = 1,
) -> ClusterMetrics:
    """Run one strategy on a fleet sharded across ``num_blocks`` blocks.

    Like :func:`run_multi_source` but with the fleet partitioned across
    building blocks (Figure 4b tiling): each block gets its own instance of
    the ``stream_processor`` node's ingress link and compute capacity.
    ``stream_processors`` optionally overrides the node per block
    (heterogeneous deployments); ``record_mode`` selects the object or
    arena simulation hot path.  ``workers > 1`` steps the blocks on a
    :class:`~repro.simulation.parallel.ParallelBlockController` worker pool
    instead of the serial lockstep — metrics are bit-identical either way.
    """
    specs, cluster_config, initial_budget = _homogeneous_fleet(
        setup, strategy_name, budget, num_sources,
        stream_processor, sp_compute_share, warmup_epochs, seed,
        record_mode=record_mode,
    )
    kwargs: Dict[str, Any] = dict(
        plan=setup.plan,
        cost_model=setup.cost_model,
        sources=specs,
        num_blocks=num_blocks,
        placement=placement,
        cluster_config=cluster_config,
        stream_processors=stream_processors,
    )
    if workers > 1:
        with ParallelBlockController(workers=workers, **kwargs) as controller:
            metrics = controller.run(num_epochs, warmup_epochs=warmup_epochs)
    else:
        metrics = ShardedClusterExecutor(**kwargs).run(
            num_epochs, warmup_epochs=warmup_epochs
        )
    metrics.metadata["strategy"] = strategy_name
    metrics.metadata["query"] = setup.name
    metrics.metadata["budget"] = initial_budget
    return metrics


def dynamic_replacement_sweep(
    rate_scale: float = 1.0,
    cpu_budget: float = 1.0,
    num_sources: int = 16,
    num_blocks: int = 2,
    shift_epoch: int = 8,
    hotspot_factor: float = 2.0,
    num_epochs: int = 32,
    warmup_epochs: Optional[int] = None,
    records_per_epoch: int = 300,
    strategy_name: str = "All-SP",
    ingress_headroom: float = DYNAMIC_INGRESS_HEADROOM,
    migration: Optional[MigrationPolicy] = None,
    seed: int = 1,
    record_mode: str = "object",
) -> Dict[str, object]:
    """Mid-run hotspot: static vs dynamic vs oracle placement, one scenario.

    The fleet is partitioned contiguously across ``num_blocks`` blocks
    (sources ``0..per_block-1`` on block 0, and so on); at ``shift_epoch``
    every source on block 0 starts producing ``hotspot_factor``x its records
    (:class:`HotspotWorkload` — the declared nominal rate stays stale).  The
    per-block ingress is ``ingress_headroom``x one block's nominal drained
    rate, so the fleet is comfortable until the shift and block 0 saturates
    after it while its neighbours keep headroom.

    Three runs of the identical scenario:

    * **static** — placement frozen at construction (today's behaviour);
    * **dynamic** — same initial placement plus a
      :class:`~repro.simulation.sharding.SaturationMigrationPolicy` (or the
      given ``migration``) live-migrating sources off the hot block;
    * **oracle** — placement re-balanced *at construction* with perfect
      knowledge of the post-shift rates (the upper bound a re-placement
      policy can approach, transient-free).

    Metrics are measured from ``shift_epoch`` on (default warmup), so the
    headline numbers compare post-shift goodput; ``gap_recovered`` is the
    fraction of the static-to-oracle goodput gap the dynamic run recovered.
    """
    if num_blocks < 2:
        raise ConfigurationError(
            f"need >= 2 blocks for re-placement, got {num_blocks!r}"
        )
    if num_sources < num_blocks:
        raise ConfigurationError(
            f"need >= 1 source per block, got {num_sources!r} sources for "
            f"{num_blocks!r} blocks"
        )
    if not 0 <= shift_epoch < num_epochs:
        raise ConfigurationError(
            f"shift_epoch must fall inside the run, got {shift_epoch!r} of "
            f"{num_epochs!r} epochs"
        )
    warmup = shift_epoch if warmup_epochs is None else warmup_epochs
    setup = make_setup(
        "s2s_probe", records_per_epoch=records_per_epoch, rate_scale=rate_scale
    )
    schedule = as_budget_schedule(cpu_budget)

    per_block = (num_sources + num_blocks - 1) // num_blocks
    static_assignment = {
        f"source-{index}": min(index // per_block, num_blocks - 1)
        for index in range(num_sources)
    }
    hot_sources = {
        name for name, block in static_assignment.items() if block == 0
    }

    def build_specs() -> List[SourceSpec]:
        specs = []
        for index in range(num_sources):
            name = f"source-{index}"
            workload = setup.workload_factory(seed + index)
            if name in hot_sources:
                workload = HotspotWorkload(
                    workload, shift_epoch=shift_epoch, factor=hotspot_factor
                )
            specs.append(
                SourceSpec(
                    name=name,
                    workload=workload,
                    strategy=make_strategy(
                        strategy_name, setup, schedule.budget_at(0)
                    ),
                    budget=schedule,
                )
            )
        return specs

    # All-SP drains every record with the per-record drain header, so the
    # nominal drained rate per source slightly exceeds the input rate.
    drain_factor = (
        PINGMESH_RECORD_BYTES + DRAIN_HEADER_BYTES
    ) / PINGMESH_RECORD_BYTES
    block_rate = per_block * setup.input_rate_mbps * drain_factor
    sp_node = StreamProcessorNode(
        ingress_bandwidth_mbps=ingress_headroom * block_rate
    )
    cluster_config = MultiSourceConfig(
        config=setup.config,
        stream_processor=sp_node,
        warmup_epochs=warmup,
        record_mode=record_mode,
    )

    # Oracle: balanced bin-packing with perfect post-shift rate knowledge.
    true_rates = {
        f"source-{index}": setup.input_rate_mbps
        * (hotspot_factor if f"source-{index}" in hot_sources else 1.0)
        for index in range(num_sources)
    }
    oracle_specs = build_specs()
    oracle_blocks = ByteRateBalancedPlacement(
        rate_fn=lambda spec: true_rates[spec.name]
    ).assign(oracle_specs, num_blocks)
    oracle_assignment = {
        spec.name: block for spec, block in zip(oracle_specs, oracle_blocks)
    }

    def run(placement, policy) -> ClusterMetrics:
        executor = ShardedClusterExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=build_specs(),
            num_blocks=num_blocks,
            placement=placement,
            cluster_config=cluster_config,
            migration=policy,
        )
        metrics = executor.run(num_epochs, warmup_epochs=warmup)
        violations = executor.verify_record_conservation()
        if violations:
            raise SimulationError(
                f"record conservation violated: {violations[:3]}"
            )
        return metrics

    policy = migration or SaturationMigrationPolicy(
        saturation_pressure=0.95,
        relief_pressure=0.92,
        hot_epochs=2,
        cooldown_epochs=2,
    )
    static = run(static_assignment, None)
    dynamic = run(static_assignment, policy)
    oracle = run(oracle_assignment, None)

    static_mbps = static.aggregate_throughput_mbps()
    dynamic_mbps = dynamic.aggregate_throughput_mbps()
    oracle_mbps = oracle.aggregate_throughput_mbps()
    gap = oracle_mbps - static_mbps
    return {
        "scenario": {
            "num_sources": num_sources,
            "num_blocks": num_blocks,
            "shift_epoch": shift_epoch,
            "hotspot_factor": hotspot_factor,
            "hot_sources": sorted(hot_sources),
            "ingress_mbps": sp_node.ingress_bandwidth_mbps,
            "record_mode": record_mode,
            "strategy": strategy_name,
            "static_assignment": static_assignment,
            "oracle_assignment": oracle_assignment,
        },
        "static": static,
        "dynamic": dynamic,
        "oracle": oracle,
        "static_mbps": static_mbps,
        "dynamic_mbps": dynamic_mbps,
        "oracle_mbps": oracle_mbps,
        "gap_recovered": (dynamic_mbps - static_mbps) / gap if gap > 0 else 1.0,
        "migrations": dynamic.migration_events(),
    }


def _fig11_fixed_plan(
    setup: QuerySetup,
    rate_scale: float,
    per_query_demand: Optional[float],
    num_epochs: int,
    warmup_epochs: int,
    seed: int = 1,
) -> Tuple[float, List[float]]:
    """Per-query CPU demand and the frozen load factors sized for it.

    As in the paper's Figure 11 setup, Jarvis derives the data-level plan for
    the demand budget once, and every co-located instance then runs with
    those load factors *fixed* — the experiment measures interference, not
    adaptation.
    """
    if per_query_demand is None:
        per_query_demand = MULTI_QUERY_DEMAND.get(rate_scale)
    if per_query_demand is None:
        per_query_demand = min(
            1.0, ground_truth_profile(setup, 1.0).full_cost_fraction()
        )
    calibration = run_single_source(
        setup,
        "Jarvis",
        per_query_demand,
        num_epochs=num_epochs,
        warmup_epochs=warmup_epochs,
        seed=seed,
    )
    return per_query_demand, list(calibration.epochs[-1].load_factors)


def multi_query_sweep(
    rate_scale: float = 1.0,
    cores: int = 1,
    query_counts: Sequence[int] = (1, 2, 3, 4, 5),
    records_per_epoch: int = 800,
    num_epochs: int = 40,
    warmup_epochs: int = 12,
    per_query_demand: Optional[float] = None,
    fixed_factors: Optional[Sequence[float]] = None,
    seed: int = 1,
) -> List[Dict[str, float]]:
    """Reproduce Figure 11: aggregate throughput of co-located query instances.

    As in the paper, each S2SProbe instance runs with *fixed* load factors
    sized for its per-query CPU demand (55% / 30% / 5% of a core depending on
    the input scaling); the node's cores are shared max-min fairly, so once
    the sum of demands exceeds the core count each instance receives less CPU
    than its plan assumes and aggregate throughput saturates.

    ``fixed_factors`` (together with ``per_query_demand``) skips the internal
    calibration — the comparison-mode sweep calibrates once and shares the
    frozen plan between the analytic and simulated paths.
    """
    if fixed_factors is not None and per_query_demand is None:
        raise ConfigurationError(
            "fixed_factors requires an explicit per_query_demand"
        )
    setup = make_setup(
        "s2s_probe", records_per_epoch=records_per_epoch, rate_scale=rate_scale
    )
    # Calibration: let Jarvis derive the data-level plan for the demand budget,
    # then freeze those load factors for every co-located instance.
    if fixed_factors is None:
        per_query_demand, fixed_factors = _fig11_fixed_plan(
            setup, rate_scale, per_query_demand, num_epochs, warmup_epochs,
            seed=seed,
        )
    else:
        fixed_factors = list(fixed_factors)

    results: List[Dict[str, float]] = []
    for count in query_counts:
        fair_share = float(cores) / count
        allocated = min(per_query_demand, fair_share)
        strategy = StaticLoadFactorStrategy(fixed_factors, name=f"fixed-{count}q")
        metrics = run_single_source(
            setup,
            strategy.name,
            allocated,
            num_epochs=num_epochs,
            warmup_epochs=warmup_epochs,
            strategy=strategy,
            seed=seed,
        )
        # The paper reports throughput under a 5-second latency bound, which
        # is what exposes saturation once instances are starved of CPU.
        per_query = metrics.throughput_mbps(
            latency_bound_s=setup.config.epoch.latency_bound_s
        )
        results.append(
            {
                "queries": float(count),
                "cores": float(cores),
                "per_query_demand": float(per_query_demand),
                "per_query_budget": allocated,
                "per_query_throughput_mbps": per_query,
                "per_query_unbounded_mbps": metrics.throughput_mbps(),
                "aggregate_throughput_mbps": per_query * count,
            }
        )
    return results


def run_multi_query(
    setup: QuerySetup,
    num_queries: int,
    per_query_budget: "float | BudgetSchedule",
    load_factors: Sequence[float],
    num_epochs: int = 40,
    warmup_epochs: int = 12,
    stream_processor: Optional[StreamProcessorNode] = None,
    seed: int = 1,
    record_mode: str = "object",
) -> MultiQueryMetrics:
    """Run N co-located fixed-plan instances of one query on a shared SP.

    Each instance is an independent :class:`QuerySpec` — its own data source
    (seeded ``seed + index``), frozen ``load_factors``, and ``per_query_budget``
    of source CPU — and all instances share one stream-processor node: equal
    ``ingress_weight`` on the shared link and an equal (defaulted) split of the
    SP's compute.  This is Figure 11's co-location measured on the true
    executor instead of extrapolated from one frozen single-source run.
    """
    sp_node = stream_processor or _cluster_sp_node(setup.records_per_epoch)
    queries = []
    for index in range(num_queries):
        source = SourceSpec(
            name=f"q{index}-src",
            workload=setup.workload_factory(seed + index),
            strategy=StaticLoadFactorStrategy(
                list(load_factors), name=f"fixed-q{index}"
            ),
            budget=per_query_budget,
        )
        queries.append(
            QuerySpec(
                name=f"q{index}",
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=[source],
                config=setup.config,
            )
        )
    executor = CoLocatedBlockExecutor(
        queries,
        stream_processor=sp_node,
        warmup_epochs=warmup_epochs,
        record_mode=record_mode,
    )
    metrics = executor.run(num_epochs, warmup_epochs=warmup_epochs)
    metrics.metadata["query"] = setup.name
    violations = executor.verify_record_conservation()
    if violations:
        raise ConfigurationError(
            f"co-located run violated record conservation: {violations[:3]}"
        )
    return metrics


def multi_query_colocation_sweep(
    rate_scale: float = 1.0,
    cores: int = 1,
    query_counts: Sequence[int] = (1, 2, 3, 4, 5),
    records_per_epoch: int = 800,
    num_epochs: int = 40,
    warmup_epochs: int = 12,
    per_query_demand: Optional[float] = None,
    mode: str = "simulated",
    record_mode: str = "object",
    seed: int = 1,
) -> List[Dict[str, float]]:
    """Figure 11 on the co-located multi-query executor (or both paths).

    ``mode`` selects the path, mirroring the Figure 10 sweep's structure:

    * ``"analytic"`` — the closed-form :func:`multi_query_sweep` shortcut
      (one frozen-plan single-source run per count, scaled by the count);
    * ``"simulated"`` — :func:`run_multi_query` actually co-locates ``count``
      instances on one stream processor, so shared-link and SP-compute
      contention emerge from measurement;
    * ``"comparison"`` — both, plus their throughput ratio per count (the
      analytic path stays as a cross-check: agreement within 15% below the
      saturation knee is test-enforced).

    The source-side CPU split is the same in every mode: the node's ``cores``
    are shared max-min fairly, so each instance runs under
    ``min(demand, cores / count)`` — past that knee instances are starved and
    aggregate throughput saturates.
    """
    if mode not in FIG11_MODES:
        raise ConfigurationError(
            f"unknown mode {mode!r}; expected one of {FIG11_MODES}"
        )
    if mode == "analytic":
        return multi_query_sweep(
            rate_scale=rate_scale,
            cores=cores,
            query_counts=query_counts,
            records_per_epoch=records_per_epoch,
            num_epochs=num_epochs,
            warmup_epochs=warmup_epochs,
            per_query_demand=per_query_demand,
            seed=seed,
        )

    setup = make_setup(
        "s2s_probe", records_per_epoch=records_per_epoch, rate_scale=rate_scale
    )
    # Calibrate once; comparison mode hands the frozen plan to the analytic
    # path too, so both paths share one calibration run.
    demand, fixed_factors = _fig11_fixed_plan(
        setup, rate_scale, per_query_demand, num_epochs, warmup_epochs,
        seed=seed,
    )
    analytic_rows = (
        multi_query_sweep(
            rate_scale=rate_scale,
            cores=cores,
            query_counts=query_counts,
            records_per_epoch=records_per_epoch,
            num_epochs=num_epochs,
            warmup_epochs=warmup_epochs,
            per_query_demand=demand,
            fixed_factors=fixed_factors,
            seed=seed,
        )
        if mode == "comparison"
        else None
    )
    latency_bound = setup.config.epoch.latency_bound_s

    rows: List[Dict[str, float]] = []
    for index, count in enumerate(query_counts):
        fair_share = float(cores) / count
        allocated = min(demand, fair_share)
        # Every co-located instance brings the paper's per-source uplink
        # share (Section VI-A), so the shared ingress grows with the count
        # and each query's tier-1 fair share matches the analytic path's
        # single-source bandwidth — agreement below the knee is then about
        # the executors, not about mismatched link provisioning.
        sp_node = StreamProcessorNode(
            ingress_bandwidth_mbps=count * setup.bandwidth_mbps
        )
        metrics = run_multi_query(
            setup,
            num_queries=count,
            per_query_budget=allocated,
            load_factors=fixed_factors,
            num_epochs=num_epochs,
            warmup_epochs=warmup_epochs,
            stream_processor=sp_node,
            record_mode=record_mode,
            seed=seed,
        )
        aggregate = metrics.aggregate_throughput_mbps(latency_bound_s=latency_bound)
        row = {
            "queries": float(count),
            "cores": float(cores),
            "per_query_demand": float(demand),
            "per_query_budget": allocated,
            "per_query_throughput_mbps": aggregate / count,
            "aggregate_throughput_mbps": aggregate,
            "aggregate_unbounded_mbps": metrics.aggregate_throughput_mbps(),
            "sp_cpu_utilization": metrics.sp_cpu_utilization(),
            "median_latency_s": metrics.median_latency_s(),
            "max_latency_s": metrics.max_latency_s(),
        }
        if analytic_rows is not None:
            analytic = analytic_rows[index]["aggregate_throughput_mbps"]
            row["analytic_mbps"] = analytic
            row["simulated_mbps"] = aggregate
            row["ratio"] = aggregate / analytic if analytic > 0 else 0.0
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# The spec-driven runner.
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    ``raw`` keeps the legacy result shape of the matching ``experiments``
    entry point (metrics objects included), ``table`` is the benchmark-style
    text table, ``series`` holds ``{label: {x: y}}`` line-chart data, and
    ``extras`` carries headline scalars (supported sources, gap recovered,
    speedups) the assertion shims check.
    """

    spec: ScenarioSpec
    raw: Any
    table: str
    series: Dict[str, Dict[float, float]] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)

    def bench_payload(self) -> Dict[str, Any]:
        """The ``BENCH_<name>.json`` data payload (existing schema per kind)."""
        spec = self.spec
        if spec.kind == "scaling" and spec.mode == "analytic":
            payload: Dict[str, Any] = {
                "config": {
                    "rate_scale": spec.workload.rate_scale,
                    "cpu_budget": _initial_budget(spec),
                    "node_counts": list(spec.sweep.sources),
                },
            }
            if "supported" in self.raw:
                payload["supported_sources"] = self.raw["supported"]
            payload["rows"] = self.extras.get("rows", [])
            return payload
        if spec.kind == "scaling" and spec.mode == "comparison":
            return {
                "config": {
                    "sources": list(self._node_counts()),
                    "records_per_epoch": spec.workload.records_per_epoch,
                    "num_epochs": spec.epochs,
                    "record_mode": spec.record_mode,
                },
                "results": self.raw,
            }
        if spec.kind == "scaling":  # simulated
            return {
                "config": {
                    "sources": list(self._node_counts()),
                    "records_per_epoch": spec.workload.records_per_epoch,
                    "num_epochs": spec.epochs,
                    "record_mode": spec.record_mode,
                },
                "results": {
                    strategy: [m.summary() for m in entries]
                    for strategy, entries in self.raw.items()
                },
            }
        if spec.kind == "sharded":
            return {
                "config": {
                    "blocks": list(spec.sweep.blocks or (spec.tiling.blocks,)),
                    "fleet_sources": spec.fleet.sources,
                    "records_per_epoch": spec.workload.records_per_epoch,
                    "num_epochs": spec.epochs,
                    "record_mode": spec.record_mode,
                },
                "results": {
                    strategy: [m.summary() for m in entries]
                    for strategy, entries in self.raw.items()
                },
            }
        if spec.kind == "dynamic_replacement":
            assert spec.workload.hotspot is not None
            return {
                "config": {
                    "fleet": spec.fleet.sources,
                    "epochs": spec.epochs,
                    "shift_epoch": spec.workload.hotspot.shift_epoch,
                    "records_per_epoch": spec.workload.records_per_epoch,
                    "record_mode": spec.record_mode,
                },
                "scenario": self.raw["scenario"],
                "goodput_mbps": {
                    label: self.raw[f"{label}_mbps"]
                    for label in ("static", "dynamic", "oracle")
                },
                "gap_recovered": self.raw["gap_recovered"],
                "migrations": self.raw["migrations"],
            }
        if spec.kind == "colocated":
            return {
                "config": {
                    "query_counts": list(self._query_counts()),
                    "records_per_epoch": spec.workload.records_per_epoch,
                    "num_epochs": spec.epochs,
                    "mode": spec.mode,
                    "record_mode": spec.record_mode,
                },
                "rows": self.raw,
            }
        if spec.kind == "parallel":
            return {
                "config": {
                    "sources": spec.fleet.sources,
                    "blocks": spec.tiling.blocks,
                    "workers": spec.tiling.workers,
                    "records_per_epoch": spec.workload.records_per_epoch,
                    "num_epochs": spec.epochs,
                    "record_mode": spec.record_mode,
                    "parallel_min_speedup": spec.parallel_min_speedup,
                },
                "results": self.raw,
            }
        # record_modes
        return {
            "config": {
                "sources": spec.fleet.sources,
                "records_per_epoch": spec.workload.records_per_epoch,
                "num_epochs": spec.epochs,
                "rate_scale": spec.workload.rate_scale,
                "cpu_budget": _initial_budget(spec),
                "min_speedup": spec.min_speedup,
            },
            "results": self.raw,
        }

    def _node_counts(self) -> Tuple[int, ...]:
        return self.spec.sweep.sources or (self.spec.fleet.sources,)

    def _query_counts(self) -> Tuple[int, ...]:
        return self.spec.sweep.queries or (1, 2, 3, 4, 5)

    def render_report(self) -> str:
        """A self-contained HTML report for this scenario."""
        from ..analysis.reporting import render_report

        spec = self.spec
        subtitle = (
            f"kind={spec.kind} mode={spec.mode} epochs={spec.epochs} "
            f"warmup={spec.resolved_warmup()} record_mode={spec.record_mode} "
            f"seed={spec.seed}"
        )
        sections = [
            {
                "heading": "Results",
                "body": self.table,
                "series": self.series or None,
                "x_label": _X_LABELS.get(spec.kind, "x"),
                "y_label": "throughput (Mbps)",
            }
        ]
        if self.extras:
            lines = [
                f"{key}: {value}"
                for key, value in sorted(self.extras.items())
                if key != "rows"
            ]
            if lines:
                sections.append(
                    {"heading": "Headline numbers", "body": "\n".join(lines)}
                )
        return render_report(f"Scenario: {spec.name}", sections, subtitle=subtitle)

    def write(self, out_dir: "str | Path") -> Path:
        """Write ``REPORT_<name>.html`` under ``out_dir`` and return its path."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"REPORT_{self.spec.name}.html"
        path.write_text(self.render_report())
        return path


_X_LABELS = {
    "scaling": "sources",
    "sharded": "blocks",
    "colocated": "queries",
    "dynamic_replacement": "placement",
    "record_modes": "strategy",
    "parallel": "strategy",
}


def _initial_budget(spec: ScenarioSpec) -> float:
    return spec.fleet.budget_schedule().budget_at(0)


def _budget_arg(spec: ScenarioSpec) -> "float | BudgetSchedule":
    if isinstance(spec.fleet.budget, (int, float)):
        return float(spec.fleet.budget)
    return spec.fleet.budget_schedule()


class ScenarioRunner:
    """Expand a :class:`ScenarioSpec` into runs and collect the results.

    ``migration`` optionally overrides the migration policy with a
    pre-constructed object (the one knob a config file cannot express); all
    declarative knobs come from the spec itself.
    """

    def run(
        self,
        spec: ScenarioSpec,
        migration: Optional[MigrationPolicy] = None,
    ) -> ScenarioResult:
        if spec.kind == "scaling":
            return self._run_scaling(spec)
        if spec.kind == "sharded":
            return self._run_sharded(spec)
        if spec.kind == "dynamic_replacement":
            return self._run_dynamic(spec, migration)
        if spec.kind == "colocated":
            return self._run_colocated(spec)
        if spec.kind == "record_modes":
            return self._run_record_modes(spec)
        if spec.kind == "parallel":
            return self._run_parallel(spec)
        raise ConfigurationError(f"unknown scenario kind {spec.kind!r}")

    # -- scaling ------------------------------------------------------------

    def _scaling_strategies(self, spec: ScenarioSpec) -> Tuple[str, ...]:
        return spec.sweep.strategies or ("Jarvis", "Best-OP")

    def _run_scaling(self, spec: ScenarioSpec) -> ScenarioResult:
        if spec.mode == "analytic":
            return self._run_scaling_analytic(spec)
        if spec.mode == "comparison":
            return self._run_scaling_comparison(spec)
        return self._run_scaling_simulated(spec)

    def _run_scaling_analytic(self, spec: ScenarioSpec) -> ScenarioResult:
        setup = make_setup(
            spec.workload.query,
            records_per_epoch=spec.workload.records_per_epoch,
            rate_scale=spec.workload.rate_scale,
        )
        sp = _cluster_sp_node(
            spec.workload.records_per_epoch,
            sp_cores=spec.tiling.sp_cores,
            capacity_multiple=(
                spec.tiling.sp_capacity_multiple or CLUSTER_CAPACITY_INPUT_MULTIPLE
            ),
        )
        cluster = ClusterModel(sp, epoch_duration_s=setup.config.epoch.duration_s)
        strategies = self._scaling_strategies(spec)
        bandwidth = max(setup.bandwidth_mbps, 4.0 * setup.input_rate_mbps)
        raw: Dict[str, Any] = {}
        if spec.sweep.sources:
            sweep: Dict[str, List[Any]] = {}
            for strategy_name in strategies:
                per_source = run_single_source(
                    setup,
                    strategy_name,
                    _budget_arg(spec),
                    num_epochs=spec.epochs,
                    warmup_epochs=spec.resolved_warmup(),
                    bandwidth_mbps=bandwidth,
                    seed=spec.seed,
                )
                sweep[strategy_name] = [
                    cluster.scale(per_source, n) for n in spec.sweep.sources
                ]
            raw["sweep"] = sweep
        if spec.max_sources_limit > 0:
            supported: Dict[str, int] = {}
            for strategy_name in strategies:
                # The supported-sources search keeps its historical 40-epoch
                # calibration run regardless of the sweep's epoch count, so
                # the headline "75% more sources" number is sweep-size
                # independent.
                per_source = run_single_source(
                    setup,
                    strategy_name,
                    _budget_arg(spec),
                    num_epochs=40,
                    warmup_epochs=12,
                    bandwidth_mbps=bandwidth,
                    seed=spec.seed,
                )
                supported[strategy_name] = cluster.max_supported_sources(
                    per_source, limit=spec.max_sources_limit
                )
            raw["supported"] = supported
        return _analytic_scaling_result(spec, raw)

    def _run_scaling_simulated(self, spec: ScenarioSpec) -> ScenarioResult:
        setup = make_setup(
            spec.workload.query,
            records_per_epoch=spec.workload.records_per_epoch,
            rate_scale=spec.workload.rate_scale,
        )
        sp_node = _cluster_sp_node(
            spec.workload.records_per_epoch,
            sp_cores=spec.tiling.sp_cores,
            capacity_multiple=(
                spec.tiling.sp_capacity_multiple or CLUSTER_CAPACITY_INPUT_MULTIPLE
            ),
        )
        node_counts = spec.sweep.sources or (spec.fleet.sources,)
        raw: Dict[str, List[ClusterMetrics]] = {}
        for strategy_name in self._scaling_strategies(spec):
            raw[strategy_name] = [
                run_multi_source(
                    setup,
                    strategy_name,
                    _budget_arg(spec),
                    num_sources=n,
                    num_epochs=spec.epochs,
                    warmup_epochs=spec.resolved_warmup(),
                    stream_processor=sp_node,
                    seed=spec.seed,
                    record_mode=spec.record_mode,
                )
                for n in node_counts
            ]
        return _simulated_scaling_result(spec, raw)

    def _run_scaling_comparison(self, spec: ScenarioSpec) -> ScenarioResult:
        setup = make_setup(
            spec.workload.query,
            records_per_epoch=spec.workload.records_per_epoch,
            rate_scale=spec.workload.rate_scale,
        )
        sp_node = _cluster_sp_node(
            spec.workload.records_per_epoch,
            sp_cores=spec.tiling.sp_cores,
            capacity_multiple=(
                spec.tiling.sp_capacity_multiple or CLUSTER_CAPACITY_INPUT_MULTIPLE
            ),
        )
        cluster = ClusterModel(sp_node, epoch_duration_s=setup.config.epoch.duration_s)
        node_counts = spec.sweep.sources or (spec.fleet.sources,)
        raw: Dict[str, List[Dict[str, float]]] = {}
        for strategy_name in self._scaling_strategies(spec):
            per_source = run_single_source(
                setup,
                strategy_name,
                _budget_arg(spec),
                num_epochs=spec.epochs,
                warmup_epochs=spec.resolved_warmup(),
                bandwidth_mbps=max(
                    setup.bandwidth_mbps, 4.0 * setup.input_rate_mbps
                ),
                seed=spec.seed,
            )
            rows: List[Dict[str, float]] = []
            for n in node_counts:
                analytic = cluster.scale(per_source, n)
                simulated = run_multi_source(
                    setup,
                    strategy_name,
                    _budget_arg(spec),
                    num_sources=n,
                    num_epochs=spec.epochs,
                    warmup_epochs=spec.resolved_warmup(),
                    stream_processor=sp_node,
                    seed=spec.seed,
                    record_mode=spec.record_mode,
                )
                sim_throughput = simulated.aggregate_throughput_mbps()
                rows.append(
                    {
                        "sources": float(n),
                        "analytic_mbps": analytic.aggregate_throughput_mbps,
                        "simulated_mbps": sim_throughput,
                        "ratio": (
                            sim_throughput / analytic.aggregate_throughput_mbps
                            if analytic.aggregate_throughput_mbps > 0
                            else 0.0
                        ),
                        "analytic_network_utilization": analytic.network_utilization,
                        "simulated_network_utilization": simulated.network_utilization(),
                        "simulated_median_latency_s": simulated.median_latency_s(),
                        "simulated_p95_latency_s": simulated.latency_percentile_s(0.95),
                        "simulated_max_latency_s": simulated.max_latency_s(),
                        "analytic_median_latency_s": analytic.median_latency_s,
                    }
                )
            raw[strategy_name] = rows
        return _comparison_scaling_result(spec, raw)

    # -- sharded ------------------------------------------------------------

    def _run_sharded(self, spec: ScenarioSpec) -> ScenarioResult:
        setup = make_setup(
            spec.workload.query,
            records_per_epoch=spec.workload.records_per_epoch,
            rate_scale=spec.workload.rate_scale,
        )
        sp_node = _cluster_sp_node(
            spec.workload.records_per_epoch,
            sp_cores=spec.tiling.sp_cores,
            capacity_multiple=(
                spec.tiling.sp_capacity_multiple or SHARDED_CAPACITY_MULTIPLE
            ),
        )
        block_counts = spec.sweep.blocks or (spec.tiling.blocks,)
        raw: Dict[str, List[ClusterMetrics]] = {}
        for strategy_name in self._scaling_strategies(spec):
            raw[strategy_name] = [
                run_sharded(
                    setup,
                    strategy_name,
                    _budget_arg(spec),
                    num_sources=spec.fleet.sources,
                    num_blocks=k,
                    placement=spec.tiling.placement_arg(),
                    num_epochs=spec.epochs,
                    warmup_epochs=spec.resolved_warmup(),
                    stream_processor=sp_node,
                    seed=spec.seed,
                    record_mode=spec.record_mode,
                    workers=spec.tiling.workers,
                )
                for k in block_counts
            ]
        return _sharded_result(spec, raw)

    # -- dynamic re-placement ------------------------------------------------

    def _run_dynamic(
        self, spec: ScenarioSpec, migration: Optional[MigrationPolicy]
    ) -> ScenarioResult:
        hotspot = spec.workload.hotspot
        assert hotspot is not None  # enforced by ScenarioSpec validation
        if migration is None and spec.migration is not None:
            if spec.migration.policy == "saturation":
                migration = SaturationMigrationPolicy(
                    saturation_pressure=spec.migration.saturation_pressure,
                    relief_pressure=spec.migration.relief_pressure,
                    hot_epochs=spec.migration.hot_epochs,
                    cooldown_epochs=spec.migration.cooldown_epochs,
                )
            elif spec.migration.policy == "never":
                # Pin the "dynamic" run to a policy that never fires (baseline
                # sanity runs); leaving migration None would select the
                # default saturation policy inside the sweep.
                migration = NeverMigrate()
        raw = dynamic_replacement_sweep(
            rate_scale=spec.workload.rate_scale,
            cpu_budget=_budget_arg(spec),
            num_sources=spec.fleet.sources,
            num_blocks=spec.tiling.blocks,
            shift_epoch=hotspot.shift_epoch,
            hotspot_factor=hotspot.factor,
            num_epochs=spec.epochs,
            warmup_epochs=spec.warmup_epochs,
            records_per_epoch=spec.workload.records_per_epoch,
            strategy_name=spec.fleet.strategy,
            ingress_headroom=(
                spec.tiling.ingress_headroom or DYNAMIC_INGRESS_HEADROOM
            ),
            migration=migration,
            seed=spec.seed,
            record_mode=spec.record_mode,
        )
        return _dynamic_result(spec, raw)

    # -- co-located multi-query ----------------------------------------------

    def _run_colocated(self, spec: ScenarioSpec) -> ScenarioResult:
        raw = multi_query_colocation_sweep(
            rate_scale=spec.workload.rate_scale,
            cores=spec.fleet.cores,
            query_counts=spec.sweep.queries or (1, 2, 3, 4, 5),
            records_per_epoch=spec.workload.records_per_epoch,
            num_epochs=spec.epochs,
            warmup_epochs=spec.resolved_warmup(),
            per_query_demand=spec.per_query_demand,
            mode=spec.mode,
            record_mode=spec.record_mode,
            seed=spec.seed,
        )
        return _colocated_result(spec, raw)

    # -- record modes ---------------------------------------------------------

    def _run_record_modes(self, spec: ScenarioSpec) -> ScenarioResult:
        setup = make_setup(
            spec.workload.query,
            records_per_epoch=spec.workload.records_per_epoch,
            rate_scale=spec.workload.rate_scale,
        )
        warmup = spec.resolved_warmup()
        strategies = spec.sweep.strategies or ("Best-OP", "Jarvis")

        def run_mode(strategy_name: str, record_mode: str):
            # Both modes pay identical construction cost (same specs, same
            # engine setup), so the measurement isolates what the record
            # representation changes: the epoch execution itself.
            from dataclasses import replace as dc_replace

            specs, cluster_config, _ = _homogeneous_fleet(
                setup,
                strategy_name,
                _budget_arg(spec),
                spec.fleet.sources,
                None,
                spec.fleet.sp_compute_share,
                warmup,
                spec.seed,
            )
            cluster_config = dc_replace(cluster_config, record_mode=record_mode)
            executor = MultiSourceExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=specs,
                cluster_config=cluster_config,
            )
            gc.collect()
            start = time.perf_counter()
            metrics = executor.run(spec.epochs, warmup_epochs=warmup)
            elapsed = time.perf_counter() - start
            return metrics, elapsed

        raw: Dict[str, Dict[str, float]] = {}
        for strategy_name in strategies:
            # Each mode's wall time is its fastest of _MODE_TIMING_ROUNDS
            # runs, with the mode order reversed every other round, so a slow
            # spell of a shared host cannot decide a speedup gate on its own.
            # The runs are deterministic, so any run's metrics serve.
            best: Dict[str, Tuple[ClusterMetrics, float]] = {}
            for round_index in range(_MODE_TIMING_ROUNDS):
                order = RECORD_MODES if round_index % 2 == 0 else RECORD_MODES[::-1]
                for mode in order:
                    metrics, elapsed = run_mode(strategy_name, mode)
                    if mode not in best or elapsed < best[mode][1]:
                        best[mode] = (metrics, elapsed)
            row: Dict[str, float] = {}
            for mode in RECORD_MODES:
                metrics, elapsed = best[mode]
                row[f"{mode}_wall_s"] = elapsed
                row[f"{mode}_goodput_mbps"] = metrics.aggregate_throughput_mbps()
                row[f"{mode}_median_latency_s"] = metrics.median_latency_s()
                # Legacy key name: the object series' offered rate predates
                # the per-mode naming and stays for payload compatibility.
                offered_key = (
                    "offered_mbps" if mode == "object" else f"{mode}_offered_mbps"
                )
                row[offered_key] = metrics.aggregate_offered_mbps()
            arena_s = row["arena_wall_s"]
            row["speedup"] = (
                row["object_wall_s"] / arena_s if arena_s > 0 else float("inf")
            )
            raw[strategy_name] = row
        return _record_modes_result(spec, raw)

    # -- parallel block stepping ----------------------------------------------

    def _run_parallel(self, spec: ScenarioSpec) -> ScenarioResult:
        setup = make_setup(
            spec.workload.query,
            records_per_epoch=spec.workload.records_per_epoch,
            rate_scale=spec.workload.rate_scale,
        )
        sp_node = _cluster_sp_node(
            spec.workload.records_per_epoch,
            sp_cores=spec.tiling.sp_cores,
            capacity_multiple=(
                spec.tiling.sp_capacity_multiple or SHARDED_CAPACITY_MULTIPLE
            ),
        )
        warmup = spec.resolved_warmup()
        strategies = spec.sweep.strategies or ("Jarvis",)

        def fleet(strategy_name: str):
            specs, cluster_config, _ = _homogeneous_fleet(
                setup,
                strategy_name,
                _budget_arg(spec),
                spec.fleet.sources,
                sp_node,
                spec.fleet.sp_compute_share,
                warmup,
                spec.seed,
                record_mode=spec.record_mode,
            )
            return specs, cluster_config

        raw: Dict[str, Dict[str, Any]] = {}
        for strategy_name in strategies:
            # Worker-pool run first, before any serial metrics bloat the
            # heap: the workers fork from this process, and forking a large
            # heap taxes the children with copy-on-write faults for the
            # whole run (measured ~3s of phantom overhead at 1024 sources
            # when a serial run preceded the fork).  The pool and its
            # fork/adopt handshake stay outside the timer so the
            # measurement isolates epoch stepping, matching how a
            # long-lived controller amortises startup.
            specs, cluster_config = fleet(strategy_name)
            with ParallelBlockController(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=specs,
                num_blocks=spec.tiling.blocks,
                placement=spec.tiling.placement_arg(),
                cluster_config=cluster_config,
                workers=spec.tiling.workers,
            ) as controller:
                gc.collect()
                start = time.perf_counter()
                parallel_metrics = controller.run(
                    spec.epochs, warmup_epochs=warmup
                )
                parallel_s = time.perf_counter() - start

            # Serial lockstep reference on an identically constructed
            # fleet: the executor the controller must reproduce bit-for-bit.
            specs, cluster_config = fleet(strategy_name)
            serial = ShardedClusterExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=specs,
                num_blocks=spec.tiling.blocks,
                placement=spec.tiling.placement_arg(),
                cluster_config=cluster_config,
            )
            gc.collect()
            start = time.perf_counter()
            serial_metrics = serial.run(spec.epochs, warmup_epochs=warmup)
            serial_s = time.perf_counter() - start

            identical = _cluster_metrics_identical(
                serial_metrics, parallel_metrics
            )
            raw[strategy_name] = {
                "serial_wall_s": serial_s,
                "parallel_wall_s": parallel_s,
                "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
                "identical": identical,
                "serial_goodput_mbps": serial_metrics.aggregate_throughput_mbps(),
                "parallel_goodput_mbps": (
                    parallel_metrics.aggregate_throughput_mbps()
                ),
            }
        return _parallel_result(spec, raw)


# ---------------------------------------------------------------------------
# Per-kind result builders (tables match the benchmark harness output).
# ---------------------------------------------------------------------------


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    from ..analysis.reporting import format_table

    return format_table(headers, rows)


def _analytic_scaling_result(spec: ScenarioSpec, raw: Dict[str, Any]) -> ScenarioResult:
    series: Dict[str, Dict[float, float]] = {}
    extras: Dict[str, Any] = {}
    table = ""
    if "sweep" in raw:
        sweep = raw["sweep"]
        strategies = list(sweep)
        rows: List[List[object]] = []
        if set(strategies) >= {"Jarvis", "Best-OP"}:
            for i, n in enumerate(spec.sweep.sources):
                jarvis = sweep["Jarvis"][i]
                best_op = sweep["Best-OP"][i]
                rows.append(
                    [
                        n,
                        jarvis.expected_throughput_mbps,
                        jarvis.aggregate_throughput_mbps,
                        best_op.aggregate_throughput_mbps,
                        jarvis.median_latency_s,
                        best_op.median_latency_s,
                        jarvis.max_latency_s,
                        best_op.max_latency_s,
                    ]
                )
            table = _format_table(
                [
                    "sources",
                    "expected_mbps",
                    "jarvis_mbps",
                    "bestop_mbps",
                    "jarvis_med_lat_s",
                    "bestop_med_lat_s",
                    "jarvis_max_lat_s",
                    "bestop_max_lat_s",
                ],
                rows,
            )
        else:
            for strategy in strategies:
                for n, result in zip(spec.sweep.sources, sweep[strategy]):
                    rows.append(
                        [
                            strategy,
                            n,
                            result.expected_throughput_mbps,
                            result.aggregate_throughput_mbps,
                            result.network_utilization,
                            result.median_latency_s,
                            result.max_latency_s,
                        ]
                    )
            table = _format_table(
                [
                    "strategy",
                    "sources",
                    "expected_mbps",
                    "goodput_mbps",
                    "link_util",
                    "med_lat_s",
                    "max_lat_s",
                ],
                rows,
            )
        extras["rows"] = rows
        for strategy in strategies:
            series[strategy] = {
                float(n): result.aggregate_throughput_mbps
                for n, result in zip(spec.sweep.sources, sweep[strategy])
            }
    if "supported" in raw:
        supported = raw["supported"]
        extras["supported_sources"] = supported
        if {"Jarvis", "Best-OP"} <= set(supported):
            gain = 100.0 * (
                supported["Jarvis"] / max(1, supported["Best-OP"]) - 1
            )
            line = (
                "max sources supported without degradation: "
                f"Jarvis={supported['Jarvis']}, Best-OP={supported['Best-OP']} "
                f"(Jarvis supports {gain:.0f}% more)"
            )
        else:
            line = "max sources supported without degradation: " + ", ".join(
                f"{name}={count}" for name, count in supported.items()
            )
        table = (table + "\n\n" + line) if table else line
    return ScenarioResult(spec=spec, raw=raw, table=table, series=series, extras=extras)


def _simulated_scaling_result(
    spec: ScenarioSpec, raw: Dict[str, List[ClusterMetrics]]
) -> ScenarioResult:
    node_counts = spec.sweep.sources or (spec.fleet.sources,)
    rows: List[List[object]] = []
    series: Dict[str, Dict[float, float]] = {}
    for strategy, entries in raw.items():
        series[strategy] = {}
        for n, metrics in zip(node_counts, entries):
            rows.append(
                [
                    strategy,
                    n,
                    metrics.aggregate_offered_mbps(),
                    metrics.aggregate_throughput_mbps(),
                    metrics.network_utilization(),
                    metrics.median_latency_s(),
                ]
            )
            series[strategy][float(n)] = metrics.aggregate_throughput_mbps()
    table = _format_table(
        ["strategy", "sources", "offered_mbps", "goodput_mbps", "link_util", "med_lat_s"],
        rows,
    )
    return ScenarioResult(spec=spec, raw=raw, table=table, series=series)


def _comparison_scaling_result(
    spec: ScenarioSpec, raw: Dict[str, List[Dict[str, float]]]
) -> ScenarioResult:
    rows: List[List[object]] = []
    series: Dict[str, Dict[float, float]] = {}
    for strategy, entries in raw.items():
        series[f"{strategy} analytic"] = {}
        series[f"{strategy} simulated"] = {}
        for entry in entries:
            rows.append(
                [
                    strategy,
                    int(entry["sources"]),
                    entry["analytic_mbps"],
                    entry["simulated_mbps"],
                    entry["ratio"],
                    entry["simulated_network_utilization"],
                    entry["simulated_median_latency_s"],
                ]
            )
            series[f"{strategy} analytic"][entry["sources"]] = entry["analytic_mbps"]
            series[f"{strategy} simulated"][entry["sources"]] = entry["simulated_mbps"]
    table = _format_table(
        [
            "strategy",
            "sources",
            "analytic_mbps",
            "simulated_mbps",
            "sim/analytic",
            "sim_link_util",
            "sim_med_lat_s",
        ],
        rows,
    )
    node_counts = spec.sweep.sources or (spec.fleet.sources,)
    # VI-E latency distribution, read off the largest simulated source count
    # (no extra simulation: the comparison already measured it).
    table += "\n\nVI-E latency at {} sources:".format(max(node_counts))
    for strategy, entries in raw.items():
        stats = max(entries, key=lambda entry: entry["sources"])
        table += (
            f"\n  {strategy}: median={stats['simulated_median_latency_s']:.2f}s "
            f"p95={stats['simulated_p95_latency_s']:.2f}s "
            f"max={stats['simulated_max_latency_s']:.2f}s"
        )
    return ScenarioResult(spec=spec, raw=raw, table=table, series=series)


def _sharded_result(
    spec: ScenarioSpec, raw: Dict[str, List[ClusterMetrics]]
) -> ScenarioResult:
    block_counts = spec.sweep.blocks or (spec.tiling.blocks,)
    rows: List[List[object]] = []
    series: Dict[str, Dict[float, float]] = {}
    for strategy, entries in raw.items():
        series[strategy] = {}
        for k, metrics in zip(block_counts, entries):
            placement = metrics.metadata["placement"]
            rows.append(
                [
                    strategy,
                    k,
                    metrics.aggregate_offered_mbps(),
                    metrics.aggregate_throughput_mbps(),
                    metrics.network_utilization(),
                    metrics.median_latency_s(),
                    max(placement["sources_per_block"]),
                ]
            )
            series[strategy][float(k)] = metrics.aggregate_throughput_mbps()
    table = _format_table(
        [
            "strategy",
            "blocks",
            "offered_mbps",
            "goodput_mbps",
            "link_util",
            "med_lat_s",
            "max_srcs_per_block",
        ],
        rows,
    )
    return ScenarioResult(spec=spec, raw=raw, table=table, series=series)


def _dynamic_result(spec: ScenarioSpec, raw: Dict[str, object]) -> ScenarioResult:
    rows = [
        [
            label,
            raw[f"{label}_mbps"],
            raw[label].network_utilization(),
            raw[label].median_latency_s(),
            raw[label].num_migrations(),
        ]
        for label in ("static", "dynamic", "oracle")
    ]
    table = _format_table(
        ["placement", "goodput_mbps", "link_util", "med_lat_s", "migrations"],
        rows,
    )
    table += (
        f"\n\ngap recovered by dynamic re-placement: "
        f"{100 * raw['gap_recovered']:.0f}%"
    )
    for event in raw["migrations"]:
        table += (
            f"\n  epoch {event['epoch']}: {event['source']} "
            f"block {event['from_block']} -> {event['to_block']}"
        )
    extras = {
        "gap_recovered": raw["gap_recovered"],
        "num_migrations": len(raw["migrations"]),
        "static_mbps": raw["static_mbps"],
        "dynamic_mbps": raw["dynamic_mbps"],
        "oracle_mbps": raw["oracle_mbps"],
    }
    return ScenarioResult(spec=spec, raw=raw, table=table, extras=extras)


def _colocated_result(
    spec: ScenarioSpec, raw: List[Dict[str, float]]
) -> ScenarioResult:
    comparison = spec.mode == "comparison"
    header = ["queries", "budget/q", "aggregate_mbps", "med_lat_s"]
    if comparison:
        header += ["analytic_mbps", "sim/analytic"]
    rows: List[List[object]] = []
    series: Dict[str, Dict[float, float]] = {"aggregate": {}}
    if comparison:
        series["analytic"] = {}
    for row in raw:
        line: List[object] = [
            int(row["queries"]),
            row["per_query_budget"],
            row["aggregate_throughput_mbps"],
            row.get("median_latency_s", float("nan")),
        ]
        if comparison:
            line += [row["analytic_mbps"], row["ratio"]]
            series["analytic"][row["queries"]] = row["analytic_mbps"]
        series["aggregate"][row["queries"]] = row["aggregate_throughput_mbps"]
        rows.append(line)
    table = _format_table(header, rows)
    demand = raw[0]["per_query_demand"] if raw else float("nan")
    table += f"\n\nper-query CPU demand: {demand:.2f} of a core"
    return ScenarioResult(
        spec=spec,
        raw=raw,
        table=table,
        series=series,
        extras={"per_query_demand": demand},
    )


def _record_modes_result(
    spec: ScenarioSpec, raw: Dict[str, Dict[str, float]]
) -> ScenarioResult:
    headers = ["strategy"]
    headers += [f"{mode}_wall_s" for mode in RECORD_MODES]
    headers.append("speedup")
    headers += [f"{mode}_goodput_mbps" for mode in RECORD_MODES]
    rows = [
        [strategy] + [entry[key] for key in headers[1:]]
        for strategy, entry in raw.items()
    ]
    table = _format_table(headers, rows)
    table += (
        f"\n\nconfig: {spec.fleet.sources} sources x "
        f"{spec.workload.records_per_epoch} records/epoch x "
        f"{spec.epochs} epochs (Fig. 10a: 10x input, 55% CPU)"
    )
    extras: Dict[str, Any] = {
        "min_speedup": spec.min_speedup,
        "speedups": {s: e["speedup"] for s, e in raw.items()},
    }
    return ScenarioResult(spec=spec, raw=raw, table=table, extras=extras)


def _cluster_metrics_identical(a: ClusterMetrics, b: ClusterMetrics) -> bool:
    """True when two runs produced bit-identical per-source epoch metrics."""
    if sorted(a.per_source) != sorted(b.per_source):
        return False
    return all(
        a.per_source[name].epochs == b.per_source[name].epochs
        for name in a.per_source
    )


def _parallel_result(
    spec: ScenarioSpec, raw: Dict[str, Dict[str, Any]]
) -> ScenarioResult:
    headers = [
        "strategy",
        "serial_wall_s",
        "parallel_wall_s",
        "speedup",
        "identical",
        "serial_goodput_mbps",
        "parallel_goodput_mbps",
    ]
    rows = [
        [strategy] + [entry[key] for key in headers[1:]]
        for strategy, entry in raw.items()
    ]
    table = _format_table(headers, rows)
    table += (
        f"\n\nconfig: {spec.fleet.sources} sources x {spec.tiling.blocks} "
        f"blocks x {spec.tiling.workers} workers, "
        f"{spec.workload.records_per_epoch} records/epoch x "
        f"{spec.epochs} epochs, record_mode={spec.record_mode} "
        f"(host cpus: {os.cpu_count() or 1})"
    )
    extras: Dict[str, Any] = {
        "parallel_min_speedup": spec.parallel_min_speedup,
        "workers": spec.tiling.workers,
        "blocks": spec.tiling.blocks,
        "cpu_count": os.cpu_count() or 1,
        "speedups": {s: e["speedup"] for s, e in raw.items()},
        "identical": {s: e["identical"] for s, e in raw.items()},
    }
    return ScenarioResult(spec=spec, raw=raw, table=table, extras=extras)
