"""Execute :class:`~repro.scenarios.spec.ScenarioSpec` against the simulators.

Two layers live here:

* the **run primitives** — :func:`run_multi_source`, :func:`run_sharded` and
  :func:`run_multi_query` — each running one configuration against the
  right executor;
* the :class:`ScenarioRunner`, the one entry point of every cluster
  experiment: it reads a declarative spec, expands its sweep axes into runs
  and returns a :class:`ScenarioResult` carrying the raw result, a formatted
  text table, the ``BENCH_*.json`` payload, and a self-contained HTML
  report.

``tests/test_scenarios.py`` pins fixed-seed results of every kind against
``tests/data/scenario_golden.json``, so a change to this module cannot move
a figure's numbers unnoticed.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
from ..simulation.node import BudgetSchedule, StreamProcessorNode
from ..simulation.parallel import ParallelBlockController
from ..simulation.sharding import (
    ByteRateBalancedPlacement,
    MigrationPolicy,
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
from .spec import MigrationSpec, ScenarioSpec

#: Default per-block ingress multiple for the sharded tiling sweep: small
#: enough that a CI-sized fleet saturates a single block (§VI-E scale-out).
SHARDED_CAPACITY_MULTIPLE = 3.0

#: Default ingress headroom for the dynamic re-placement scenario.
DYNAMIC_INGRESS_HEADROOM = 1.67

#: Timed runs per record mode in the ``record_modes`` kind; the fastest counts.
_MODE_TIMING_ROUNDS = 3


# ---------------------------------------------------------------------------
# Run primitives.
# ---------------------------------------------------------------------------


def run_multi_source(
    setup: QuerySetup,
    strategy_name: str,
    budget: "float | BudgetSchedule",
    num_sources: int,
    num_epochs: int = 40,
    warmup_epochs: int = 12,
    stream_processor: Optional[StreamProcessorNode] = None,
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
        stream_processor, warmup_epochs, seed,
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
        stream_processor, warmup_epochs, seed,
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


# ---------------------------------------------------------------------------
# The spec-driven runner.
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    ``raw`` is the kind's result shape (metrics objects included; the
    golden tests compare it), ``table`` is the benchmark-style text table,
    ``series`` holds ``{label: {x: y}}`` line-chart data, and ``extras``
    carries headline scalars (supported sources, gap recovered, speedups)
    the assertion shims check.
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


def _setup(spec: ScenarioSpec) -> QuerySetup:
    return make_setup(
        spec.workload.query,
        records_per_epoch=spec.workload.records_per_epoch,
        rate_scale=spec.workload.rate_scale,
    )


def _setup_and_sp(
    spec: ScenarioSpec, default_multiple: float
) -> Tuple[QuerySetup, StreamProcessorNode]:
    """The spec's query setup and its shared stream-processor node.

    ``default_multiple`` is the kind's calibrated ingress multiple, used
    when ``tiling.sp_capacity_multiple`` is unset.
    """
    setup = _setup(spec)
    sp_node = _cluster_sp_node(
        spec.workload.records_per_epoch,
        sp_cores=spec.tiling.sp_cores,
        capacity_multiple=spec.tiling.sp_capacity_multiple or default_multiple,
    )
    return setup, sp_node


class ScenarioRunner:
    """Expand a :class:`ScenarioSpec` into runs and collect the results.

    Every knob comes from the spec; a config file, a ``--set`` override and
    a spec built in code all reach the simulators through :meth:`run`.
    """

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        if spec.kind == "scaling":
            return self._run_scaling(spec)
        if spec.kind == "sharded":
            return self._run_sharded(spec)
        if spec.kind == "dynamic_replacement":
            return self._run_dynamic(spec)
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
        setup, sp = _setup_and_sp(spec, CLUSTER_CAPACITY_INPUT_MULTIPLE)
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
        setup, sp_node = _setup_and_sp(spec, CLUSTER_CAPACITY_INPUT_MULTIPLE)
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
        setup, sp_node = _setup_and_sp(spec, CLUSTER_CAPACITY_INPUT_MULTIPLE)
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
        setup, sp_node = _setup_and_sp(spec, SHARDED_CAPACITY_MULTIPLE)
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

    def _run_dynamic(self, spec: ScenarioSpec) -> ScenarioResult:
        """Mid-run hotspot: static vs dynamic vs oracle placement.

        The fleet is partitioned contiguously across ``tiling.blocks`` blocks
        (sources ``0..per_block-1`` on block 0, and so on); at the hotspot's
        ``shift_epoch`` every source on block 0 starts producing ``factor``x
        its records (:class:`HotspotWorkload` — the declared nominal rate
        stays stale).  The per-block ingress is ``tiling.ingress_headroom``x
        one block's nominal drained rate, so the fleet is comfortable until
        the shift and block 0 saturates after it while its neighbours keep
        headroom.

        Three runs of the identical scenario:

        * **static** — placement frozen at construction;
        * **dynamic** — same initial placement plus the ``[migration]``
          policy (a default :class:`MigrationSpec` when the section is
          absent) live-migrating sources off the hot block;
        * **oracle** — placement re-balanced *at construction* with perfect
          knowledge of the post-shift rates (the upper bound a re-placement
          policy can approach, transient-free).

        Metrics are measured from the resolved warmup on (the shift epoch by
        default), so the headline numbers compare post-shift goodput;
        ``gap_recovered`` is the fraction of the static-to-oracle goodput gap
        the dynamic run recovered.
        """
        hotspot = spec.workload.hotspot
        assert hotspot is not None  # enforced by ScenarioSpec validation
        setup = _setup(spec)
        schedule = spec.fleet.budget_schedule()
        num_sources, num_blocks = spec.fleet.sources, spec.tiling.blocks
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
                workload = setup.workload_factory(spec.seed + index)
                if name in hot_sources:
                    workload = HotspotWorkload(
                        workload, shift_epoch=hotspot.shift_epoch, factor=hotspot.factor
                    )
                specs.append(
                    SourceSpec(
                        name=name,
                        workload=workload,
                        strategy=make_strategy(
                            spec.fleet.strategy, setup, schedule.budget_at(0)
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
        headroom = spec.tiling.ingress_headroom or DYNAMIC_INGRESS_HEADROOM
        sp_node = StreamProcessorNode(ingress_bandwidth_mbps=headroom * block_rate)
        cluster_config = MultiSourceConfig(
            config=setup.config,
            stream_processor=sp_node,
            warmup_epochs=spec.resolved_warmup(),
            record_mode=spec.record_mode,
        )

        # Oracle: balanced bin-packing with perfect post-shift rate knowledge.
        true_rates = {
            name: setup.input_rate_mbps
            * (hotspot.factor if name in hot_sources else 1.0)
            for name in static_assignment
        }
        oracle_specs = build_specs()
        oracle_blocks = ByteRateBalancedPlacement(
            rate_fn=lambda source: true_rates[source.name]
        ).assign(oracle_specs, num_blocks)
        oracle_assignment = {
            source.name: block for source, block in zip(oracle_specs, oracle_blocks)
        }

        def run(
            placement: Dict[str, int], policy: Optional[MigrationPolicy]
        ) -> ClusterMetrics:
            executor = ShardedClusterExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=build_specs(),
                num_blocks=num_blocks,
                placement=placement,
                cluster_config=cluster_config,
                migration=policy,
            )
            metrics = executor.run(spec.epochs, warmup_epochs=spec.resolved_warmup())
            violations = executor.verify_record_conservation()
            if violations:
                raise SimulationError(
                    f"record conservation violated: {violations[:3]}"
                )
            return metrics

        static = run(static_assignment, None)
        dynamic = run(static_assignment, (spec.migration or MigrationSpec()).build())
        oracle = run(oracle_assignment, None)

        static_mbps = static.aggregate_throughput_mbps()
        dynamic_mbps = dynamic.aggregate_throughput_mbps()
        oracle_mbps = oracle.aggregate_throughput_mbps()
        gap = oracle_mbps - static_mbps
        raw = {
            "scenario": {
                "num_sources": num_sources,
                "num_blocks": num_blocks,
                "shift_epoch": hotspot.shift_epoch,
                "hotspot_factor": hotspot.factor,
                "hot_sources": sorted(hot_sources),
                "ingress_mbps": sp_node.ingress_bandwidth_mbps,
                "record_mode": spec.record_mode,
                "strategy": spec.fleet.strategy,
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
        return _dynamic_result(spec, raw)

    # -- co-located multi-query ----------------------------------------------

    def _run_colocated(self, spec: ScenarioSpec) -> ScenarioResult:
        """Figure 11: aggregate throughput of co-located query instances.

        As in the paper, each instance runs with *fixed* load factors sized
        for its per-query CPU demand (:meth:`_fig11_plan`), and the node's
        ``fleet.cores`` are shared max-min fairly, so each instance runs
        under ``min(demand, cores / count)`` — past that knee instances are
        starved and aggregate throughput saturates.  ``spec.mode`` selects
        the path:

        * ``"analytic"`` — one frozen-plan single-source run per count,
          scaled by the count;
        * ``"simulated"`` — :func:`run_multi_query` actually co-locates
          ``count`` instances on one stream processor, so shared-link and
          SP-compute contention emerge from measurement;
        * ``"comparison"`` — both, plus their throughput ratio per count
          (agreement within 15% below the knee is asserted by the Fig. 11
          benchmark).
        """
        setup = _setup(spec)
        demand, factors = self._fig11_plan(spec, setup)
        warmup = spec.resolved_warmup()
        latency_bound = setup.config.epoch.latency_bound_s

        def analytic(count: int, allocated: float) -> Dict[str, float]:
            strategy = StaticLoadFactorStrategy(factors, name=f"fixed-{count}q")
            metrics = run_single_source(
                setup,
                strategy.name,
                allocated,
                num_epochs=spec.epochs,
                warmup_epochs=warmup,
                strategy=strategy,
                seed=spec.seed,
            )
            # The paper reports throughput under a 5-second latency bound,
            # which is what exposes saturation once instances are starved.
            per_query = metrics.throughput_mbps(latency_bound_s=latency_bound)
            return {
                "per_query_throughput_mbps": per_query,
                "per_query_unbounded_mbps": metrics.throughput_mbps(),
                "aggregate_throughput_mbps": per_query * count,
            }

        def simulated(count: int, allocated: float) -> Dict[str, float]:
            # Every co-located instance brings the paper's per-source uplink
            # share (Section VI-A), so the shared ingress grows with the
            # count and each query's tier-1 fair share matches the analytic
            # path's single-source bandwidth — agreement below the knee is
            # then about the executors, not about mismatched provisioning.
            metrics = run_multi_query(
                setup,
                num_queries=count,
                per_query_budget=allocated,
                load_factors=factors,
                num_epochs=spec.epochs,
                warmup_epochs=warmup,
                stream_processor=StreamProcessorNode(
                    ingress_bandwidth_mbps=count * setup.bandwidth_mbps
                ),
                record_mode=spec.record_mode,
                seed=spec.seed,
            )
            aggregate = metrics.aggregate_throughput_mbps(latency_bound_s=latency_bound)
            return {
                "per_query_throughput_mbps": aggregate / count,
                "aggregate_throughput_mbps": aggregate,
                "aggregate_unbounded_mbps": metrics.aggregate_throughput_mbps(),
                "sp_cpu_utilization": metrics.sp_cpu_utilization(),
                "median_latency_s": metrics.median_latency_s(),
                "max_latency_s": metrics.max_latency_s(),
            }

        rows: List[Dict[str, float]] = []
        for count in spec.sweep.queries or (1, 2, 3, 4, 5):
            allocated = min(demand, float(spec.fleet.cores) / count)
            row = {
                "queries": float(count),
                "cores": float(spec.fleet.cores),
                "per_query_demand": float(demand),
                "per_query_budget": allocated,
            }
            if spec.mode == "analytic":
                row.update(analytic(count, allocated))
            else:
                row.update(simulated(count, allocated))
            if spec.mode == "comparison":
                expected = analytic(count, allocated)["aggregate_throughput_mbps"]
                measured = row["aggregate_throughput_mbps"]
                row["analytic_mbps"] = expected
                row["simulated_mbps"] = measured
                row["ratio"] = measured / expected if expected > 0 else 0.0
            rows.append(row)
        return _colocated_result(spec, rows)

    def _fig11_plan(
        self, spec: ScenarioSpec, setup: QuerySetup
    ) -> Tuple[float, List[float]]:
        """Per-query CPU demand and the frozen load factors sized for it.

        The demand is ``run.per_query_demand``, else the paper's demand for
        the rate scale (55% / 30% / 5% of a core at 10x / 5x / 1x), else the
        query's full cost.  As in the paper's Figure 11 setup, Jarvis derives
        the data-level plan for that budget once, and every co-located
        instance then runs with those load factors *fixed* — the experiment
        measures interference, not adaptation.
        """
        demand = spec.per_query_demand or MULTI_QUERY_DEMAND.get(
            spec.workload.rate_scale
        )
        if demand is None:
            demand = min(1.0, ground_truth_profile(setup, 1.0).full_cost_fraction())
        calibration = run_single_source(
            setup,
            "Jarvis",
            demand,
            num_epochs=spec.epochs,
            warmup_epochs=spec.resolved_warmup(),
            seed=spec.seed,
        )
        return demand, list(calibration.epochs[-1].load_factors)

    # -- record modes ---------------------------------------------------------

    def _run_record_modes(self, spec: ScenarioSpec) -> ScenarioResult:
        setup = _setup(spec)
        warmup = spec.resolved_warmup()
        strategies = spec.sweep.strategies or ("Best-OP", "Jarvis")

        def run_mode(strategy_name: str, record_mode: str):
            # Both modes pay identical construction cost (same specs, same
            # engine setup), so the measurement isolates what the record
            # representation changes: the epoch execution itself.
            specs, cluster_config, _ = _homogeneous_fleet(
                setup,
                strategy_name,
                _budget_arg(spec),
                spec.fleet.sources,
                None,
                warmup,
                spec.seed,
                record_mode=record_mode,
            )
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
        setup, sp_node = _setup_and_sp(spec, SHARDED_CAPACITY_MULTIPLE)
        warmup = spec.resolved_warmup()
        strategies = spec.sweep.strategies or ("Jarvis",)

        def fleet(strategy_name: str):
            specs, cluster_config, _ = _homogeneous_fleet(
                setup,
                strategy_name,
                _budget_arg(spec),
                spec.fleet.sources,
                sp_node,
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
