"""Execute :class:`~repro.scenarios.spec.ScenarioSpec` against the simulators.

Two layers live here:

* the **run primitives** — :func:`run_sharded` (a homogeneous fleet on one
  or more building blocks) and :func:`run_multi_query` (co-located query
  instances on one stream processor) — each running one configuration and
  checking that it conserved every record;
* the :class:`ScenarioRunner`, the one entry point of every cluster
  experiment.  ``_KINDS`` maps each scenario kind to one function that
  expands the spec's sweep into runs and builds the whole
  :class:`ScenarioResult` in one loop: the raw result, the text table, the
  chart series, the headline extras and the ``BENCH_*.json`` payload.

``tests/test_scenarios.py`` pins fixed-seed raw results against
``tests/data/scenario_golden.json`` and ``tests/test_scenario_outputs.py``
pins every kind's table, payload and report, so a change to this module
cannot move a figure's numbers unnoticed.
"""

from __future__ import annotations

import functools
import gc
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from ..config import PINGMESH_RECORD_BYTES
from ..errors import SimulationError
from ..query.records import DRAIN_HEADER_BYTES
from ..simulation.cluster import ClusterModel
from ..simulation.engine import RECORD_MODES
from ..simulation.metrics import ClusterMetrics, MultiQueryMetrics, RunMetrics
from ..simulation.multiquery import CoLocatedBlockExecutor, QuerySpec
from ..simulation.multisource import MultiSourceConfig, MultiSourceExecutor, SourceSpec
from ..simulation.node import BudgetSchedule, StreamProcessorNode
from ..simulation.parallel import ParallelBlockController
from ..simulation.sharding import (
    ByteRateBalancedPlacement,
    MigrationPolicy,
    SaturationMigrationPolicy,
    ShardedClusterExecutor,
)
from ..baselines import StaticLoadFactorStrategy
from .setups import (
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

#: Per-block ingress multiple for the sharded and parallel kinds: small
#: enough that a CI-sized fleet saturates a single block (§VI-E scale-out).
SHARDED_CAPACITY_MULTIPLE = 3.0

#: Dynamic re-placement: per-block ingress as a multiple of one block's
#: nominal drained rate — comfortable before the hotspot, saturated on the
#: hot block after it.
DYNAMIC_INGRESS_HEADROOM = 1.67

#: Dynamic re-placement: the dynamic run's migration policy; call it for a
#: fresh policy per run (a policy keeps streaks and cooldowns).  Relief and
#: cooldown depart from the class defaults (0.85 and 5 epochs) on purpose:
#: with the defaults, ``configs/fig10_dynamic_replacement.toml`` recovers
#: 69% of the static-to-oracle goodput gap instead of 89%.
DYNAMIC_MIGRATION_POLICY = functools.partial(
    SaturationMigrationPolicy,
    saturation_pressure=0.95,
    relief_pressure=0.92,
    hot_epochs=2,
    cooldown_epochs=2,
)

#: Timed runs per record mode in the ``record_modes`` kind; the fastest counts.
_MODE_TIMING_ROUNDS = 3

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Run primitives.
# ---------------------------------------------------------------------------


def _conserved(
    executor: Union[MultiSourceExecutor, ShardedClusterExecutor, CoLocatedBlockExecutor],
    metrics: T,
) -> T:
    """``metrics``, once ``executor`` shows it lost or duplicated no record."""
    violations = executor.verify_record_conservation()
    if violations:
        raise SimulationError(f"record conservation violated: {violations[:3]}")
    return metrics


def run_sharded(
    setup: QuerySetup,
    strategy_name: str,
    budget: "float | BudgetSchedule",
    num_sources: int,
    num_blocks: int = 1,
    placement: "str | Dict[str, int]" = "round_robin",
    num_epochs: int = 40,
    warmup_epochs: int = 12,
    stream_processor: Optional[StreamProcessorNode] = None,
    seed: int = 1,
    record_mode: str = "object",
    workers: int = 1,
) -> ClusterMetrics:
    """Run one strategy on ``num_sources`` sources over ``num_blocks`` blocks.

    Every source gets its own workload (seeded ``seed + index``) and its own
    strategy instance (decentralized runtimes, Section IV-A).  Each building
    block gets its own instance of the ``stream_processor`` node's ingress
    link and compute (Figure 4b tiling); with the default one block the whole
    fleet contends for one stream processor, with metrics identical to a
    :class:`MultiSourceExecutor`'s.  ``record_mode`` selects the object or
    arena hot path, and ``workers > 1`` steps the blocks on a
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
    )
    if workers > 1:
        with ParallelBlockController(workers=workers, **kwargs) as controller:
            metrics = _conserved(
                controller, controller.run(num_epochs, warmup_epochs=warmup_epochs)
            )
    else:
        executor = ShardedClusterExecutor(**kwargs)
        metrics = _conserved(
            executor, executor.run(num_epochs, warmup_epochs=warmup_epochs)
        )
    metrics.metadata.update(
        strategy=strategy_name, query=setup.name, budget=initial_budget
    )
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
    return _conserved(executor, metrics)


# ---------------------------------------------------------------------------
# The spec-driven runner.
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    ``raw`` is the kind's result shape (metrics objects included; the
    golden tests compare it), ``table`` is the benchmark-style text table,
    ``payload`` is the ``BENCH_<name>.json`` data (one schema per kind),
    ``series`` holds ``{label: {x: y}}`` line-chart data over ``x_label``,
    and ``extras`` carries headline scalars (supported sources, gap
    recovered, speedups) the assertion shims check.
    """

    spec: ScenarioSpec
    raw: Any
    table: str
    payload: Dict[str, Any]
    series: Dict[str, Dict[float, float]] = field(default_factory=dict)
    x_label: str = "x"
    extras: Dict[str, Any] = field(default_factory=dict)

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
                "x_label": self.x_label,
                "y_label": "throughput (Mbps)",
            }
        ]
        if self.extras:
            lines = [f"{key}: {value}" for key, value in sorted(self.extras.items())]
            sections.append({"heading": "Headline numbers", "body": "\n".join(lines)})
        return render_report(f"Scenario: {spec.name}", sections, subtitle=subtitle)

    def write(self, out_dir: "str | Path") -> Path:
        """Write ``REPORT_<name>.html`` under ``out_dir`` and return its path."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"REPORT_{self.spec.name}.html"
        path.write_text(self.render_report())
        return path


class ScenarioRunner:
    """Expand a :class:`ScenarioSpec` into runs and collect the results.

    Every knob comes from the spec; a config file, a ``--set`` override and
    a spec built in code all reach the simulators through :meth:`run`.
    """

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        return _KINDS[spec.kind](spec)


# ---------------------------------------------------------------------------
# Shared helpers of the kind functions.
# ---------------------------------------------------------------------------


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    from ..analysis.reporting import format_table

    return format_table(headers, rows)


def _initial_budget(spec: ScenarioSpec) -> float:
    return spec.fleet.budget_schedule().budget_at(0)


def _setup(spec: ScenarioSpec) -> QuerySetup:
    return make_setup(
        spec.workload.query,
        records_per_epoch=spec.workload.records_per_epoch,
        rate_scale=spec.workload.rate_scale,
    )


def _run_config(spec: ScenarioSpec, **config: object) -> Dict[str, object]:
    """The payload ``config`` of a simulated kind: the shared keys plus ``config``."""
    return {
        "records_per_epoch": spec.workload.records_per_epoch,
        "num_epochs": spec.epochs,
        "record_mode": spec.record_mode,
        **config,
    }


def _run_fleet(
    spec: ScenarioSpec,
    setup: QuerySetup,
    strategy_name: str,
    num_sources: int,
    **tiling: Any,
) -> ClusterMetrics:
    """:func:`run_sharded` at the spec's budget, epochs, seed and record mode."""
    return run_sharded(
        setup,
        strategy_name,
        spec.fleet.budget_schedule(),
        num_sources,
        num_epochs=spec.epochs,
        warmup_epochs=spec.resolved_warmup(),
        seed=spec.seed,
        record_mode=spec.record_mode,
        **tiling,
    )


def _calibration_run(
    spec: ScenarioSpec,
    setup: QuerySetup,
    strategy_name: str,
    num_epochs: int,
    warmup_epochs: int,
) -> RunMetrics:
    """The single-source run the analytic cluster model scales; its link
    is sized so that the network never limits the one source."""
    return run_single_source(
        setup,
        strategy_name,
        spec.fleet.budget_schedule(),
        num_epochs=num_epochs,
        warmup_epochs=warmup_epochs,
        bandwidth_mbps=max(setup.bandwidth_mbps, 4.0 * setup.input_rate_mbps),
        seed=spec.seed,
    )


def _timed(run: Callable[[], T]) -> Tuple[T, float]:
    """``run()`` and its wall time; garbage is collected before the timer."""
    gc.collect()
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def _cluster_metrics_identical(a: ClusterMetrics, b: ClusterMetrics) -> bool:
    """True when two runs produced bit-identical per-source epoch metrics."""
    if sorted(a.per_source) != sorted(b.per_source):
        return False
    return all(
        a.per_source[name].epochs == b.per_source[name].epochs
        for name in a.per_source
    )


# ---------------------------------------------------------------------------
# One function per kind (tables match the benchmark harness output).
# ---------------------------------------------------------------------------


def _scaling(spec: ScenarioSpec) -> ScenarioResult:
    """Figure 10: throughput and latency as the source count grows."""
    by_mode = {
        "analytic": _scaling_analytic,
        "simulated": _scaling_simulated,
        "comparison": _scaling_comparison,
    }
    return by_mode[spec.mode](spec)


def _scaling_analytic(spec: ScenarioSpec) -> ScenarioResult:
    """The closed-form model: one single-source run per strategy, scaled to
    every swept count, plus the supported-sources search."""
    setup = _setup(spec)
    cluster = ClusterModel(
        _cluster_sp_node(spec.workload.records_per_epoch),
        epoch_duration_s=setup.config.epoch.duration_s,
    )
    strategies = spec.sweep.strategies or ("Jarvis", "Best-OP")
    counts = spec.sweep.sources
    raw: Dict[str, Any] = {}
    series: Dict[str, Dict[float, float]] = {}
    extras: Dict[str, Any] = {}
    rows: List[List[object]] = []
    table = ""
    if counts:
        sweep: Dict[str, List[Any]] = {}
        for name in strategies:
            per_source = _calibration_run(
                spec, setup, name, spec.epochs, spec.resolved_warmup()
            )
            sweep[name] = [cluster.scale(per_source, n) for n in counts]
            series[name] = {
                float(n): result.aggregate_throughput_mbps
                for n, result in zip(counts, sweep[name])
            }
        raw["sweep"] = sweep
        if {"Jarvis", "Best-OP"} <= set(sweep):
            headers = [
                "sources",
                "expected_mbps",
                "jarvis_mbps",
                "bestop_mbps",
                "jarvis_med_lat_s",
                "bestop_med_lat_s",
                "jarvis_max_lat_s",
                "bestop_max_lat_s",
            ]
            for n, jarvis, best_op in zip(counts, sweep["Jarvis"], sweep["Best-OP"]):
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
        else:
            headers = [
                "strategy",
                "sources",
                "expected_mbps",
                "goodput_mbps",
                "link_util",
                "med_lat_s",
                "max_lat_s",
            ]
            for name, results in sweep.items():
                for n, result in zip(counts, results):
                    rows.append(
                        [
                            name,
                            n,
                            result.expected_throughput_mbps,
                            result.aggregate_throughput_mbps,
                            result.network_utilization,
                            result.median_latency_s,
                            result.max_latency_s,
                        ]
                    )
        table = _format_table(headers, rows)
    payload: Dict[str, Any] = {
        "config": {
            "rate_scale": spec.workload.rate_scale,
            "cpu_budget": _initial_budget(spec),
            "node_counts": list(counts),
        },
        "rows": rows,
    }
    if spec.max_sources_limit > 0:
        # The supported-sources search keeps its historical 40-epoch
        # calibration run regardless of the sweep's epoch count, so the
        # headline "75% more sources" number is sweep-size independent.
        supported = {
            name: cluster.max_supported_sources(
                _calibration_run(spec, setup, name, 40, 12),
                limit=spec.max_sources_limit,
            )
            for name in strategies
        }
        raw["supported"] = payload["supported_sources"] = supported
        extras["supported_sources"] = supported
        if {"Jarvis", "Best-OP"} <= set(supported):
            gain = 100.0 * (supported["Jarvis"] / max(1, supported["Best-OP"]) - 1)
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
    return ScenarioResult(
        spec, raw, table, payload, series, x_label="sources", extras=extras
    )


def _scaling_simulated(spec: ScenarioSpec) -> ScenarioResult:
    """The true executor: every swept count is one block of sources."""
    setup = _setup(spec)
    sp_node = _cluster_sp_node(spec.workload.records_per_epoch)
    counts = spec.sweep.sources or (spec.fleet.sources,)
    raw: Dict[str, List[ClusterMetrics]] = {}
    series: Dict[str, Dict[float, float]] = {}
    rows: List[List[object]] = []
    for name in spec.sweep.strategies or ("Jarvis", "Best-OP"):
        raw[name] = []
        series[name] = {}
        for n in counts:
            metrics = _run_fleet(spec, setup, name, n, stream_processor=sp_node)
            raw[name].append(metrics)
            rows.append(
                [
                    name,
                    n,
                    metrics.aggregate_offered_mbps(),
                    metrics.aggregate_throughput_mbps(),
                    metrics.network_utilization(),
                    metrics.median_latency_s(),
                ]
            )
            series[name][float(n)] = metrics.aggregate_throughput_mbps()
    table = _format_table(
        ["strategy", "sources", "offered_mbps", "goodput_mbps", "link_util", "med_lat_s"],
        rows,
    )
    payload = {
        "config": _run_config(spec, sources=list(counts)),
        "results": {
            name: [metrics.summary() for metrics in entries]
            for name, entries in raw.items()
        },
    }
    return ScenarioResult(spec, raw, table, payload, series, x_label="sources")


def _scaling_comparison(spec: ScenarioSpec) -> ScenarioResult:
    """The true executor against the closed-form model at every count."""
    setup = _setup(spec)
    sp_node = _cluster_sp_node(spec.workload.records_per_epoch)
    cluster = ClusterModel(sp_node, epoch_duration_s=setup.config.epoch.duration_s)
    counts = spec.sweep.sources or (spec.fleet.sources,)
    raw: Dict[str, List[Dict[str, float]]] = {}
    series: Dict[str, Dict[float, float]] = {}
    rows: List[List[object]] = []
    for name in spec.sweep.strategies or ("Jarvis", "Best-OP"):
        per_source = _calibration_run(
            spec, setup, name, spec.epochs, spec.resolved_warmup()
        )
        raw[name] = []
        analytic_series = series[f"{name} analytic"] = {}
        simulated_series = series[f"{name} simulated"] = {}
        for n in counts:
            analytic = cluster.scale(per_source, n)
            simulated = _run_fleet(spec, setup, name, n, stream_processor=sp_node)
            sim_throughput = simulated.aggregate_throughput_mbps()
            entry = {
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
            raw[name].append(entry)
            rows.append(
                [
                    name,
                    n,
                    entry["analytic_mbps"],
                    entry["simulated_mbps"],
                    entry["ratio"],
                    entry["simulated_network_utilization"],
                    entry["simulated_median_latency_s"],
                ]
            )
            analytic_series[float(n)] = entry["analytic_mbps"]
            simulated_series[float(n)] = entry["simulated_mbps"]
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
    # VI-E latency distribution, read off the largest simulated source count
    # (no extra simulation: the comparison already measured it).
    table += "\n\nVI-E latency at {} sources:".format(max(counts))
    for name, entries in raw.items():
        stats = max(entries, key=lambda entry: entry["sources"])
        table += (
            f"\n  {name}: median={stats['simulated_median_latency_s']:.2f}s "
            f"p95={stats['simulated_p95_latency_s']:.2f}s "
            f"max={stats['simulated_max_latency_s']:.2f}s"
        )
    payload = {"config": _run_config(spec, sources=list(counts)), "results": raw}
    return ScenarioResult(spec, raw, table, payload, series, x_label="sources")


def _sharded(spec: ScenarioSpec) -> ScenarioResult:
    """Figure 4b tiling: one fixed fleet over every swept block count."""
    setup = _setup(spec)
    sp_node = _cluster_sp_node(
        spec.workload.records_per_epoch, capacity_multiple=SHARDED_CAPACITY_MULTIPLE
    )
    block_counts = spec.sweep.blocks or (spec.tiling.blocks,)
    raw: Dict[str, List[ClusterMetrics]] = {}
    series: Dict[str, Dict[float, float]] = {}
    rows: List[List[object]] = []
    for name in spec.sweep.strategies or ("Jarvis", "Best-OP"):
        raw[name] = []
        series[name] = {}
        for k in block_counts:
            metrics = _run_fleet(
                spec,
                setup,
                name,
                spec.fleet.sources,
                num_blocks=k,
                placement=spec.tiling.placement_arg(),
                stream_processor=sp_node,
                workers=spec.tiling.workers,
            )
            raw[name].append(metrics)
            rows.append(
                [
                    name,
                    k,
                    metrics.aggregate_offered_mbps(),
                    metrics.aggregate_throughput_mbps(),
                    metrics.network_utilization(),
                    metrics.median_latency_s(),
                    max(metrics.metadata["placement"]["sources_per_block"]),
                ]
            )
            series[name][float(k)] = metrics.aggregate_throughput_mbps()
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
    payload = {
        "config": _run_config(
            spec, blocks=list(block_counts), fleet_sources=spec.fleet.sources
        ),
        "results": {
            name: [metrics.summary() for metrics in entries]
            for name, entries in raw.items()
        },
    }
    return ScenarioResult(spec, raw, table, payload, series, x_label="blocks")


def _dynamic_replacement(spec: ScenarioSpec) -> ScenarioResult:
    """Mid-run hotspot: static vs dynamic vs oracle placement.

    The fleet is partitioned contiguously across ``tiling.blocks`` blocks
    (sources ``0..per_block-1`` on block 0, and so on); at the hotspot's
    ``shift_epoch`` every source on block 0 starts producing ``factor``x
    its records (:class:`HotspotWorkload` — the declared nominal rate
    stays stale).  The per-block ingress is :data:`DYNAMIC_INGRESS_HEADROOM`
    times one block's nominal drained rate, so the fleet is comfortable
    until the shift and block 0 saturates after it while its neighbours keep
    headroom.

    Three runs of the identical scenario:

    * **static** — placement frozen at construction;
    * **dynamic** — same initial placement plus a
      :data:`DYNAMIC_MIGRATION_POLICY` live-migrating sources off the hot
      block;
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
    sp_node = StreamProcessorNode(
        ingress_bandwidth_mbps=DYNAMIC_INGRESS_HEADROOM * block_rate
    )
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
        return _conserved(
            executor, executor.run(spec.epochs, warmup_epochs=spec.resolved_warmup())
        )

    runs = {
        "static": run(static_assignment, None),
        "dynamic": run(static_assignment, DYNAMIC_MIGRATION_POLICY()),
        "oracle": run(oracle_assignment, None),
    }
    goodput = {
        label: metrics.aggregate_throughput_mbps() for label, metrics in runs.items()
    }
    gap = goodput["oracle"] - goodput["static"]
    gap_recovered = (goodput["dynamic"] - goodput["static"]) / gap if gap > 0 else 1.0
    migrations = runs["dynamic"].migration_events()
    scenario = {
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
    }
    raw = {
        "scenario": scenario,
        **runs,
        **{f"{label}_mbps": mbps for label, mbps in goodput.items()},
        "gap_recovered": gap_recovered,
        "migrations": migrations,
    }
    rows = [
        [
            label,
            goodput[label],
            metrics.network_utilization(),
            metrics.median_latency_s(),
            metrics.num_migrations(),
        ]
        for label, metrics in runs.items()
    ]
    table = _format_table(
        ["placement", "goodput_mbps", "link_util", "med_lat_s", "migrations"], rows
    )
    table += (
        f"\n\ngap recovered by dynamic re-placement: {100 * gap_recovered:.0f}%"
    )
    for event in migrations:
        table += (
            f"\n  epoch {event['epoch']}: {event['source']} "
            f"block {event['from_block']} -> {event['to_block']}"
        )
    payload = {
        "config": {
            "fleet": num_sources,
            "epochs": spec.epochs,
            "shift_epoch": hotspot.shift_epoch,
            "records_per_epoch": spec.workload.records_per_epoch,
            "record_mode": spec.record_mode,
        },
        "scenario": scenario,
        "goodput_mbps": goodput,
        "gap_recovered": gap_recovered,
        "migrations": migrations,
    }
    extras = {
        "gap_recovered": gap_recovered,
        "num_migrations": len(migrations),
        **{f"{label}_mbps": mbps for label, mbps in goodput.items()},
    }
    return ScenarioResult(spec, raw, table, payload, extras=extras)


def _colocated(spec: ScenarioSpec) -> ScenarioResult:
    """Figure 11: aggregate throughput of co-located query instances.

    As in the paper, each instance runs with *fixed* load factors sized for
    its per-query CPU demand, and the node's ``fleet.cores`` are shared
    max-min fairly, so each instance runs under ``min(demand, cores /
    count)`` — past that knee instances are starved and aggregate
    throughput saturates.  The demand is the paper's for the rate scale
    (55% / 30% / 5% of a core at 10x / 5x / 1x), else the query's full
    cost; Jarvis derives the data-level plan for it once, and every
    instance then runs that plan — the experiment measures interference,
    not adaptation.  ``spec.mode`` selects the path:

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
    warmup = spec.resolved_warmup()
    latency_bound = setup.config.epoch.latency_bound_s
    demand = MULTI_QUERY_DEMAND.get(spec.workload.rate_scale) or min(
        1.0, ground_truth_profile(setup, 1.0).full_cost_fraction()
    )
    calibration = run_single_source(
        setup, "Jarvis", demand, num_epochs=spec.epochs, warmup_epochs=warmup,
        seed=spec.seed,
    )
    factors = list(calibration.epochs[-1].load_factors)

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

    comparison = spec.mode == "comparison"
    query_counts = spec.sweep.queries or (1, 2, 3, 4, 5)
    raw: List[Dict[str, float]] = []
    rows: List[List[object]] = []
    series: Dict[str, Dict[float, float]] = {"aggregate": {}}
    if comparison:
        series["analytic"] = {}
    for count in query_counts:
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
        line: List[object] = [
            count,
            allocated,
            row["aggregate_throughput_mbps"],
            row.get("median_latency_s", float("nan")),
        ]
        if comparison:
            expected = analytic(count, allocated)["aggregate_throughput_mbps"]
            measured = row["aggregate_throughput_mbps"]
            row["analytic_mbps"] = expected
            row["simulated_mbps"] = measured
            row["ratio"] = measured / expected if expected > 0 else 0.0
            line += [expected, row["ratio"]]
            series["analytic"][float(count)] = expected
        series["aggregate"][float(count)] = row["aggregate_throughput_mbps"]
        raw.append(row)
        rows.append(line)
    header = ["queries", "budget/q", "aggregate_mbps", "med_lat_s"]
    if comparison:
        header += ["analytic_mbps", "sim/analytic"]
    table = _format_table(header, rows)
    table += f"\n\nper-query CPU demand: {demand:.2f} of a core"
    payload = {
        "config": _run_config(
            spec, query_counts=list(query_counts), mode=spec.mode
        ),
        "rows": raw,
    }
    return ScenarioResult(
        spec,
        raw,
        table,
        payload,
        series,
        x_label="queries",
        extras={"per_query_demand": demand},
    )


def _record_modes(spec: ScenarioSpec) -> ScenarioResult:
    """Object vs arena record mode: identical metrics, arena's speedup."""
    setup = _setup(spec)
    warmup = spec.resolved_warmup()

    def run_mode(strategy_name: str, record_mode: str) -> Tuple[ClusterMetrics, float]:
        # Both modes pay identical construction cost (same specs, same
        # engine setup), so the measurement isolates what the record
        # representation changes: the epoch execution itself.
        specs, cluster_config, _ = _homogeneous_fleet(
            setup,
            strategy_name,
            spec.fleet.budget_schedule(),
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
        metrics, elapsed = _timed(
            lambda: executor.run(spec.epochs, warmup_epochs=warmup)
        )
        return _conserved(executor, metrics), elapsed

    raw: Dict[str, Dict[str, float]] = {}
    for strategy_name in spec.sweep.strategies or ("Best-OP", "Jarvis"):
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
    headers = ["strategy"]
    headers += [f"{mode}_wall_s" for mode in RECORD_MODES]
    headers.append("speedup")
    headers += [f"{mode}_goodput_mbps" for mode in RECORD_MODES]
    table = _format_table(
        headers,
        [[name] + [entry[key] for key in headers[1:]] for name, entry in raw.items()],
    )
    table += (
        f"\n\nconfig: {spec.fleet.sources} sources x "
        f"{spec.workload.records_per_epoch} records/epoch x "
        f"{spec.epochs} epochs (Fig. 10a: 10x input, 55% CPU)"
    )
    payload = {
        "config": {
            "sources": spec.fleet.sources,
            "records_per_epoch": spec.workload.records_per_epoch,
            "num_epochs": spec.epochs,
            "rate_scale": spec.workload.rate_scale,
            "cpu_budget": _initial_budget(spec),
            "min_speedup": spec.min_speedup,
        },
        "results": raw,
    }
    extras = {
        "min_speedup": spec.min_speedup,
        "speedups": {name: entry["speedup"] for name, entry in raw.items()},
    }
    return ScenarioResult(spec, raw, table, payload, extras=extras)


def _parallel(spec: ScenarioSpec) -> ScenarioResult:
    """Worker-pool block stepping against the serial lockstep it must equal."""
    setup = _setup(spec)
    sp_node = _cluster_sp_node(
        spec.workload.records_per_epoch, capacity_multiple=SHARDED_CAPACITY_MULTIPLE
    )
    warmup = spec.resolved_warmup()

    def tiled_fleet(strategy_name: str) -> Dict[str, Any]:
        specs, cluster_config, _ = _homogeneous_fleet(
            setup,
            strategy_name,
            spec.fleet.budget_schedule(),
            spec.fleet.sources,
            sp_node,
            warmup,
            spec.seed,
            record_mode=spec.record_mode,
        )
        return dict(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=specs,
            num_blocks=spec.tiling.blocks,
            placement=spec.tiling.placement_arg(),
            cluster_config=cluster_config,
        )

    raw: Dict[str, Dict[str, Any]] = {}
    for strategy_name in spec.sweep.strategies or ("Jarvis",):
        # Worker-pool run first, before any serial metrics bloat the
        # heap: the workers fork from this process, and forking a large
        # heap taxes the children with copy-on-write faults for the
        # whole run (measured ~3s of phantom overhead at 1024 sources
        # when a serial run preceded the fork).  The pool and its
        # fork/adopt handshake stay outside the timer so the
        # measurement isolates epoch stepping, matching how a
        # long-lived controller amortises startup.
        with ParallelBlockController(
            workers=spec.tiling.workers, **tiled_fleet(strategy_name)
        ) as controller:
            parallel_metrics, parallel_s = _timed(
                lambda: controller.run(spec.epochs, warmup_epochs=warmup)
            )
            _conserved(controller, parallel_metrics)

        # Serial lockstep reference on an identically constructed
        # fleet: the executor the controller must reproduce bit-for-bit.
        serial = ShardedClusterExecutor(**tiled_fleet(strategy_name))
        serial_metrics, serial_s = _timed(
            lambda: serial.run(spec.epochs, warmup_epochs=warmup)
        )
        _conserved(serial, serial_metrics)
        raw[strategy_name] = {
            "serial_wall_s": serial_s,
            "parallel_wall_s": parallel_s,
            "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
            "identical": _cluster_metrics_identical(serial_metrics, parallel_metrics),
            "serial_goodput_mbps": serial_metrics.aggregate_throughput_mbps(),
            "parallel_goodput_mbps": parallel_metrics.aggregate_throughput_mbps(),
        }
    headers = [
        "strategy",
        "serial_wall_s",
        "parallel_wall_s",
        "speedup",
        "identical",
        "serial_goodput_mbps",
        "parallel_goodput_mbps",
    ]
    table = _format_table(
        headers,
        [[name] + [entry[key] for key in headers[1:]] for name, entry in raw.items()],
    )
    table += (
        f"\n\nconfig: {spec.fleet.sources} sources x {spec.tiling.blocks} "
        f"blocks x {spec.tiling.workers} workers, "
        f"{spec.workload.records_per_epoch} records/epoch x "
        f"{spec.epochs} epochs, record_mode={spec.record_mode} "
        f"(host cpus: {os.cpu_count() or 1})"
    )
    payload = {
        "config": _run_config(
            spec,
            sources=spec.fleet.sources,
            blocks=spec.tiling.blocks,
            workers=spec.tiling.workers,
            parallel_min_speedup=spec.parallel_min_speedup,
        ),
        "results": raw,
    }
    extras: Dict[str, Any] = {
        "parallel_min_speedup": spec.parallel_min_speedup,
        "workers": spec.tiling.workers,
        "blocks": spec.tiling.blocks,
        "cpu_count": os.cpu_count() or 1,
        "speedups": {name: entry["speedup"] for name, entry in raw.items()},
        "identical": {name: entry["identical"] for name, entry in raw.items()},
    }
    return ScenarioResult(spec, raw, table, payload, extras=extras)


#: The one function that runs each scenario kind and builds its result.
_KINDS: Dict[str, Callable[[ScenarioSpec], ScenarioResult]] = {
    "scaling": _scaling,
    "sharded": _sharded,
    "dynamic_replacement": _dynamic_replacement,
    "colocated": _colocated,
    "record_modes": _record_modes,
    "parallel": _parallel,
}
