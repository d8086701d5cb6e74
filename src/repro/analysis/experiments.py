"""Canned experiment runners for every figure of the paper's evaluation.

Each function reproduces the measurement behind one figure (or one inline
claim); the benchmarks in ``benchmarks/`` call them and print the resulting
rows/series, and ``EXPERIMENTS.md`` records paper-vs-measured values.

All experiments run on the epoch simulator with cost models calibrated to the
paper's reported CPU fractions, and with network bandwidth expressed relative
to the input rate exactly as in the paper's configuration (Section VI-A), so
the *shape* of every result — who wins, by what factor, where knees and
crossovers fall — is comparable even though absolute rates are scaled down.

The cluster-scale sweeps (Figures 10/11, record-mode timing) are thin
builders over the declarative harness in :mod:`repro.scenarios`: each
constructs a :class:`~repro.scenarios.spec.ScenarioSpec` and delegates to the
:class:`~repro.scenarios.runner.ScenarioRunner`, so the keyword-argument API
and the TOML-config path execute the exact same code (fixed-seed equivalence
is test-enforced).  The setup layer (:func:`make_setup`, strategy factories,
fleet construction) and the run primitives live in
:mod:`repro.scenarios.setups` / :mod:`repro.scenarios.runner` and are
re-exported here under their historical names.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from ..baselines import JarvisStrategy, PartitioningStrategy
from ..core.state import QueryState
from ..core.stepwise_adapt import FineTuner
from ..core.lp_solver import clear_plan_cache, cumulative_relay
from ..errors import ConfigurationError
from ..query.records import IpToTorTable, half_up, record_size_bytes
from ..simulation.cluster import ClusterResult
from ..simulation.executor import BuildingBlockExecutor
from ..simulation.metrics import ClusterMetrics
from ..simulation.node import BudgetSchedule
from ..simulation.sharding import MigrationPolicy
from ..synopsis.estimators import alert_analysis, evaluate_sampling_accuracy
from ..synopsis.sampling import WindowSampler

# Setup-level primitives and constants moved to the scenario harness; kept
# importable here (tests, benchmarks, and examples use these names).
from ..scenarios.setups import (  # noqa: F401
    CLUSTER_CAPACITY_INPUT_MULTIPLE,
    MULTI_QUERY_DEMAND,
    PAPER_BANDWIDTH_MBPS,
    PAPER_INPUT_MBPS,
    QUERY_NAMES,
    STRATEGY_NAMES,
    HotspotWorkload,
    QuerySetup,
    _cluster_sp_node,
    _homogeneous_fleet,
    ground_truth_profile,
    make_setup,
    make_strategy,
    measure_relays,
    run_single_source,
)

# Run primitives moved to the scenario runner; same public names.
from ..scenarios.runner import (  # noqa: F401
    FIG11_MODES,
    _fig11_fixed_plan,
    multi_query_sweep,
    run_multi_query,
    run_multi_source,
    run_sharded,
)
from ..scenarios.runner import (
    ScenarioRunner,
    dynamic_replacement_sweep as _dynamic_replacement_impl,
)
from ..scenarios.spec import (
    FleetSpec,
    HotspotSpec,
    ScenarioSpec,
    SweepSpec,
    TilingSpec,
    WorkloadSpec,
)


# ---------------------------------------------------------------------------
# Figure 3: operator-level vs data-level partitioning.
# ---------------------------------------------------------------------------


def partitioning_mode_comparison(
    setup: Optional[QuerySetup] = None,
    budget: float = 0.80,
    num_epochs: int = 40,
    warmup_epochs: int = 12,
) -> Dict[str, Dict[str, float]]:
    """Reproduce Figure 3: S2SProbe at an 80% CPU budget.

    Compares operator-level partitioning (Best-OP) with data-level
    partitioning (Jarvis) in terms of outbound network traffic, CPU
    utilisation, and throughput.  The paper reports ~22.5 Mbps of network
    traffic for operator-level and ~9.4 Mbps for data-level (a 2.4x gap).
    """
    setup = setup or make_setup("s2s_probe")
    results: Dict[str, Dict[str, float]] = {}
    for mode, strategy_name in (("operator-level", "Best-OP"), ("data-level", "Jarvis")):
        metrics = run_single_source(
            setup, strategy_name, budget, num_epochs=num_epochs, warmup_epochs=warmup_epochs
        )
        summary = metrics.summary()
        summary["network_fraction_of_input"] = (
            summary["network_mbps"] / summary["offered_mbps"]
            if summary["offered_mbps"] > 0
            else 0.0
        )
        results[mode] = summary
    return results


# ---------------------------------------------------------------------------
# Figure 7: throughput over varying CPU budgets.
# ---------------------------------------------------------------------------


def throughput_sweep(
    query_name: str = "s2s_probe",
    budgets: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    strategies: Sequence[str] = ("All-Src", "All-SP", "Filter-Src", "Best-OP", "LB-DP", "Jarvis"),
    num_epochs: int = 40,
    warmup_epochs: int = 12,
    records_per_epoch: int = 800,
    setup: Optional[QuerySetup] = None,
) -> Dict[str, Dict[float, Dict[str, float]]]:
    """Reproduce Figure 7 (a/b/c): throughput vs CPU budget per strategy."""
    setup = setup or make_setup(query_name, records_per_epoch=records_per_epoch)
    results: Dict[str, Dict[float, Dict[str, float]]] = {}
    for strategy_name in strategies:
        per_budget: Dict[float, Dict[str, float]] = {}
        for budget in budgets:
            metrics = run_single_source(
                setup,
                strategy_name,
                budget,
                num_epochs=num_epochs,
                warmup_epochs=warmup_epochs,
            )
            per_budget[budget] = metrics.summary()
        results[strategy_name] = per_budget
    return results


# ---------------------------------------------------------------------------
# Figure 8: convergence analysis.
# ---------------------------------------------------------------------------


def convergence_run(
    query_name: str = "s2s_probe",
    strategies: Sequence[str] = ("Jarvis", "LP only", "w/o LP-init"),
    schedule: Optional[BudgetSchedule] = None,
    num_epochs: int = 30,
    records_per_epoch: int = 600,
    setup: Optional[QuerySetup] = None,
    events: Optional[Dict[int, Callable[[BuildingBlockExecutor, PartitioningStrategy], None]]] = None,
) -> Dict[str, Dict[str, object]]:
    """Reproduce Figure 8: epochs to re-stabilize after resource changes.

    The default schedule matches Figure 8a for S2SProbe: 10% CPU, jump to 90%
    at epoch 3, drop to 60% at epoch 18.  For T2TProbe callers pass an events
    dict that swaps the join table (Figure 8b).
    """
    setup = setup or make_setup(query_name, records_per_epoch=records_per_epoch)
    if schedule is None:
        schedule = BudgetSchedule([(0, 0.10), (3, 0.90), (18, 0.60)])
    change_epochs = schedule.change_epochs()
    if events:
        change_epochs = sorted(set(change_epochs) | set(events))

    results: Dict[str, Dict[str, object]] = {}
    for strategy_name in strategies:
        metrics = run_single_source(
            setup,
            strategy_name,
            schedule,
            num_epochs=num_epochs,
            warmup_epochs=0,
            events=events,
        )
        convergence = {
            change: metrics.convergence_epochs(change) for change in change_epochs
        }
        results[strategy_name] = {
            "states": [s.value if s else None for s in metrics.state_timeline()],
            "phases": [p.value if p else None for p in metrics.phase_timeline()],
            "convergence_epochs": convergence,
            "summary": metrics.summary(),
        }
    return results


def swap_join_table(table: IpToTorTable) -> Callable[[BuildingBlockExecutor, PartitioningStrategy], None]:
    """Event callback that replaces the static join table mid-run (Fig. 8b)."""

    def _apply(executor: BuildingBlockExecutor, strategy: PartitioningStrategy) -> None:
        for stage in executor.source_pipeline.stages:
            if hasattr(stage.operator, "table"):
                stage.operator.table = table
        for operator in executor.sp_pipeline.operators:
            if hasattr(operator, "table"):
                operator.table = table

    return _apply


def reset_jarvis_plan() -> Callable[[BuildingBlockExecutor, PartitioningStrategy], None]:
    """Event callback reproducing the paper's manual load-factor reset."""

    def _apply(executor: BuildingBlockExecutor, strategy: PartitioningStrategy) -> None:
        reset = getattr(strategy, "reset_load_factors", None)
        if callable(reset):
            reset()

    return _apply


# ---------------------------------------------------------------------------
# Figure 9: comparison against data synopses (window-based sampling).
# ---------------------------------------------------------------------------


def synopsis_comparison(
    sampling_rates: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
    records_per_epoch: int = 800,
    num_windows: int = 2,
    jarvis_budgets: Sequence[float] = (1.0, 0.2),
    error_points_ms: Sequence[float] = (0.5, 1.0, 2.0, 5.0, 10.0),
    seed: int = 3,
) -> Dict[str, object]:
    """Reproduce Figure 9: sampling accuracy/network vs Jarvis network.

    Returns per-sampling-rate estimation-error CDF values, alert miss rates,
    and network transfer, plus the network transfer Jarvis needs at 100% and
    20% CPU budgets (which comes with zero accuracy loss).
    """
    setup = make_setup("s2s_probe", records_per_epoch=records_per_epoch, seed=seed)
    workload = setup.workload_factory(seed)
    window_epochs = max(
        1, half_up(setup.plan.window_length_s / setup.config.epoch.duration_s)
    )
    records = []
    for epoch in range(num_windows * window_epochs):
        records.extend(workload.records_for_epoch(epoch))
    duration_s = num_windows * setup.plan.window_length_s
    input_mbps = record_size_bytes(records) * 8.0 / 1e6 / duration_s

    sampling_results = {}
    for rate in sampling_rates:
        accuracy = evaluate_sampling_accuracy(records, rate, seed=seed)
        alerts = alert_analysis(records, rate, threshold_ms=5.0, seed=seed)
        sampler = WindowSampler(rate, seed=seed)
        transfer = sampler.sample_window(records)
        sampling_results[rate] = {
            "error_cdf": dict(zip(error_points_ms, accuracy.error_cdf(error_points_ms))),
            "fraction_within_1ms": accuracy.fraction_within(1.0),
            "alert_miss_rate": alerts.miss_rate,
            "network_mbps": transfer.sampled_bytes * 8.0 / 1e6 / duration_s,
            "transfer_fraction": transfer.transfer_fraction,
        }

    jarvis_results = {}
    for budget in jarvis_budgets:
        metrics = run_single_source(setup, "Jarvis", budget, num_epochs=40, warmup_epochs=12)
        jarvis_results[budget] = {
            "network_mbps": metrics.network_mbps(),
            "transfer_fraction": (
                metrics.network_mbps() / metrics.offered_mbps()
                if metrics.offered_mbps() > 0
                else 0.0
            ),
            "accuracy_loss": 0.0,
        }

    return {
        "input_mbps": input_mbps,
        "sampling": sampling_results,
        "jarvis": jarvis_results,
    }


# ---------------------------------------------------------------------------
# Figure 10: scaling the number of data source nodes.
#
# Three paths reproduce the figure: ``simulated_scaling_sweep`` runs the true
# multi-source executor (N concurrent pipelines contending for the shared
# ingress link and SP compute), ``sharded_scaling_sweep`` tiles the fleet
# across several stream-processor building blocks (Figure 4b) to continue
# past one block's saturation knee, and ``scaling_sweep`` keeps the
# closed-form ClusterModel extrapolation as a fast analytic cross-check;
# ``scaling_comparison`` runs the first and last and reports the agreement.
#
# Each sweep below builds a ScenarioSpec and delegates to the ScenarioRunner,
# so these keyword APIs and the configs/*.toml files drive identical code.
# ---------------------------------------------------------------------------


def _scaling_workload(rate_scale: float, records_per_epoch: int) -> WorkloadSpec:
    return WorkloadSpec(
        query="s2s_probe",
        records_per_epoch=records_per_epoch,
        rate_scale=rate_scale,
    )


def sharded_scaling_sweep(
    rate_scale: float = 1.0,
    cpu_budget: float = 0.55,
    num_sources: int = 8,
    block_counts: Sequence[int] = (1, 2, 4),
    strategies: Sequence[str] = ("Jarvis", "Best-OP"),
    placement: "str | Dict[str, int]" = "round_robin",
    records_per_epoch: int = 800,
    num_epochs: int = 40,
    warmup_epochs: int = 12,
    sp_capacity_multiple: float = 3.0,
    record_mode: str = "object",
) -> Dict[str, List[ClusterMetrics]]:
    """Figure 10 past the single-block knee: goodput vs number of blocks.

    Holds the fleet (``num_sources``) fixed and sweeps the number of
    stream-processor building blocks it is partitioned over.  The per-block
    ingress capacity defaults to ``3x`` one source's 10x input rate, so the
    default fleet saturates one block and aggregate goodput grows ~linearly
    with ``K`` until every block drops below its knee — the scale-out story
    of §VI-E that a single :class:`MultiSourceExecutor` cannot show.
    """
    if isinstance(placement, str):
        tiling = TilingSpec(
            placement=placement, sp_capacity_multiple=sp_capacity_multiple
        )
    else:
        tiling = TilingSpec(
            placement="static",
            placement_map=dict(placement),
            sp_capacity_multiple=sp_capacity_multiple,
        )
    spec = ScenarioSpec(
        name="sharded-scaling",
        kind="sharded",
        workload=_scaling_workload(rate_scale, records_per_epoch),
        fleet=FleetSpec(sources=num_sources, budget=cpu_budget),
        tiling=tiling,
        sweep=SweepSpec(blocks=tuple(block_counts), strategies=tuple(strategies)),
        epochs=num_epochs,
        warmup_epochs=warmup_epochs,
        record_mode=record_mode,
    )
    return ScenarioRunner().run(spec).raw


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
    ingress_headroom: float = 1.67,
    migration: Optional[MigrationPolicy] = None,
    seed: int = 1,
    record_mode: str = "object",
) -> Dict[str, object]:
    """Mid-run hotspot: static vs dynamic vs oracle placement, one scenario.

    Thin builder over the scenario harness — see
    :func:`repro.scenarios.runner.dynamic_replacement_sweep` for the scenario
    itself (this keeps the historical keyword API, including passing a
    pre-constructed ``migration`` policy object, which a config file cannot
    express).
    """
    # The shift-inside-the-run and blocks/fleet checks live in the runner
    # primitive; validate shift_epoch shape here so spec construction does not
    # mask the historical error messages.
    if num_blocks < 2 or num_sources < num_blocks or not 0 <= shift_epoch < num_epochs:
        return _dynamic_replacement_impl(
            rate_scale=rate_scale,
            cpu_budget=cpu_budget,
            num_sources=num_sources,
            num_blocks=num_blocks,
            shift_epoch=shift_epoch,
            hotspot_factor=hotspot_factor,
            num_epochs=num_epochs,
            warmup_epochs=warmup_epochs,
            records_per_epoch=records_per_epoch,
            strategy_name=strategy_name,
            ingress_headroom=ingress_headroom,
            migration=migration,
            seed=seed,
            record_mode=record_mode,
        )
    spec = ScenarioSpec(
        name="dynamic-replacement",
        kind="dynamic_replacement",
        workload=WorkloadSpec(
            records_per_epoch=records_per_epoch,
            rate_scale=rate_scale,
            hotspot=HotspotSpec(shift_epoch=shift_epoch, factor=hotspot_factor),
        ),
        fleet=FleetSpec(
            sources=num_sources, strategy=strategy_name, budget=cpu_budget
        ),
        tiling=TilingSpec(blocks=num_blocks, ingress_headroom=ingress_headroom),
        epochs=num_epochs,
        warmup_epochs=warmup_epochs,
        seed=seed,
        record_mode=record_mode,
    )
    return ScenarioRunner().run(spec, migration=migration).raw


def simulated_scaling_sweep(
    rate_scale: float = 1.0,
    cpu_budget: float = 0.55,
    node_counts: Sequence[int] = (1, 2, 4, 8),
    strategies: Sequence[str] = ("Jarvis", "Best-OP"),
    records_per_epoch: int = 800,
    num_epochs: int = 40,
    warmup_epochs: int = 12,
    record_mode: str = "object",
) -> Dict[str, List[ClusterMetrics]]:
    """Figure 10 on the true multi-source executor (measured aggregates)."""
    spec = ScenarioSpec(
        name="simulated-scaling",
        kind="scaling",
        mode="simulated",
        workload=_scaling_workload(rate_scale, records_per_epoch),
        fleet=FleetSpec(budget=cpu_budget),
        sweep=SweepSpec(sources=tuple(node_counts), strategies=tuple(strategies)),
        epochs=num_epochs,
        warmup_epochs=warmup_epochs,
        record_mode=record_mode,
    )
    return ScenarioRunner().run(spec).raw


def scaling_comparison(
    rate_scale: float = 1.0,
    cpu_budget: float = 0.55,
    node_counts: Sequence[int] = (1, 2, 4, 8),
    strategies: Sequence[str] = ("Jarvis", "Best-OP"),
    records_per_epoch: int = 800,
    num_epochs: int = 40,
    warmup_epochs: int = 12,
    record_mode: str = "object",
) -> Dict[str, List[Dict[str, float]]]:
    """Analytic-vs-simulated comparison mode for the Figure 10 sweep.

    For each strategy and source count, runs both the measured
    :class:`MultiSourceExecutor` and the closed-form
    :meth:`ClusterModel.scale` cross-check and reports the throughput ratio
    (``simulated / analytic``; ~1.0 below the saturation knee).
    """
    spec = ScenarioSpec(
        name="scaling-comparison",
        kind="scaling",
        mode="comparison",
        workload=_scaling_workload(rate_scale, records_per_epoch),
        fleet=FleetSpec(budget=cpu_budget),
        sweep=SweepSpec(sources=tuple(node_counts), strategies=tuple(strategies)),
        epochs=num_epochs,
        warmup_epochs=warmup_epochs,
        record_mode=record_mode,
    )
    return ScenarioRunner().run(spec).raw


def latency_experiment(
    num_sources: int = 8,
    rate_scale: float = 1.0,
    cpu_budget: float = 0.55,
    strategies: Sequence[str] = ("Jarvis", "Best-OP"),
    records_per_epoch: int = 800,
    num_epochs: int = 40,
    warmup_epochs: int = 12,
) -> Dict[str, Dict[str, object]]:
    """§VI-E: the epoch-latency distribution under shared-link contention.

    Runs each strategy on the measured multi-source executor and reports the
    cluster-wide latency distribution plus per-source medians — the claim
    behind "Jarvis improves median epoch latency by ~3.4x" and Best-OP's tail
    exceeding 60 seconds once it is over capacity.
    """
    setup = make_setup(
        "s2s_probe", records_per_epoch=records_per_epoch, rate_scale=rate_scale
    )
    sp_node = _cluster_sp_node(records_per_epoch)
    results: Dict[str, Dict[str, object]] = {}
    for strategy_name in strategies:
        metrics = run_multi_source(
            setup,
            strategy_name,
            cpu_budget,
            num_sources=num_sources,
            num_epochs=num_epochs,
            warmup_epochs=warmup_epochs,
            stream_processor=sp_node,
        )
        results[strategy_name] = {
            "median_latency_s": metrics.median_latency_s(),
            "p95_latency_s": metrics.latency_percentile_s(0.95),
            "max_latency_s": metrics.max_latency_s(),
            "per_source_median_s": metrics.per_source_latency_s(),
            "aggregate_throughput_mbps": metrics.aggregate_throughput_mbps(),
            "network_utilization": metrics.network_utilization(),
        }
    return results


def scaling_sweep(
    rate_scale: float = 1.0,
    cpu_budget: float = 0.55,
    node_counts: Sequence[int] = (1, 8, 16, 24, 32, 40, 48),
    strategies: Sequence[str] = ("Jarvis", "Best-OP"),
    records_per_epoch: int = 800,
    num_epochs: int = 40,
    warmup_epochs: int = 12,
) -> Dict[str, List[ClusterResult]]:
    """Reproduce Figure 10 analytically (the fast closed-form cross-check).

    ``rate_scale`` selects the paper's input-rate setting: 1.0 = 10x scaling
    with a 55% CPU budget (Fig. 10a), 0.5 = 5x with 30% (Fig. 10b), 0.1 = no
    scaling with 5% (Fig. 10c).  The shared stream-processor ingress capacity
    is the same across settings (it models the query's share of the SP link).
    For measured aggregates from actually-contending sources, use
    :func:`simulated_scaling_sweep`; :func:`scaling_comparison` runs both.
    """
    spec = ScenarioSpec(
        name="analytic-scaling",
        kind="scaling",
        mode="analytic",
        workload=_scaling_workload(rate_scale, records_per_epoch),
        fleet=FleetSpec(budget=cpu_budget),
        sweep=SweepSpec(sources=tuple(node_counts), strategies=tuple(strategies)),
        epochs=num_epochs,
        warmup_epochs=warmup_epochs,
        max_sources_limit=0,
    )
    return ScenarioRunner().run(spec).raw["sweep"]


def max_supported_sources(
    rate_scale: float,
    cpu_budget: float,
    strategies: Sequence[str] = ("Jarvis", "Best-OP"),
    records_per_epoch: int = 800,
    limit: int = 400,
) -> Dict[str, int]:
    """How many sources each strategy supports before throughput degrades.

    This is the measurement behind the paper's headline "handles up to 75%
    more data sources" claim (Figure 10b: ~70 vs ~40 sources at 5x scaling).
    """
    spec = ScenarioSpec(
        name="supported-sources",
        kind="scaling",
        mode="analytic",
        workload=_scaling_workload(rate_scale, records_per_epoch),
        fleet=FleetSpec(budget=cpu_budget),
        sweep=SweepSpec(strategies=tuple(strategies)),
        max_sources_limit=limit,
    )
    return ScenarioRunner().run(spec).raw["supported"]


# ---------------------------------------------------------------------------
# Figure 11: multiple queries on one data source node.
# ---------------------------------------------------------------------------


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
) -> List[Dict[str, float]]:
    """Figure 11 on the co-located multi-query executor (or both paths).

    Thin builder over the scenario harness — see
    :func:`repro.scenarios.runner.multi_query_colocation_sweep` for the modes
    and the contention model.
    """
    if mode not in FIG11_MODES:
        raise ConfigurationError(
            f"unknown mode {mode!r}; expected one of {FIG11_MODES}"
        )
    spec = ScenarioSpec(
        name="multi-query-colocation",
        kind="colocated",
        mode=mode,
        workload=_scaling_workload(rate_scale, records_per_epoch),
        fleet=FleetSpec(cores=cores),
        sweep=SweepSpec(queries=tuple(query_counts)),
        epochs=num_epochs,
        warmup_epochs=warmup_epochs,
        record_mode=record_mode,
        per_query_demand=per_query_demand,
    )
    return ScenarioRunner().run(spec).raw


# ---------------------------------------------------------------------------
# Section VI-C: convergence of the model-agnostic fine-tuner vs operators.
# ---------------------------------------------------------------------------


def operator_count_convergence(
    operator_counts: Sequence[int] = (2, 3, 4),
    samples_per_count: int = 60,
    seed: int = 0,
    idle_slack: float = 0.10,
    congestion_slack: float = 0.05,
    max_iterations: int = 64,
) -> Dict[int, Dict[str, float]]:
    """Reproduce the §VI-C simulator study: worst-case convergence vs M.

    Runs the model-agnostic fine-tuner (no LP initialisation, no detection
    epochs) against an analytic oracle over randomly drawn operator costs,
    relay ratios, and compute budgets, and reports the mean and worst-case
    number of iterations needed to stabilize.  The paper observes up to 21
    epochs in the worst case with four operators.
    """
    rng = random.Random(seed)
    results: Dict[int, Dict[str, float]] = {}
    for count in operator_counts:
        iterations: List[int] = []
        for _ in range(samples_per_count):
            costs = [rng.uniform(0.05, 1.0) for _ in range(count)]
            relays = [rng.uniform(0.1, 1.0) for _ in range(count)]
            budget = rng.uniform(0.1, 0.95) * sum(costs)
            iterations.append(
                _finetune_iterations_to_stable(
                    costs, relays, budget, idle_slack, congestion_slack, max_iterations
                )
            )
        results[count] = {
            "mean_iterations": sum(iterations) / len(iterations),
            "max_iterations": float(max(iterations)),
            "samples": float(len(iterations)),
        }
    return results


def _finetune_iterations_to_stable(
    costs: Sequence[float],
    relays: Sequence[float],
    budget: float,
    idle_slack: float,
    congestion_slack: float,
    max_iterations: int,
) -> int:
    """Iterations the pure fine-tuner needs to stabilize an analytic pipeline."""
    tuner = FineTuner(relays)
    factors = [0.0] * len(costs)
    upstream = cumulative_relay(relays)

    def oracle(load_factors: Sequence[float]) -> QueryState:
        effective = []
        running = 1.0
        for p in load_factors:
            running *= p
            effective.append(running)
        used = sum(u * e * c for u, e, c in zip(upstream, effective, costs))
        if used > budget * (1.0 + congestion_slack):
            return QueryState.CONGESTED
        headroom = budget - used
        if headroom > budget * idle_slack and any(p < 1.0 for p in load_factors):
            return QueryState.IDLE
        return QueryState.STABLE

    for iteration in range(1, max_iterations + 1):
        state = oracle(factors)
        if state is QueryState.STABLE:
            return iteration - 1
        result = tuner.step(state, factors)
        factors = result.load_factors
        if result.converged and not result.changed:
            return iteration
    return max_iterations


# ---------------------------------------------------------------------------
# Section VI-B: adaptation overhead.
# ---------------------------------------------------------------------------


def adaptation_overhead(
    query_name: str = "s2s_probe",
    budget_schedule: Optional[BudgetSchedule] = None,
    num_epochs: int = 30,
    records_per_epoch: int = 600,
) -> Dict[str, float]:
    """Measure Jarvis' plan-computation overhead as a fraction of one core.

    The paper reports less than 1% of a single core spent in the Profile and
    Adapt phases.  The LP memo is cleared first, so the measurement includes
    real HiGHS solves rather than hits left by earlier runs in this process.
    """
    clear_plan_cache()
    setup = make_setup(query_name, records_per_epoch=records_per_epoch)
    schedule = budget_schedule or BudgetSchedule([(0, 0.10), (3, 0.80), (18, 0.50)])
    metrics = run_single_source(
        setup, "Jarvis", schedule, num_epochs=num_epochs, warmup_epochs=0
    )
    strategy = metrics.metadata.get("strategy_object")
    total_adaptation = 0.0
    if isinstance(strategy, JarvisStrategy):
        total_adaptation = strategy.runtime.trace.total_adaptation_seconds()
    wall_clock = num_epochs * setup.config.epoch.duration_s
    return {
        "adaptation_seconds": total_adaptation,
        "wall_clock_seconds": wall_clock,
        "core_fraction": total_adaptation / wall_clock if wall_clock > 0 else 0.0,
    }
