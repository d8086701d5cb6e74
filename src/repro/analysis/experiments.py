"""Canned experiment runners for the paper's single-source figures.

Each function reproduces the measurement behind one figure (or one inline
claim) on one data source: Figure 3 (partitioning modes), Figure 7
(throughput over CPU budgets), Figure 8 (convergence), Figure 9 (synopsis),
and the Section VI-B/C overhead and convergence studies.  The benchmarks in
``benchmarks/`` call them and print the resulting rows/series.

All experiments run on the epoch simulator with cost models calibrated to the
paper's reported CPU fractions, and with network bandwidth expressed relative
to the input rate exactly as in the paper's configuration (Section VI-A), so
the *shape* of every result — who wins, by what factor, where knees and
crossovers fall — is comparable even though absolute rates are scaled down.

The cluster-scale experiments (Figures 10 and 11, the Section VI-E latency
tail, record-mode and worker-pool timing) are scenario configs under
``configs/`` run by :class:`repro.scenarios.ScenarioRunner`.  The setup
layer (:func:`make_setup`, :func:`make_strategy`, :func:`run_single_source`,
:class:`HotspotWorkload`) lives in :mod:`repro.scenarios.setups` and is
re-exported here under its historical names.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from ..baselines import JarvisStrategy, PartitioningStrategy
from ..core.state import QueryState
from ..core.stepwise_adapt import FineTuner
from ..core.lp_solver import clear_plan_cache, cumulative_relay
from ..query.records import IpToTorTable, half_up, record_size_bytes
from ..simulation.executor import BuildingBlockExecutor
from ..simulation.node import BudgetSchedule
from ..synopsis.estimators import alert_analysis, evaluate_sampling_accuracy
from ..synopsis.sampling import WindowSampler

# The setup layer lives in the scenario harness; these names stay importable
# here (tests, benchmarks, the perf harness and examples use them).
from ..scenarios.setups import (  # noqa: F401
    STRATEGY_NAMES,
    HotspotWorkload,
    QuerySetup,
    ground_truth_profile,
    make_setup,
    make_strategy,
    measure_relays,
    run_single_source,
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
