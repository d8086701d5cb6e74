"""Epoch-driven execution of one core building block.

A *core building block* (Figure 4b) is one stream processor plus the data
sources it parents.  :class:`BuildingBlockExecutor` simulates a single data
source paired with its stream processor; the multi-source scaling model in
:mod:`repro.simulation.cluster` composes per-source results into cluster-level
numbers.

Every partitioning strategy — Jarvis, the ablations, and all the baselines —
runs through this executor, so comparisons are apples-to-apples.

Source stepping, strategy feedback, and all goodput/latency accounting live
in the shared :mod:`repro.simulation.engine`; this executor contributes only
its network/SP terms: a private :class:`NetworkLink` uplink and an
uncontended stream-processor share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import JarvisConfig
from ..errors import SimulationError, require_finite
from ..query.physical_plan import PhysicalPlan
from .cost_model import CostModel
from .engine import (
    EpochAccountant,
    EpochEngine,
    Strategy,
    WorkloadSource,
    validate_record_mode,
)
from .metrics import EpochMetrics, RunMetrics
from .network import NetworkLink
from .node import BudgetSchedule, as_budget_schedule
from .pipeline import StreamProcessorPipeline


@dataclass
class ExecutorConfig:
    """Knobs of a single building-block simulation.

    Attributes:
        config: Jarvis configuration bundle (epoch, thresholds, network, ...).
        bandwidth_mbps: Uplink bandwidth override; defaults to the value in
            ``config.network`` (scaled).
        warmup_epochs: Epochs excluded from metric aggregation.
        sp_cores_share: Stream-processor cores available to this source's
            share of the query (the 64-core SP divided by its tenant count).
        record_mode: Record representation on the simulation hot path.
            ``"object"`` keeps one Python object per record (the reference);
            ``"arena"`` runs columnar
            :class:`~repro.query.records.RecordBatch` views of one reusable
            :class:`~repro.query.records.FleetArena` and folds group
            aggregates with segmented array ops (bit-identical metrics,
            several times faster).
    """

    config: JarvisConfig = field(default_factory=JarvisConfig)
    bandwidth_mbps: Optional[float] = None
    warmup_epochs: int = 0
    sp_cores_share: float = 4.0
    record_mode: str = "object"

    def __post_init__(self) -> None:
        require_finite("bandwidth_mbps", self.bandwidth_mbps, positive=True)
        require_finite("sp_cores_share", self.sp_cores_share, positive=True)
        validate_record_mode(self.record_mode)

    @property
    def effective_bandwidth_mbps(self) -> float:
        if self.bandwidth_mbps is not None:
            return self.bandwidth_mbps
        return self.config.network.effective_bandwidth_mbps


class BuildingBlockExecutor:
    """Simulates one data source and its stream processor, epoch by epoch."""

    def __init__(
        self,
        plan: PhysicalPlan,
        workload: WorkloadSource,
        cost_model: CostModel,
        strategy: Strategy,
        budget: "float | BudgetSchedule",
        executor_config: Optional[ExecutorConfig] = None,
    ) -> None:
        self.plan = plan
        self.workload = workload
        self.cost_model = cost_model
        self.strategy = strategy
        self.exec_config = executor_config or ExecutorConfig()
        self.config = self.exec_config.config
        self.budget = as_budget_schedule(budget)

        epoch_s = self.config.epoch.duration_s
        self.epoch_engine = EpochEngine(
            cost_model=cost_model,
            config=self.config,
            record_mode=self.exec_config.record_mode,
        )
        self._state = self.epoch_engine.add_source(
            name="source-0",
            workload=workload,
            strategy=strategy,
            budget=self.budget,
            plan=plan,
        )
        self.source_pipeline = self._state.pipeline
        self.sp_pipeline = StreamProcessorPipeline(
            operators=plan.stream_processor_operators(),
            cost_model=cost_model,
            window_length_s=plan.window_length_s,
            epoch_duration_s=epoch_s,
        )
        self.link = NetworkLink(
            bandwidth_mbps=self.exec_config.effective_bandwidth_mbps,
            epoch_duration_s=epoch_s,
        )

    # -- execution -----------------------------------------------------------------

    def run_epoch(self) -> EpochMetrics:
        """Execute one epoch and return its metrics."""
        epoch_s = self.config.epoch.duration_s
        step = self.epoch_engine.step_sources()
        (state,) = step.states
        (src,) = step.results

        # Network: drained records + emitted results + shipped partial state.
        self.link.offer(src.network_bytes)
        transmit = self.link.transmit_epoch()

        # Stream processor consumes whatever crossed the network this epoch.
        sp = self.sp_pipeline.process_arrivals(src.drained, src.partial_states)
        self.sp_pipeline.advance_epoch()
        sp_cpu = min(
            sp.cpu_used_seconds,
            self.exec_config.sp_cores_share * epoch_s,
        )

        return EpochAccountant.finish_source_epoch(
            state,
            src,
            step.budget_fractions[0],
            self.cost_model,
            epoch_s,
            shared_queue_bytes=(("uplink", transmit.queued_bytes),),
            sent_bytes=transmit.sent_bytes,
            reported_queue_bytes=transmit.queued_bytes,
            network_delay_s=transmit.queue_delay_s,
            sp_cpu_seconds=sp_cpu,
        )

    def run(self, num_epochs: int, warmup_epochs: Optional[int] = None) -> RunMetrics:
        """Run ``num_epochs`` epochs and return the aggregated metrics.

        Like every other executor, a run must start from a fresh instance:
        pipelines, strategy state, and queue accounting accumulate as epochs
        step, so reuse raises :class:`SimulationError`.
        """
        if num_epochs <= 0:
            raise SimulationError(f"num_epochs must be positive, got {num_epochs!r}")
        self.epoch_engine.ensure_fresh()
        warmup = self.exec_config.warmup_epochs if warmup_epochs is None else warmup_epochs
        metrics = self.epoch_engine.make_run_metrics(
            warmup,
            {
                "strategy": self.strategy.name,
                "query": self.plan.query_name,
                "bandwidth_mbps": self.exec_config.effective_bandwidth_mbps,
            },
        )
        for _ in range(num_epochs):
            metrics.record(self.run_epoch())
        return metrics
