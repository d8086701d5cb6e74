"""The Jarvis runtime: a fully decentralized, per-query state machine.

One runtime instance exists per query per data source (Section IV-A).  Each
epoch the simulator (or a real engine integration) reports what the control
proxies observed; the runtime walks the ``Startup → Probe → Profile → Adapt``
state machine of Figure 6 and returns the load factors to use for the next
epoch.

The runtime never talks to a central planner: all decisions are local to the
data source, which is what lets Jarvis scale to hundreds of sources.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence

from ..config import JarvisConfig
from ..errors import PartitioningError
from .control_proxy import ProxyObservation
from .profiler import Profiler
from .state import QueryState, RuntimePhase, classify_query_state
from .stepwise_adapt import StepWiseAdapt


class EpochObservation(NamedTuple):
    """Everything the runtime learns about one finished epoch.

    The engine builds one per source-epoch, so it is a named tuple, like the
    :class:`ProxyObservation` entries it carries: cheap to build, read by
    field name.

    Attributes:
        epoch: Epoch index (0-based).
        proxy_observations: One observation per control proxy, pipeline order.
        compute_budget: Available compute budget measured during the epoch
            (fraction of a core).
        records_injected: Records that entered the query this epoch.
        measured_costs: Per-operator cost estimates (core-seconds/record),
            present only for epochs where the runtime requested profiling.
        measured_relays: Per-operator relay-ratio estimates (same condition).
        records_processed: Records each operator processed during profiling.
    """

    epoch: int
    proxy_observations: Sequence[ProxyObservation]
    compute_budget: float
    records_injected: int
    measured_costs: Optional[Sequence[float]] = None
    measured_relays: Optional[Sequence[float]] = None
    records_processed: Optional[Sequence[int]] = None

    @property
    def query_state(self) -> QueryState:
        """Query-level state derived from the proxy observations."""
        return classify_query_state(obs.state for obs in self.proxy_observations)


@dataclass
class RuntimeTrace:
    """Per-epoch trace of the runtime, used by the convergence analysis."""

    epochs: List[int] = field(default_factory=list)
    phases: List[RuntimePhase] = field(default_factory=list)
    states: List[QueryState] = field(default_factory=list)
    load_factors: List[List[float]] = field(default_factory=list)
    adaptation_seconds: List[float] = field(default_factory=list)

    def append(
        self,
        epoch: int,
        phase: RuntimePhase,
        state: QueryState,
        load_factors: Sequence[float],
        adaptation_seconds: float,
    ) -> None:
        self.epochs.append(epoch)
        self.phases.append(phase)
        self.states.append(state)
        self.load_factors.append(list(load_factors))
        self.adaptation_seconds.append(adaptation_seconds)

    def convergence_epochs(self, since_epoch: int = 0) -> Optional[int]:
        """Epochs needed after ``since_epoch`` to reach a stable Probe state.

        Returns ``None`` if the trace never stabilizes after ``since_epoch``.
        """
        for i, epoch in enumerate(self.epochs):
            if epoch < since_epoch:
                continue
            if (
                self.phases[i] is RuntimePhase.PROBE
                and self.states[i] is QueryState.STABLE
            ):
                return epoch - since_epoch
        return None

    def total_adaptation_seconds(self) -> float:
        """Wall-clock time spent inside plan computation (overhead metric)."""
        return sum(self.adaptation_seconds)


class JarvisRuntime:
    """Decentralized runtime driving data-level partitioning for one query."""

    def __init__(
        self,
        operator_names: Sequence[str],
        config: Optional[JarvisConfig] = None,
        stepwise: Optional[StepWiseAdapt] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        if not operator_names:
            raise PartitioningError("runtime needs at least one operator")
        self.operator_names = list(operator_names)
        self.config = config or JarvisConfig()
        self.stepwise = stepwise or StepWiseAdapt(self.config.adaptation)
        self.profiler = profiler or Profiler(self.config.adaptation)
        self.phase = RuntimePhase.STARTUP
        self.load_factors: List[float] = [0.0] * len(self.operator_names)
        self.trace = RuntimeTrace()
        self._nonstable_streak = 0

    # -- public surface -------------------------------------------------------

    @property
    def wants_profile(self) -> bool:
        """True when the next epoch should be executed as a profiling epoch."""
        return self.phase is RuntimePhase.PROFILE

    def current_load_factors(self) -> List[float]:
        """Load factors to apply for the upcoming epoch."""
        return list(self.load_factors)

    def on_epoch_end(self, observation: EpochObservation) -> List[float]:
        """Advance the state machine and return load factors for the next epoch."""
        if len(observation.proxy_observations) != len(self.operator_names):
            raise PartitioningError(
                "observation has wrong number of proxies "
                f"({len(observation.proxy_observations)} vs "
                f"{len(self.operator_names)})"
            )
        started = time.perf_counter()
        state = observation.query_state

        if self.phase is RuntimePhase.STARTUP:
            self._handle_startup()
        elif self.phase is RuntimePhase.PROBE:
            self._handle_probe(state)
        elif self.phase is RuntimePhase.PROFILE:
            self._handle_profile(observation)
        elif self.phase is RuntimePhase.ADAPT:
            self._handle_adapt(state)

        elapsed = time.perf_counter() - started
        self.trace.append(
            observation.epoch, self.phase, state, self.load_factors, elapsed
        )
        return list(self.load_factors)

    # -- phase handlers ---------------------------------------------------------

    def _handle_startup(self) -> None:
        """Startup: all load factors are zero; move to Probe after one epoch."""
        self.load_factors = [0.0] * len(self.operator_names)
        self.phase = RuntimePhase.PROBE
        self._nonstable_streak = 0

    def _handle_probe(self, state: QueryState) -> None:
        """Probe: count consecutive non-stable epochs before adapting.

        An idle query only counts as non-stable when a load-factor increase
        could actually help, i.e. some proxy still forwards less than all of
        its records; an all-ones plan with spare budget has nothing to adapt.
        """
        actionable = state is QueryState.CONGESTED or (
            state is QueryState.IDLE
            and any(p < 1.0 - 1e-9 for p in self.load_factors)
        )
        if not actionable:
            self._nonstable_streak = 0
            return
        self._nonstable_streak += 1
        if self._nonstable_streak >= self.config.epoch.detect_epochs:
            self.phase = RuntimePhase.PROFILE
            self._nonstable_streak = 0

    def _handle_profile(self, observation: EpochObservation) -> None:
        """Profile: build the pipeline profile and apply the model-based plan."""
        if observation.measured_costs is None or observation.measured_relays is None:
            # The executor did not provide profiling data; stay in Profile so
            # the next epoch is profiled.  This happens when a profile request
            # races with a workload change in a real deployment.
            return
        processed = observation.records_processed or [0] * len(self.operator_names)
        profile = self.profiler.profile_pipeline(
            names=self.operator_names,
            records_processed=processed,
            costs_per_record=observation.measured_costs,
            relay_ratios=observation.measured_relays,
            compute_budget=observation.compute_budget,
            records_per_epoch=max(1, observation.records_injected),
            epoch_duration_s=self.config.epoch.duration_s,
        )
        self.load_factors = self.stepwise.initial_load_factors(profile)
        self.phase = RuntimePhase.ADAPT

    def _handle_adapt(self, state: QueryState) -> None:
        """Adapt: iterative fine-tuning until the query is stable again."""
        result = self.stepwise.fine_tune(state, self.load_factors)
        self.load_factors = result.load_factors
        if state is QueryState.STABLE or (result.converged and not result.changed):
            self.phase = RuntimePhase.PROBE
            self._nonstable_streak = 0
            self.stepwise.reset()

    # -- manual controls (used by experiments) ---------------------------------

    def reset_load_factors(self) -> None:
        """Manually reset load factors to zero and return to Probe.

        The paper does this between the two resource changes of Figure 8(b)
        ("we manually reset load factors to stabilize the query for the next
        run").
        """
        self.load_factors = [0.0] * len(self.operator_names)
        self.phase = RuntimePhase.PROBE
        self._nonstable_streak = 0
        self.stepwise.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<JarvisRuntime phase={self.phase.value} "
            f"p={['%.2f' % p for p in self.load_factors]}>"
        )
