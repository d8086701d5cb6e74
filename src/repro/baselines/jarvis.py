"""Jarvis as a partitioning strategy: a thin adapter around the runtime.

The :class:`~repro.core.runtime.JarvisRuntime` is engine-agnostic; this
adapter exposes it through the strategy interface the executor expects, so
Jarvis runs through exactly the same simulation loop as every baseline.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import JarvisConfig
from ..core.runtime import EpochObservation, JarvisRuntime
from ..core.state import RuntimePhase
from ..core.stepwise_adapt import StepWiseAdapt
from .base import PartitioningStrategy


class JarvisStrategy(PartitioningStrategy):
    """Adaptive data-level partitioning driven by the Jarvis runtime."""

    name = "Jarvis"

    def __init__(
        self,
        operator_names: Sequence[str],
        config: Optional[JarvisConfig] = None,
        stepwise: Optional[StepWiseAdapt] = None,
    ) -> None:
        self.config = config or JarvisConfig()
        self.runtime = JarvisRuntime(
            operator_names=operator_names,
            config=self.config,
            stepwise=stepwise,
        )
        #: The load factors last handed to the pipeline; None until the
        #: first hand-out and after a manual reset.
        self._handed_out: Optional[List[float]] = None

    @property
    def phase(self) -> RuntimePhase:
        """Current phase of the underlying runtime (Startup/Probe/Profile/Adapt)."""
        return self.runtime.phase

    def initial_load_factors(self, num_stages: int) -> List[float]:
        self._handed_out = self.runtime.current_load_factors()
        factors = self._handed_out[:num_stages]
        return factors + [0.0] * (num_stages - len(factors))

    def wants_profile(self) -> bool:
        return self.runtime.wants_profile

    def on_epoch_end(self, observation: EpochObservation) -> Optional[Sequence[float]]:
        """The runtime's load factors, or None when they are the ones last
        handed out: the pipeline then keeps its plan without re-installing
        it."""
        factors = self.runtime.on_epoch_end(observation)
        if factors == self._handed_out:
            return None
        self._handed_out = factors
        return factors

    def reset_load_factors(self) -> None:
        """Reset the runtime's plan (used between Figure 8b's two changes);
        the next epoch hands its factors out whatever they are."""
        self.runtime.reset_load_factors()
        self._handed_out = None
