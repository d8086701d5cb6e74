"""Checkpointing of intermediate query state (fault tolerance, Section IV-E).

A data source or stream processor node may fail mid-window.  The paper's
design checkpoints the intermediate state accumulated for the current window
(e.g. the partial G+R aggregates on the data source) so that, after a failure,

* the stream processor can finish the window from the last data-source
  checkpoint plus the records drained since, and
* the data source can replay records produced after the stream processor's
  last successful checkpoint.

Checkpointing costs network bandwidth, so its frequency is configurable and
checkpoints can also be triggered by observed events (e.g. anomalous data in
the stream).  This module provides an engine-agnostic checkpoint store plus a
policy object deciding when to checkpoint; the simulator tests exercise
failure/recovery of a source pipeline's stateful operators.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import SimulationError
from ..query.operators import Operator

#: Serialized size assumed for one group's worth of checkpointed state.
CHECKPOINT_ROW_BYTES = 48


@dataclass(frozen=True)
class Checkpoint:
    """An immutable snapshot of one pipeline's stateful-operator state."""

    checkpoint_id: int
    epoch: int
    #: Deep-copied partial state per stateful operator name.
    states: Dict[str, object]
    size_bytes: float

    def __len__(self) -> int:
        return len(self.states)


@dataclass
class CheckpointPolicy:
    """Decides when a checkpoint should be taken.

    Attributes:
        every_epochs: Periodic trigger; 0 disables periodic checkpoints.
        on_anomaly: Whether an anomaly observation forces a checkpoint.
    """

    every_epochs: int = 10
    on_anomaly: bool = True

    def __post_init__(self) -> None:
        if self.every_epochs < 0:
            raise SimulationError(
                f"every_epochs must be >= 0, got {self.every_epochs!r}"
            )

    def should_checkpoint(self, epoch: int, anomaly_observed: bool = False) -> bool:
        """Whether to checkpoint at the end of ``epoch``."""
        if self.on_anomaly and anomaly_observed:
            return True
        if self.every_epochs <= 0:
            return False
        return (epoch + 1) % self.every_epochs == 0


class CheckpointStore:
    """Holds checkpoints for one query instance and restores operator state."""

    def __init__(self, policy: Optional[CheckpointPolicy] = None, keep_last: int = 3) -> None:
        if keep_last < 1:
            raise SimulationError(f"keep_last must be >= 1, got {keep_last!r}")
        self.policy = policy or CheckpointPolicy()
        self.keep_last = keep_last
        self._checkpoints: List[Checkpoint] = []
        self._ids = itertools.count(1)
        self.total_checkpoint_bytes = 0.0

    # -- capture ---------------------------------------------------------------

    def capture(self, operators: List[Operator], epoch: int) -> Checkpoint:
        """Snapshot the partial state of every stateful operator."""
        states: Dict[str, object] = {}
        size = 0.0
        for operator in operators:
            if not operator.stateful:
                continue
            state = operator.partial_state()
            if state is None:
                continue
            snapshot = copy.deepcopy(state)
            states[operator.name] = snapshot
            rows = len(snapshot) if isinstance(snapshot, dict) else 1
            size += rows * CHECKPOINT_ROW_BYTES
        checkpoint = Checkpoint(
            checkpoint_id=next(self._ids), epoch=epoch, states=states, size_bytes=size
        )
        self._checkpoints.append(checkpoint)
        if len(self._checkpoints) > self.keep_last:
            self._checkpoints.pop(0)
        self.total_checkpoint_bytes += size
        return checkpoint

    def maybe_capture(
        self,
        operators: List[Operator],
        epoch: int,
        anomaly_observed: bool = False,
    ) -> Optional[Checkpoint]:
        """Capture a checkpoint if the policy says so."""
        if self.policy.should_checkpoint(epoch, anomaly_observed):
            return self.capture(operators, epoch)
        return None

    # -- restore ---------------------------------------------------------------

    @property
    def latest(self) -> Optional[Checkpoint]:
        """The most recent checkpoint (None if none was taken yet)."""
        return self._checkpoints[-1] if self._checkpoints else None

    def restore(self, operators: List[Operator], checkpoint: Optional[Checkpoint] = None) -> int:
        """Restore operator state from a checkpoint.

        Fresh (reset) operators receive the checkpointed partial state via
        ``merge_partial``; returns the number of operators restored.

        Raises:
            SimulationError: If no checkpoint is available.
        """
        checkpoint = checkpoint or self.latest
        if checkpoint is None:
            raise SimulationError("no checkpoint available to restore from")
        restored = 0
        for operator in operators:
            state = checkpoint.states.get(operator.name)
            if state is None:
                continue
            operator.reset()
            operator.merge_partial(copy.deepcopy(state))
            restored += 1
        return restored

    def __len__(self) -> int:
        return len(self._checkpoints)
