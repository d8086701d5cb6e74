"""Control proxy: the light-weight routing primitive of Jarvis (Section IV-A).

A control proxy sits between two adjacent operators in the deployed pipeline.
For every batch of incoming records it decides *how many* records are
forwarded to its downstream operator on the data source (the ``load factor``
fraction ``p``) and how many are drained over the network to the replicated
copy of that operator on the stream processor.

The proxy also observes its downstream operator during the epoch — pending
queue length and idle time — and reports an :class:`OperatorState` at the
epoch boundary, applying the ``DrainedThres`` / ``IdleThres`` hysteresis from
Section IV-C so small workload variation does not trigger adaptation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..config import ProxyThresholds
from ..errors import ConfigurationError
from ..query.records import half_up
from .state import OperatorState


@dataclass(frozen=True)
class ProxyObservation:
    """Per-epoch observation reported by a control proxy.

    Attributes:
        state: Operator state derived from the observation and thresholds.
        incoming_records: Records that arrived at the proxy this epoch.
        forwarded_records: Records forwarded to the local downstream operator.
        drained_records: Records drained to the stream processor.
        processed_records: Records the downstream operator actually processed.
        pending_records: Records left in the downstream queue at epoch end.
        idle_fraction: Fraction of the epoch the downstream operator was idle.
    """

    state: OperatorState
    incoming_records: int
    forwarded_records: int
    drained_records: int
    processed_records: int
    pending_records: int
    idle_fraction: float


class ControlProxy:
    """Routing logic associated with one downstream operator.

    Attributes:
        operator_name: Name of the downstream operator this proxy feeds.
        load_factor: Fraction ``p`` of incoming records forwarded locally
            (``0 <= p <= 1``); the remainder is drained.
    """

    def __init__(
        self,
        operator_name: str,
        thresholds: ProxyThresholds | None = None,
        load_factor: float = 0.0,
    ) -> None:
        self.operator_name = operator_name
        self.thresholds = thresholds or ProxyThresholds()
        self._load_factor = 0.0
        self.set_load_factor(load_factor)
        # Rolling counters for the current epoch.
        self._incoming = 0
        self._forwarded = 0
        self._drained = 0
        self._processed = 0
        self._pending = 0
        self._idle_fraction = 0.0

    # -- load factor ---------------------------------------------------------

    @property
    def load_factor(self) -> float:
        """Current load factor ``p`` of this proxy."""
        return self._load_factor

    def set_load_factor(self, value: float) -> None:
        """Set the load factor, clamping tiny numerical error but rejecting
        clearly out-of-range values."""
        if math.isnan(value):
            raise ConfigurationError("load factor must not be NaN")
        if value < -1e-9 or value > 1.0 + 1e-9:
            raise ConfigurationError(
                f"load factor must be within [0, 1], got {value!r}"
            )
        self._load_factor = min(1.0, max(0.0, value))

    # -- routing -------------------------------------------------------------

    def route(self, n: int) -> Tuple[int, int]:
        """Split ``n`` incoming records into (forwarded, drained) counts.

        Routing is deterministic: the first ``floor(p * n + 0.5)`` records
        (stable half-up rounding) are forwarded and the rest drained.
        Python's ``round()`` rounds half to even, which made the forwarded
        count non-monotone in ``n`` at exact halves — ``p = 0.5`` forwarded
        0 of 1 records but 2 of 3 — silently skewing half-way load factors.
        Determinism keeps simulation runs and tests reproducible; because
        records within an epoch are exchangeable for the queries considered,
        this does not bias results.

        The proxy decides counts only: the caller cuts its record container
        at the forwarded count, and only where rows actually leave the stage.
        """
        n_forward = half_up(self._load_factor * n)
        n_forward = min(n, max(0, n_forward))
        self._incoming += n
        self._forwarded += n_forward
        self._drained += n - n_forward
        return n_forward, n - n_forward

    # -- observation ---------------------------------------------------------

    def record_processing(
        self, processed: int, pending: int, idle_fraction: float
    ) -> None:
        """Report what the downstream operator did with forwarded records."""
        self._processed += int(processed)
        self._pending = int(pending)
        self._idle_fraction = float(min(1.0, max(0.0, idle_fraction)))

    def record_idle(self, idle_fraction: float) -> None:
        """Report the downstream operator's idle time without touching the
        pending count (which must reflect the pre-relief backlog)."""
        self._idle_fraction = float(min(1.0, max(0.0, idle_fraction)))

    def observe(self) -> ProxyObservation:
        """Classify the downstream operator state and reset epoch counters.

        Congestion requires the pending backlog to exceed both the absolute
        floor (``congestion_pending_records``) and ``DrainedThres`` of this
        epoch's incoming records.  Idleness requires the downstream operator
        to have an empty queue while staying idle for longer than
        ``IdleThres`` of the epoch (the operator "stays empty for longer than
        a predefined time duration" in the paper's terms).
        """
        thresholds = self.thresholds
        incoming = self._incoming
        congestion_floor = max(
            thresholds.congestion_pending_records,
            int(math.ceil(thresholds.drained_thres * max(1, incoming))),
        )

        if self._pending > congestion_floor:
            state = OperatorState.CONGESTED
        elif self._idle_fraction > thresholds.idle_thres and self._pending == 0:
            state = OperatorState.IDLE
        else:
            state = OperatorState.STABLE

        observation = ProxyObservation(
            state=state,
            incoming_records=self._incoming,
            forwarded_records=self._forwarded,
            drained_records=self._drained,
            processed_records=self._processed,
            pending_records=self._pending,
            idle_fraction=self._idle_fraction,
        )
        self._reset_epoch_counters()
        return observation

    def _reset_epoch_counters(self) -> None:
        self._incoming = 0
        self._forwarded = 0
        self._drained = 0
        self._processed = 0
        # Pending persists across epochs: it reflects queue state, not a rate.
        self._idle_fraction = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<ControlProxy {self.operator_name!r} p={self._load_factor:.3f} "
            f"pending={self._pending}>"
        )


def effective_load_factors(load_factors: Sequence[float]) -> List[float]:
    """Compute effective load factors ``e_i = Π_{j<=i} p_j`` (Table II).

    The effective load factor of the *i*-th proxy is the fraction of the
    query's input records that reach (and are processed by) operator *i* on
    the data source.
    """
    effective: List[float] = []
    running = 1.0
    for p in load_factors:
        if p < 0.0 or p > 1.0:
            raise ConfigurationError(
                f"load factors must be within [0, 1], got {p!r}"
            )
        running *= p
        effective.append(running)
    return effective


def load_factors_from_effective(effective: Sequence[float]) -> List[float]:
    """Invert :func:`effective_load_factors`: recover ``p_i`` from ``e_i``.

    When an upstream effective factor is zero every downstream operator also
    receives zero records; the corresponding ``p`` is reported as 0 so the
    plan remains well-defined (this matches the LP's behaviour where
    ``e_i <= e_{i-1}``).
    """
    load_factors: List[float] = []
    previous = 1.0
    for e in effective:
        if e < -1e-9 or e > previous + 1e-9:
            raise ConfigurationError(
                f"effective load factors must be non-increasing within [0, 1]; "
                f"got {e!r} after {previous!r}"
            )
        e = min(max(e, 0.0), previous)
        if previous <= 1e-12:
            load_factors.append(0.0)
        else:
            load_factors.append(min(1.0, e / previous))
        previous = e
    return load_factors
