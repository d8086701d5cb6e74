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

A source pipeline holds its proxies' load factors, one per stage
(:meth:`~repro.simulation.pipeline.SourcePipeline.set_load_factors` checks
and installs them).  The rules are array functions over many proxies at once —
:func:`route_counts` for routing, :func:`congestion_floor_records` and
:func:`operator_states` for the observation — so the block stepper
(:func:`~repro.simulation.pipeline.run_block_epoch`) decides one stage of
every source in one pass; one proxy is the one-element case.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Union

import numpy as np

from ..config import ProxyThresholds
from ..errors import ConfigurationError
from .state import CONGESTED, IDLE, STABLE, OperatorState

#: A per-proxy quantity: one value, or one per proxy.
Column = Union[float, np.ndarray]


class ProxyObservation(NamedTuple):
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


def route_counts(load_factors: Column, incoming_records: np.ndarray) -> np.ndarray:
    """Forwarded record counts of proxies with ``incoming_records`` each.

    Routing is deterministic: a proxy forwards the first
    ``floor(p * n + 0.5)`` of its ``n`` records (stable half-up rounding,
    clamped to ``[0, n]``) and drains the rest.  Half-to-even rounding —
    builtin ``round()``, ``np.round``, ``np.rint`` — made the forwarded
    count non-monotone in ``n`` at exact halves: ``p = 0.5`` forwarded 0 of
    1 records but 2 of 3, silently skewing half-way load factors (simlint
    SL004).  Determinism keeps simulation runs and tests reproducible;
    because records within an epoch are exchangeable for the queries
    considered, this does not bias results.

    The proxies decide counts only: the caller cuts each record container
    at its forwarded count, and only where rows actually leave the stage.
    """
    forwarded = np.floor(load_factors * incoming_records + 0.5).astype(np.int64)
    return np.minimum(incoming_records, np.maximum(0, forwarded))


def congestion_floor_records(
    thresholds: "ProxyThresholds | ThresholdColumns", incoming_records: np.ndarray
) -> np.ndarray:
    """The pending count above which a proxy's queue is congested.

    Congestion requires the backlog to exceed both the absolute floor
    (``congestion_pending_records``) and ``DrainedThres`` of the epoch's
    incoming records; the same floor bounds where congestion relief starts
    draining a queue (:func:`~repro.simulation.pipeline.run_block_epoch`).
    """
    return np.maximum(
        thresholds.congestion_pending_records,
        np.ceil(thresholds.drained_thres * np.maximum(1, incoming_records)).astype(
            np.int64
        ),
    )


def operator_states(
    thresholds: "ProxyThresholds | ThresholdColumns",
    incoming_records: np.ndarray,
    pending_records: np.ndarray,
    idle_fractions: np.ndarray,
) -> np.ndarray:
    """Each proxy's operator state, as a code into :data:`OPERATOR_STATES`.

    A queue is congested when its pending backlog exceeds
    :func:`congestion_floor_records`.  It is idle when the downstream
    operator has an empty queue while staying idle for longer than
    ``IdleThres`` of the epoch (the operator "stays empty for longer than a
    predefined time duration" in the paper's terms).  Otherwise it is
    stable.
    """
    congested = pending_records > congestion_floor_records(thresholds, incoming_records)
    idle = (idle_fractions > thresholds.idle_thres) & (pending_records == 0)
    return np.where(congested, CONGESTED, np.where(idle, IDLE, STABLE))


class ThresholdColumns(NamedTuple):
    """:class:`ProxyThresholds` fields as one value per proxy."""

    drained_thres: np.ndarray
    idle_thres: np.ndarray
    congestion_pending_records: np.ndarray
    queue_capacity_epochs: np.ndarray


def threshold_columns(
    thresholds: Sequence[ProxyThresholds],
) -> "ProxyThresholds | ThresholdColumns":
    """Many proxies' thresholds for the array rules: the shared one when all
    proxies share it (the usual case), else one array per field."""
    first = thresholds[0]
    if thresholds.count(first) == len(thresholds):
        return first
    return ThresholdColumns(
        np.array([t.drained_thres for t in thresholds]),
        np.array([t.idle_thres for t in thresholds]),
        np.array([t.congestion_pending_records for t in thresholds]),
        np.array([t.queue_capacity_epochs for t in thresholds]),
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
