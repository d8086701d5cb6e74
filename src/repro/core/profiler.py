"""Online profiling of operator costs and relay ratios (the Profile phase).

During the Profile phase the Jarvis runtime obtains fresh estimates of

1. the compute cost of each operator (``c_j``, core-seconds per record),
2. the relay ratio of each operator (``r_j``, output/input data size ratio),
3. the compute budget currently available to the query (``C``).

The paper notes that these estimates are *inaccurate* when an operator cannot
be evaluated on enough records within the profiling epoch — typically
expensive operators (Join, G+R) under small budgets.  The profiler reproduces
this by perturbing estimates derived from fewer than
``min_profile_records`` records; that noise is exactly what makes the
model-agnostic fine-tuning step of StepWise-Adapt necessary (Figure 8b).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import AdaptationConfig
from ..errors import PartitioningError, require_finite


@dataclass(frozen=True)
class OperatorProfile:
    """Profiled characteristics of one operator.

    Attributes:
        name: Operator name.
        cost_per_record: Estimated compute cost per input record (core-seconds).
        relay_ratio: Estimated ratio of output to input data size (``r_j``).
        records_observed: How many records the estimate is based on.
        trusted: Whether the estimate met the minimum-sample requirement.
    """

    name: str
    cost_per_record: float
    relay_ratio: float
    records_observed: int
    trusted: bool

    def __post_init__(self) -> None:
        require_finite(
            "cost_per_record",
            self.cost_per_record,
            non_negative=True,
            error=PartitioningError,
        )
        require_finite(
            "relay_ratio", self.relay_ratio, non_negative=True, error=PartitioningError
        )


@dataclass
class PipelineProfile:
    """Profile of a whole pipeline plus the available compute budget."""

    operators: List[OperatorProfile]
    compute_budget: float
    records_per_epoch: float
    epoch_duration_s: float = 1.0
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def costs(self) -> List[float]:
        """Per-record costs ``c_j`` in pipeline order."""
        return [op.cost_per_record for op in self.operators]

    @property
    def relay_ratios(self) -> List[float]:
        """Relay ratios ``r_j`` in pipeline order."""
        return [op.relay_ratio for op in self.operators]

    @property
    def names(self) -> List[str]:
        return [op.name for op in self.operators]

    def full_cost_fraction(self) -> float:
        """CPU fraction needed to run the whole pipeline on all records.

        Accounts for upstream data reduction: operator ``j`` only sees the
        records surviving operators ``1..j-1``.
        """
        total = 0.0
        surviving = self.records_per_epoch
        for op in self.operators:
            total += surviving * op.cost_per_record
            surviving *= op.relay_ratio
        return total / max(self.epoch_duration_s, 1e-12)

    def __len__(self) -> int:
        return len(self.operators)


class Profiler:
    """Builds :class:`PipelineProfile` objects from measured statistics.

    The simulator (or a real engine integration) supplies, per operator, the
    number of records it processed during the profiling epoch, the measured
    compute cost, and the measured input/output byte counts; the profiler
    turns them into (possibly noisy) estimates.
    """

    def __init__(
        self,
        config: Optional[AdaptationConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config or AdaptationConfig()
        self._rng = rng or random.Random(0)

    def profile_operator(
        self,
        name: str,
        records_processed: int,
        measured_cost_per_record: float,
        measured_relay_ratio: float,
        records_per_epoch: Optional[float] = None,
    ) -> OperatorProfile:
        """Create a profile for one operator, adding noise if under-sampled.

        An estimate is trusted when the operator processed at least
        ``min_profile_records`` records, or at least ``profile_trust_fraction``
        of the epoch's records when the epoch itself is small.  Noise is
        multiplicative, bounded by ``profile_noise``, and biased towards
        *under-estimating* the cost of under-sampled operators: a partially
        processed expensive operator looks cheaper than it is, which is the
        failure mode the paper describes for G+R behind a Join.
        """
        threshold = self.config.min_profile_records
        if records_per_epoch is not None:
            threshold = min(
                threshold,
                self.config.profile_trust_fraction * records_per_epoch,
            )
        trusted = records_processed >= threshold
        cost = measured_cost_per_record
        relay = measured_relay_ratio
        if not trusted:
            # Error shrinks as the sample approaches the trust threshold: an
            # operator profiled on 5% of the records it needed is much less
            # reliable than one profiled on 90% of them.
            scarcity = 1.0
            if threshold > 0:
                scarcity = min(1.0, max(0.0, 1.0 - records_processed / threshold))
            noise = self.config.profile_noise * scarcity
            # Bias towards underestimation of cost; relay ratio wobbles both ways.
            cost *= 1.0 - noise * self._rng.uniform(0.3, 1.0)
            relay *= 1.0 + noise * self._rng.uniform(-0.5, 0.5)
            relay = min(1.0, max(0.0, relay))
        return OperatorProfile(
            name=name,
            cost_per_record=max(0.0, cost),
            relay_ratio=max(0.0, relay),
            records_observed=records_processed,
            trusted=trusted,
        )

    def profile_pipeline(
        self,
        names: Sequence[str],
        records_processed: Sequence[int],
        costs_per_record: Sequence[float],
        relay_ratios: Sequence[float],
        compute_budget: float,
        records_per_epoch: float,
        epoch_duration_s: float = 1.0,
    ) -> PipelineProfile:
        """Assemble the pipeline profile from per-operator measurements."""
        if not (
            len(names)
            == len(records_processed)
            == len(costs_per_record)
            == len(relay_ratios)
        ):
            raise PartitioningError(
                "profile inputs must all have the same length "
                f"(got {len(names)}, {len(records_processed)}, "
                f"{len(costs_per_record)}, {len(relay_ratios)})"
            )
        operators = [
            self.profile_operator(
                name, observed, cost, relay, records_per_epoch=records_per_epoch
            )
            for name, observed, cost, relay in zip(
                names, records_processed, costs_per_record, relay_ratios
            )
        ]
        return PipelineProfile(
            operators=operators,
            compute_budget=compute_budget,
            records_per_epoch=records_per_epoch,
            epoch_duration_s=epoch_duration_s,
        )
