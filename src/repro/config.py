"""Configuration dataclasses shared across the library.

The defaults mirror the parameters used in the paper's evaluation
(Section VI-A):

* epoch duration of one second,
* a 5-second query latency bound for throughput accounting,
* 2.048 Mbps effective network bandwidth per query per data source
  (10 Gbps link fairly shared across 250 nodes and 20 queries), scaled by
  10x in most experiments to match the 10x-scaled input rates,
* hysteresis thresholds (``DrainedThres`` / ``IdleThres``) that prevent the
  runtime from oscillating on small workload variations,
* three consecutive non-stable epochs required before adaptation triggers
  (the "Detect" band visible in Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigurationError, require_finite

#: Bytes in one Pingmesh probe record (Section II-B of the paper).
PINGMESH_RECORD_BYTES = 86

#: Paper-reported per-node data generation rates in Mbps (before 10x scaling).
PINGMESH_BASE_RATE_MBPS = 2.62
LOGANALYTICS_BASE_RATE_MBPS = 4.96

#: Effective per-query per-source network bandwidth in Mbps (before scaling):
#: 10 Gbps / 250 nodes / 20 queries = 2.048 Mbps (Section VI-A).
BASE_BANDWIDTH_MBPS = 2.048


def _require_positive(name: str, value: float) -> None:
    require_finite(name, value, positive=True)


def _require_fraction(name: str, value: float) -> None:
    require_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be within [0, 1], got {value!r}")


@dataclass(frozen=True)
class EpochConfig:
    """Timing parameters of the epoch-driven runtime.

    Attributes:
        duration_s: Epoch length in seconds. The paper uses one second.
        detect_epochs: Number of consecutive non-stable epochs required
            before the runtime triggers adaptation (avoids reacting to
            scheduling noise; Figure 8 shows three).
        latency_bound_s: Latency bound used when reporting query throughput.
    """

    duration_s: float = 1.0
    detect_epochs: int = 3
    latency_bound_s: float = 5.0

    def __post_init__(self) -> None:
        _require_positive("duration_s", self.duration_s)
        _require_positive("latency_bound_s", self.latency_bound_s)
        if self.detect_epochs < 1:
            raise ConfigurationError(
                f"detect_epochs must be >= 1, got {self.detect_epochs}"
            )


@dataclass(frozen=True)
class ProxyThresholds:
    """Hysteresis thresholds used by control proxies (Section IV-C).

    Attributes:
        drained_thres: Fraction of an epoch's records that may remain pending
            in (or be drained from) a proxy's downstream queue without the
            proxy signalling the *congested* state.
        idle_thres: Fraction of the epoch a downstream operator may stay idle
            without the proxy signalling the *idle* state.
        congestion_pending_records: Absolute pending-record floor below which
            a queue is never considered congested, regardless of fractions.
        queue_capacity_epochs: Bound on each operator queue, expressed in
            epochs' worth of input records.  When the bound is reached the
            connection exerts backpressure and newly forwarded records are not
            admitted (they do not count towards throughput), which is how the
            underlying dataflow runtime (MiNiFi connection backpressure)
            behaves when an operator is persistently over-subscribed.
    """

    drained_thres: float = 0.05
    idle_thres: float = 0.15
    congestion_pending_records: int = 16
    queue_capacity_epochs: float = 2.0

    def __post_init__(self) -> None:
        _require_fraction("drained_thres", self.drained_thres)
        _require_fraction("idle_thres", self.idle_thres)
        if self.congestion_pending_records < 0:
            raise ConfigurationError(
                "congestion_pending_records must be non-negative, "
                f"got {self.congestion_pending_records}"
            )
        _require_positive("queue_capacity_epochs", self.queue_capacity_epochs)


@dataclass(frozen=True)
class AdaptationConfig:
    """Parameters of the StepWise-Adapt algorithm (Section IV-D).

    Attributes:
        load_factor_steps: Number of discrete levels used when binary-searching
            a load factor during model-agnostic fine-tuning.
        max_finetune_epochs: Safety cap on fine-tuning epochs per adaptation.
        min_profile_records: Minimum number of records an operator must process
            during the Profile phase for its cost estimate to be trusted;
            fewer records yield noisy estimates (mirrors the paper's
            observation about expensive operators such as Join).
        profile_trust_fraction: Alternative trust criterion relative to the
            epoch's record count: an operator that processed at least this
            fraction of an epoch's records is trusted even if the absolute
            minimum was not reached (keeps small deployments from treating
            every estimate as noisy).
        profile_noise: Relative error applied to untrusted cost estimates.
        budget_headroom: Fraction of the measured budget the LP initialisation
            leaves unused so modelling error does not immediately push the
            query into the congested state.
        use_lp_init: Whether the model-based LP initialisation runs. Disabled
            for the "w/o LP-init" ablation.
        use_finetune: Whether model-agnostic fine-tuning runs. Disabled for
            the "LP only" ablation.
    """

    load_factor_steps: int = 32
    max_finetune_epochs: int = 64
    min_profile_records: int = 200
    profile_trust_fraction: float = 0.5
    profile_noise: float = 0.35
    budget_headroom: float = 0.05
    use_lp_init: bool = True
    use_finetune: bool = True

    def __post_init__(self) -> None:
        if self.load_factor_steps < 2:
            raise ConfigurationError(
                f"load_factor_steps must be >= 2, got {self.load_factor_steps}"
            )
        if self.max_finetune_epochs < 1:
            raise ConfigurationError(
                "max_finetune_epochs must be >= 1, "
                f"got {self.max_finetune_epochs}"
            )
        if self.min_profile_records < 0:
            raise ConfigurationError(
                "min_profile_records must be non-negative, "
                f"got {self.min_profile_records}"
            )
        _require_fraction("profile_trust_fraction", self.profile_trust_fraction)
        _require_fraction("profile_noise", self.profile_noise)
        _require_fraction("budget_headroom", self.budget_headroom)


@dataclass(frozen=True)
class NetworkConfig:
    """Network model parameters for a single data source's uplink.

    Attributes:
        bandwidth_mbps: Effective bandwidth available to one query instance on
            one data source, in megabits per second.
        rate_scale: Input/bandwidth scaling factor applied in the experiments
            (the paper scales both by 10x for experimentation).
    """

    bandwidth_mbps: float = BASE_BANDWIDTH_MBPS
    rate_scale: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("bandwidth_mbps", self.bandwidth_mbps)
        _require_positive("rate_scale", self.rate_scale)

    @property
    def effective_bandwidth_mbps(self) -> float:
        """Bandwidth after applying the experiment's scaling factor."""
        return self.bandwidth_mbps * self.rate_scale


@dataclass(frozen=True)
class JarvisConfig:
    """Top-level configuration bundle used by the runtime and simulator."""

    epoch: EpochConfig = field(default_factory=EpochConfig)
    thresholds: ProxyThresholds = field(default_factory=ProxyThresholds)
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def with_updates(self, **kwargs: object) -> "JarvisConfig":
        """Return a copy of this configuration with selected fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


DEFAULT_CONFIG = JarvisConfig()
