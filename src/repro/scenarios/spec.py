"""Typed scenario specifications for the declarative experiment harness.

A :class:`ScenarioSpec` is the complete, serializable description of one
figure-style experiment: which executor family runs (``kind``), the query and
workload dynamics, the fleet composition and CPU budget schedule, the block
tiling and placement policy, the migration policy, and the sweep axes to
expand into individual runs.  Specs are plain frozen dataclasses so they can
be built from TOML files (:mod:`repro.scenarios.loader`), from benchmark env
aliases (:mod:`repro.scenarios.knobs`), or directly in code; the
:class:`~repro.scenarios.runner.ScenarioRunner` executes them.

Every float knob is validated through :func:`repro.errors.require_finite`
(simlint rule SL008 discipline) at construction, so a NaN smuggled in via a
config file fails loudly at load time rather than corrupting placement or
accounting mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple, Union

from ..errors import ConfigurationError, require_finite
from ..simulation.engine import RECORD_MODES
from ..simulation.node import BudgetSchedule, as_budget_schedule

#: Executor families a scenario can target.
SCENARIO_KINDS = (
    "scaling",
    "sharded",
    "dynamic_replacement",
    "colocated",
    "record_modes",
    "parallel",
)

#: Evaluation modes for the kinds that have an analytic cross-check.
SCENARIO_MODES = ("analytic", "simulated", "comparison")

#: A budget is a constant fraction of a core or ``(start_epoch, budget)``
#: breakpoints (the piecewise-constant schedules of Figure 8).
BudgetLike = Union[float, Tuple[Tuple[int, float], ...]]


def _check_budget(name: str, budget: BudgetLike) -> None:
    if isinstance(budget, (int, float)):
        require_finite(name, float(budget), non_negative=True)
        return
    if not budget:
        raise ConfigurationError(f"{name} schedule needs at least one breakpoint")
    for pair in budget:
        if len(pair) != 2:
            raise ConfigurationError(
                f"{name} breakpoints must be (start_epoch, budget) pairs, "
                f"got {pair!r}"
            )
        epoch, value = pair
        if int(epoch) != epoch or epoch < 0:
            raise ConfigurationError(
                f"{name} breakpoint epochs must be non-negative integers, "
                f"got {epoch!r}"
            )
        require_finite(f"{name}[{epoch}]", float(value), non_negative=True)


@dataclass(frozen=True)
class HotspotSpec:
    """A mid-run rate shift: part of the fleet produces ``factor``x records
    from ``shift_epoch`` onwards while its *declared* nominal rate stays
    stale (the scenario behind dynamic re-placement)."""

    shift_epoch: int
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.shift_epoch < 0:
            raise ConfigurationError(
                f"hotspot shift_epoch must be >= 0, got {self.shift_epoch!r}"
            )
        require_finite("hotspot factor", self.factor, positive=True)
        if self.factor < 1.0:
            raise ConfigurationError(
                f"hotspot factor must be >= 1, got {self.factor!r}"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """Per-source workload: which query feeds the fleet and how hard."""

    query: str = "s2s_probe"
    records_per_epoch: int = 300
    rate_scale: float = 1.0
    hotspot: Optional[HotspotSpec] = None

    def __post_init__(self) -> None:
        if self.records_per_epoch < 1:
            raise ConfigurationError(
                f"records_per_epoch must be >= 1, got {self.records_per_epoch!r}"
            )
        require_finite("rate_scale", self.rate_scale, positive=True)


@dataclass(frozen=True)
class FleetSpec:
    """Fleet composition: how many sources, which strategy, what CPU budget."""

    sources: int = 8
    strategy: str = "Jarvis"
    budget: BudgetLike = 0.55
    #: Source-node cores shared max-min fairly between co-located query
    #: instances (the Figure 11 axis); single-query kinds ignore it.
    cores: int = 1
    #: Fraction of the stream processor's compute available to this query.
    sp_compute_share: float = 1.0

    def __post_init__(self) -> None:
        if self.sources < 1:
            raise ConfigurationError(
                f"fleet sources must be >= 1, got {self.sources!r}"
            )
        if self.cores < 1:
            raise ConfigurationError(f"fleet cores must be >= 1, got {self.cores!r}")
        _check_budget("fleet budget", self.budget)
        require_finite("sp_compute_share", self.sp_compute_share, positive=True)

    def budget_schedule(self) -> BudgetSchedule:
        return as_budget_schedule(self.budget)


@dataclass(frozen=True)
class TilingSpec:
    """Stream-processor side: block count, placement, and ingress sizing."""

    blocks: int = 1
    #: ``"round_robin"`` / ``"byte_rate_balanced"`` / ``"static"`` (with
    #: ``placement_map``); the sharded executors interpret it.
    placement: str = "round_robin"
    placement_map: Optional[Mapping[str, int]] = None
    #: Per-block ingress capacity as a multiple of one source's 10x input
    #: rate; ``None`` selects the kind's calibrated default.
    sp_capacity_multiple: Optional[float] = None
    #: Dynamic re-placement only: per-block ingress as a multiple of one
    #: block's nominal drained rate.
    ingress_headroom: Optional[float] = None
    sp_cores: int = 64
    #: Worker processes stepping the blocks.  1 (the default) keeps the
    #: serial lockstep reference path; > 1 selects the process-parallel
    #: controller (bit-identical metrics, near-linear wall-clock in blocks).
    workers: int = 1

    def __post_init__(self) -> None:
        if self.blocks < 1:
            raise ConfigurationError(f"blocks must be >= 1, got {self.blocks!r}")
        if self.sp_cores < 1:
            raise ConfigurationError(f"sp_cores must be >= 1, got {self.sp_cores!r}")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers!r}")
        require_finite("sp_capacity_multiple", self.sp_capacity_multiple, positive=True)
        require_finite("ingress_headroom", self.ingress_headroom, positive=True)
        if self.placement == "static" and self.placement_map is None:
            raise ConfigurationError(
                "placement='static' requires a placement_map of source -> block"
            )

    def placement_arg(self) -> "str | Dict[str, int]":
        """The placement argument the sharded executors accept."""
        if self.placement_map is not None:
            return dict(self.placement_map)
        return self.placement


@dataclass(frozen=True)
class MigrationSpec:
    """Dynamic re-placement policy knobs (``SaturationMigrationPolicy``)."""

    policy: str = "saturation"
    saturation_pressure: float = 0.95
    relief_pressure: float = 0.92
    hot_epochs: int = 2
    cooldown_epochs: int = 2

    def __post_init__(self) -> None:
        if self.policy not in ("saturation", "never"):
            raise ConfigurationError(
                f"unknown migration policy {self.policy!r}; expected "
                "'saturation' or 'never'"
            )
        require_finite("saturation_pressure", self.saturation_pressure, positive=True)
        require_finite("relief_pressure", self.relief_pressure, positive=True)
        if self.hot_epochs < 1:
            raise ConfigurationError(
                f"hot_epochs must be >= 1, got {self.hot_epochs!r}"
            )
        if self.cooldown_epochs < 0:
            raise ConfigurationError(
                f"cooldown_epochs must be >= 0, got {self.cooldown_epochs!r}"
            )


@dataclass(frozen=True)
class SweepSpec:
    """Declared sweep axes; empty axes fall back to the fleet's fixed value.

    The runner expands whichever axes the scenario ``kind`` supports:
    ``sources`` (scaling), ``blocks`` (sharded), ``queries`` (colocated),
    ``budgets`` (any cluster kind), and ``strategies`` (all kinds).
    """

    sources: Tuple[int, ...] = ()
    blocks: Tuple[int, ...] = ()
    queries: Tuple[int, ...] = ()
    budgets: Tuple[float, ...] = ()
    strategies: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for axis, values in (
            ("sources", self.sources),
            ("blocks", self.blocks),
            ("queries", self.queries),
        ):
            for value in values:
                if value < 1:
                    raise ConfigurationError(
                        f"sweep.{axis} values must be >= 1, got {value!r}"
                    )
        for value in self.budgets:
            require_finite("sweep.budgets", float(value), non_negative=True)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, declarative experiment scenario."""

    name: str
    kind: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    fleet: FleetSpec = field(default_factory=FleetSpec)
    tiling: TilingSpec = field(default_factory=TilingSpec)
    migration: Optional[MigrationSpec] = None
    sweep: SweepSpec = field(default_factory=SweepSpec)
    epochs: int = 25
    #: ``None`` derives the kind's default: ``max(2, epochs // 3)`` for the
    #: steady-state kinds, the hotspot's shift epoch for dynamic
    #: re-placement, and ``max(1, epochs // 4)`` for record-mode timing.
    warmup_epochs: Optional[int] = None
    record_mode: str = "arena"
    seed: int = 1
    mode: str = "simulated"
    #: Assertion shims skip a disabled scenario (FIG10_MIGRATION=0 alias).
    enabled: bool = True
    #: ``record_modes`` kind: asserted arena-over-object speedup floor (0
    #: disables the gate).
    min_speedup: float = 0.0
    #: ``parallel`` kind: asserted parallel-over-serial speedup floor at
    #: ``tiling.workers`` workers (0 disables the gate — e.g. on machines
    #: with fewer CPUs than workers, where the ratio is meaningless).
    parallel_min_speedup: float = 0.0
    #: ``scaling`` kind, analytic mode: search limit for the supported-sources
    #: computation; 0 skips it entirely.
    max_sources_limit: int = 400
    #: ``colocated`` kind: per-query CPU demand override (``None`` selects
    #: the paper's demand for the rate scale, or calibrates).
    per_query_demand: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.kind not in SCENARIO_KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; expected one of "
                f"{SCENARIO_KINDS}"
            )
        if self.mode not in SCENARIO_MODES:
            raise ConfigurationError(
                f"unknown scenario mode {self.mode!r}; expected one of "
                f"{SCENARIO_MODES}"
            )
        if self.record_mode not in RECORD_MODES:
            raise ConfigurationError(
                f"unknown record_mode {self.record_mode!r}; expected one of "
                f"{RECORD_MODES}"
            )
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs!r}")
        if self.warmup_epochs is not None and not (
            0 <= self.warmup_epochs < self.epochs
        ):
            raise ConfigurationError(
                f"warmup_epochs must fall inside the run, got "
                f"{self.warmup_epochs!r} of {self.epochs!r} epochs"
            )
        require_finite("min_speedup", self.min_speedup, non_negative=True)
        require_finite(
            "parallel_min_speedup", self.parallel_min_speedup, non_negative=True
        )
        if self.kind == "parallel" and self.tiling.workers < 2:
            raise ConfigurationError(
                "parallel scenarios need tiling.workers >= 2 (workers=1 is "
                "the serial reference the parallel run is compared against)"
            )
        require_finite("per_query_demand", self.per_query_demand, positive=True)
        if self.max_sources_limit < 0:
            raise ConfigurationError(
                f"max_sources_limit must be >= 0, got {self.max_sources_limit!r}"
            )
        if self.kind == "dynamic_replacement" and self.workload.hotspot is None:
            raise ConfigurationError(
                "dynamic_replacement scenarios need a [workload.hotspot] "
                "section (shift_epoch, factor)"
            )

    def resolved_warmup(self) -> int:
        """The warmup the runner uses when ``warmup_epochs`` is unset."""
        if self.warmup_epochs is not None:
            return self.warmup_epochs
        if self.kind == "dynamic_replacement":
            assert self.workload.hotspot is not None  # enforced in __post_init__
            return self.workload.hotspot.shift_epoch
        if self.kind in ("record_modes", "parallel"):
            return max(1, self.epochs // 4)
        return max(2, self.epochs // 3)

    def with_overrides(self, **changes: object) -> "ScenarioSpec":
        """A copy with top-level fields replaced (revalidates)."""
        return replace(self, **changes)  # type: ignore[arg-type]
