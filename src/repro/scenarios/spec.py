"""Typed scenario specifications for the declarative experiment harness.

A :class:`ScenarioSpec` is the complete, serializable description of one
figure-style experiment: which executor family runs (``kind``), the query and
workload dynamics, the fleet composition and CPU budget schedule, the block
tiling and placement policy, and the sweep axes to expand into individual
runs.  Specs are plain frozen dataclasses so they can be built from TOML
files (:mod:`repro.scenarios.loader`) or directly in code; the
:class:`~repro.scenarios.runner.ScenarioRunner` executes them.

These dataclasses are the only declaration of the config schema: the loader
reads its sections, keys, types and required keys off their fields, so a
knob added or removed here is added to or removed from every config at once.

Every float knob is validated through :func:`repro.errors.require_finite`
(simlint rule SL008 discipline) at construction, and placement names and the
dynamic re-placement shape are checked by the same code the simulators use,
so a malformed config fails loudly at load time rather than after setup or
mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple, Union

from ..errors import ConfigurationError, SimulationError, require_finite
from ..simulation.engine import RECORD_MODES
from ..simulation.node import BudgetSchedule, as_budget_schedule
from ..simulation.sharding import make_placement

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

    def __post_init__(self) -> None:
        if self.sources < 1:
            raise ConfigurationError(
                f"fleet sources must be >= 1, got {self.sources!r}"
            )
        if self.cores < 1:
            raise ConfigurationError(f"fleet cores must be >= 1, got {self.cores!r}")
        _check_budget("fleet budget", self.budget)
        self.budget_schedule()  # the schedule's own checks (starts at epoch 0)

    def budget_schedule(self) -> BudgetSchedule:
        return as_budget_schedule(self.budget)


@dataclass(frozen=True)
class TilingSpec:
    """Stream-processor side: block count, placement and worker processes."""

    blocks: int = 1
    #: ``"round_robin"`` / ``"byte_rate_balanced"`` / ``"static"`` (with
    #: ``placement_map``); the sharded executors interpret it.
    placement: str = "round_robin"
    placement_map: Optional[Mapping[str, int]] = None
    #: Worker processes stepping the blocks.  1 (the default) keeps the
    #: serial lockstep reference path; > 1 selects the process-parallel
    #: controller (bit-identical metrics, near-linear wall-clock in blocks).
    workers: int = 1

    def __post_init__(self) -> None:
        if self.blocks < 1:
            raise ConfigurationError(f"blocks must be >= 1, got {self.blocks!r}")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers!r}")
        if self.placement == "static":
            if self.placement_map is None:
                raise ConfigurationError(
                    "placement='static' requires a placement_map of source -> block"
                )
        else:
            try:
                make_placement(self.placement)
            except SimulationError as exc:
                raise ConfigurationError(str(exc)) from None
        for source, block in (self.placement_map or {}).items():
            if block < 0:
                raise ConfigurationError(
                    f"placement_map sends {source!r} to block {block!r}; "
                    "blocks are numbered from 0"
                )

    def placement_arg(self) -> "str | Dict[str, int]":
        """The placement argument the sharded executors accept."""
        if self.placement_map is not None:
            return dict(self.placement_map)
        return self.placement


@dataclass(frozen=True)
class SweepSpec:
    """Declared sweep axes; empty axes fall back to the fleet's fixed value.

    The runner expands whichever axes the scenario ``kind`` supports:
    ``sources`` (scaling), ``blocks`` (sharded), ``queries`` (colocated),
    and ``strategies`` (all kinds).
    """

    sources: Tuple[int, ...] = ()
    blocks: Tuple[int, ...] = ()
    queries: Tuple[int, ...] = ()
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


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, declarative experiment scenario."""

    name: str
    kind: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    fleet: FleetSpec = field(default_factory=FleetSpec)
    tiling: TilingSpec = field(default_factory=TilingSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    epochs: int = 25
    #: ``None`` derives the kind's default: ``max(2, epochs // 3)`` for the
    #: steady-state kinds, the hotspot's shift epoch for dynamic
    #: re-placement, and ``max(1, epochs // 4)`` for record-mode timing.
    warmup_epochs: Optional[int] = None
    record_mode: str = "arena"
    seed: int = 1
    mode: str = "simulated"
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
        if self.max_sources_limit < 0:
            raise ConfigurationError(
                f"max_sources_limit must be >= 0, got {self.max_sources_limit!r}"
            )
        if self.kind == "dynamic_replacement":
            self._check_dynamic_replacement()

    def _check_dynamic_replacement(self) -> None:
        hotspot = self.workload.hotspot
        if hotspot is None:
            raise ConfigurationError(
                "dynamic_replacement scenarios need a [workload.hotspot] "
                "section (shift_epoch, factor)"
            )
        blocks = self.tiling.blocks
        if blocks < 2:
            raise ConfigurationError(
                f"need >= 2 blocks for re-placement, got {blocks!r}"
            )
        if self.fleet.sources < blocks:
            raise ConfigurationError(
                f"need >= 1 source per block, got {self.fleet.sources!r} "
                f"sources for {blocks!r} blocks"
            )
        if hotspot.shift_epoch >= self.epochs:
            raise ConfigurationError(
                f"shift_epoch must fall inside the run, got "
                f"{hotspot.shift_epoch!r} of {self.epochs!r} epochs"
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
