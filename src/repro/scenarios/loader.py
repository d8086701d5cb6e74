"""Load and validate :class:`~repro.scenarios.spec.ScenarioSpec` from TOML.

The on-disk shape mirrors the spec dataclasses section by section::

    [scenario]            # name, kind, mode
    [run]                 # epochs, warmup_epochs, record_mode, seed, ...
    [workload]            # query, records_per_epoch, rate_scale
    [workload.hotspot]    # shift_epoch, factor
    [fleet]               # sources, strategy, budget, cores
    [tiling]              # blocks, placement, sp_capacity_multiple, ...
    [migration]           # policy, saturation_pressure, ...
    [sweep]               # sources, blocks, queries, strategies

Unknown keys are rejected with the full dotted path so a typo in a config
file fails at load time, and every numeric knob flows through the spec
dataclasses' ``require_finite`` validation.  Command-line style overrides
(``--set fleet.sources=16``) are applied to the raw dict before validation,
so an override is checked exactly like a file value.
"""

from __future__ import annotations

import math

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11: dict-based specs still work.
    tomllib = None  # type: ignore[assignment]
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from .spec import (
    FleetSpec,
    HotspotSpec,
    MigrationSpec,
    ScenarioSpec,
    SweepSpec,
    TilingSpec,
    WorkloadSpec,
)

_SECTIONS = ("scenario", "run", "workload", "fleet", "tiling", "migration", "sweep")

_SECTION_KEYS: Dict[str, Tuple[str, ...]] = {
    "scenario": ("name", "kind", "mode"),
    "run": (
        "epochs",
        "warmup_epochs",
        "record_mode",
        "seed",
        "min_speedup",
        "parallel_min_speedup",
        "max_sources_limit",
        "per_query_demand",
    ),
    "workload": ("query", "records_per_epoch", "rate_scale", "hotspot"),
    "workload.hotspot": ("shift_epoch", "factor"),
    "fleet": ("sources", "strategy", "budget", "cores"),
    "tiling": (
        "blocks",
        "placement",
        "placement_map",
        "sp_capacity_multiple",
        "ingress_headroom",
        "sp_cores",
        "workers",
    ),
    "migration": (
        "policy",
        "saturation_pressure",
        "relief_pressure",
        "hot_epochs",
        "cooldown_epochs",
    ),
    "sweep": ("sources", "blocks", "queries", "strategies"),
}


def _require_section(data: Mapping[str, Any], section: str) -> Mapping[str, Any]:
    value = data.get(section, {})
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"[{section}] must be a table, got {type(value).__name__}"
        )
    allowed = _SECTION_KEYS[section]
    for key in value:
        if key not in allowed:
            raise ConfigurationError(
                f"unknown key {section}.{key!r}; expected one of {sorted(allowed)}"
            )
    return value


def _as_int(section: str, key: str, value: Any) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, (float, str)):
        try:
            as_float = float(value)
        except ValueError:
            as_float = math.nan
        # TOML and --set both admit nan and inf, which int() cannot take.
        if math.isfinite(as_float) and as_float.is_integer():
            return int(as_float)
    raise ConfigurationError(f"{section}.{key} must be an integer, got {value!r}")


def _as_float(section: str, key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigurationError(f"{section}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except (ValueError, OverflowError):
        raise ConfigurationError(
            f"{section}.{key} must be a number, got {value!r}"
        ) from None


def _as_str(section: str, key: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{section}.{key} must be a string, got {value!r}")
    return value


def _as_int_tuple(section: str, key: str, value: Any) -> Tuple[int, ...]:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        return (_as_int(section, key, value),)
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        return tuple(_as_int(section, key, item) for item in value)
    raise ConfigurationError(
        f"{section}.{key} must be an integer or list of integers, got {value!r}"
    )


def _as_str_tuple(section: str, key: str, value: Any) -> Tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, Sequence) and not isinstance(value, bytes):
        return tuple(_as_str(section, key, item) for item in value)
    raise ConfigurationError(
        f"{section}.{key} must be a string or list of strings, got {value!r}"
    )


def _as_budget(section: str, key: str, value: Any) -> Union[float, Tuple[Tuple[int, float], ...]]:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        return _as_float(section, key, value)
    if isinstance(value, Sequence):
        pairs: List[Tuple[int, float]] = []
        for item in value:
            if not isinstance(item, Sequence) or isinstance(item, str) or len(item) != 2:
                raise ConfigurationError(
                    f"{section}.{key} schedule entries must be "
                    f"[start_epoch, budget] pairs, got {item!r}"
                )
            pairs.append(
                (_as_int(section, key, item[0]), _as_float(section, key, item[1]))
            )
        return tuple(pairs)
    raise ConfigurationError(
        f"{section}.{key} must be a number or list of [epoch, budget] pairs, "
        f"got {value!r}"
    )


def spec_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Build a validated :class:`ScenarioSpec` from a nested mapping."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"scenario data must be a mapping, got {type(data).__name__}"
        )
    for section in data:
        if section not in _SECTIONS:
            raise ConfigurationError(
                f"unknown section [{section}]; expected one of {list(_SECTIONS)}"
            )

    scenario = _require_section(data, "scenario")
    if "name" not in scenario or "kind" not in scenario:
        raise ConfigurationError("[scenario] must declare both 'name' and 'kind'")
    run = _require_section(data, "run")
    workload_raw = _require_section(data, "workload")
    fleet_raw = _require_section(data, "fleet")
    tiling_raw = _require_section(data, "tiling")
    sweep_raw = _require_section(data, "sweep")

    hotspot: Optional[HotspotSpec] = None
    if "hotspot" in workload_raw:
        hot_raw = workload_raw["hotspot"]
        if not isinstance(hot_raw, Mapping):
            raise ConfigurationError(
                f"[workload.hotspot] must be a table, got {hot_raw!r}"
            )
        for key in hot_raw:
            if key not in _SECTION_KEYS["workload.hotspot"]:
                raise ConfigurationError(
                    f"unknown key workload.hotspot.{key!r}; expected one of "
                    f"{sorted(_SECTION_KEYS['workload.hotspot'])}"
                )
        if "shift_epoch" not in hot_raw:
            raise ConfigurationError("[workload.hotspot] must declare 'shift_epoch'")
        hotspot = HotspotSpec(
            shift_epoch=_as_int("workload.hotspot", "shift_epoch", hot_raw["shift_epoch"]),
            factor=_as_float("workload.hotspot", "factor", hot_raw.get("factor", 2.0)),
        )

    workload_kwargs: Dict[str, Any] = {"hotspot": hotspot}
    if "query" in workload_raw:
        workload_kwargs["query"] = _as_str("workload", "query", workload_raw["query"])
    if "records_per_epoch" in workload_raw:
        workload_kwargs["records_per_epoch"] = _as_int(
            "workload", "records_per_epoch", workload_raw["records_per_epoch"]
        )
    if "rate_scale" in workload_raw:
        workload_kwargs["rate_scale"] = _as_float(
            "workload", "rate_scale", workload_raw["rate_scale"]
        )
    workload = WorkloadSpec(**workload_kwargs)

    fleet_kwargs: Dict[str, Any] = {}
    if "sources" in fleet_raw:
        fleet_kwargs["sources"] = _as_int("fleet", "sources", fleet_raw["sources"])
    if "strategy" in fleet_raw:
        fleet_kwargs["strategy"] = _as_str("fleet", "strategy", fleet_raw["strategy"])
    if "budget" in fleet_raw:
        fleet_kwargs["budget"] = _as_budget("fleet", "budget", fleet_raw["budget"])
    if "cores" in fleet_raw:
        fleet_kwargs["cores"] = _as_int("fleet", "cores", fleet_raw["cores"])
    fleet = FleetSpec(**fleet_kwargs)

    tiling_kwargs: Dict[str, Any] = {}
    if "blocks" in tiling_raw:
        tiling_kwargs["blocks"] = _as_int("tiling", "blocks", tiling_raw["blocks"])
    if "placement" in tiling_raw:
        tiling_kwargs["placement"] = _as_str(
            "tiling", "placement", tiling_raw["placement"]
        )
    if "placement_map" in tiling_raw:
        raw_map = tiling_raw["placement_map"]
        if not isinstance(raw_map, Mapping):
            raise ConfigurationError(
                f"tiling.placement_map must be a table of source -> block, "
                f"got {raw_map!r}"
            )
        tiling_kwargs["placement_map"] = {
            _as_str("tiling.placement_map", "key", key): _as_int(
                "tiling.placement_map", key, value
            )
            for key, value in raw_map.items()
        }
    if "sp_capacity_multiple" in tiling_raw:
        tiling_kwargs["sp_capacity_multiple"] = _as_float(
            "tiling", "sp_capacity_multiple", tiling_raw["sp_capacity_multiple"]
        )
    if "ingress_headroom" in tiling_raw:
        tiling_kwargs["ingress_headroom"] = _as_float(
            "tiling", "ingress_headroom", tiling_raw["ingress_headroom"]
        )
    if "sp_cores" in tiling_raw:
        tiling_kwargs["sp_cores"] = _as_int("tiling", "sp_cores", tiling_raw["sp_cores"])
    if "workers" in tiling_raw:
        tiling_kwargs["workers"] = _as_int("tiling", "workers", tiling_raw["workers"])
    tiling = TilingSpec(**tiling_kwargs)

    migration: Optional[MigrationSpec] = None
    if "migration" in data:
        mig_raw = _require_section(data, "migration")
        mig_kwargs: Dict[str, Any] = {}
        if "policy" in mig_raw:
            mig_kwargs["policy"] = _as_str("migration", "policy", mig_raw["policy"])
        if "saturation_pressure" in mig_raw:
            mig_kwargs["saturation_pressure"] = _as_float(
                "migration", "saturation_pressure", mig_raw["saturation_pressure"]
            )
        if "relief_pressure" in mig_raw:
            mig_kwargs["relief_pressure"] = _as_float(
                "migration", "relief_pressure", mig_raw["relief_pressure"]
            )
        if "hot_epochs" in mig_raw:
            mig_kwargs["hot_epochs"] = _as_int(
                "migration", "hot_epochs", mig_raw["hot_epochs"]
            )
        if "cooldown_epochs" in mig_raw:
            mig_kwargs["cooldown_epochs"] = _as_int(
                "migration", "cooldown_epochs", mig_raw["cooldown_epochs"]
            )
        migration = MigrationSpec(**mig_kwargs)

    sweep_kwargs: Dict[str, Any] = {}
    if "sources" in sweep_raw:
        sweep_kwargs["sources"] = _as_int_tuple("sweep", "sources", sweep_raw["sources"])
    if "blocks" in sweep_raw:
        sweep_kwargs["blocks"] = _as_int_tuple("sweep", "blocks", sweep_raw["blocks"])
    if "queries" in sweep_raw:
        sweep_kwargs["queries"] = _as_int_tuple("sweep", "queries", sweep_raw["queries"])
    if "strategies" in sweep_raw:
        sweep_kwargs["strategies"] = _as_str_tuple(
            "sweep", "strategies", sweep_raw["strategies"]
        )
    sweep = SweepSpec(**sweep_kwargs)

    spec_kwargs: Dict[str, Any] = {
        "name": _as_str("scenario", "name", scenario["name"]),
        "kind": _as_str("scenario", "kind", scenario["kind"]),
        "workload": workload,
        "fleet": fleet,
        "tiling": tiling,
        "migration": migration,
        "sweep": sweep,
    }
    if "mode" in scenario:
        spec_kwargs["mode"] = _as_str("scenario", "mode", scenario["mode"])
    if "epochs" in run:
        spec_kwargs["epochs"] = _as_int("run", "epochs", run["epochs"])
    if "warmup_epochs" in run and run["warmup_epochs"] is not None:
        spec_kwargs["warmup_epochs"] = _as_int(
            "run", "warmup_epochs", run["warmup_epochs"]
        )
    if "record_mode" in run:
        spec_kwargs["record_mode"] = _as_str("run", "record_mode", run["record_mode"])
    if "seed" in run:
        spec_kwargs["seed"] = _as_int("run", "seed", run["seed"])
    if "min_speedup" in run:
        spec_kwargs["min_speedup"] = _as_float("run", "min_speedup", run["min_speedup"])
    if "parallel_min_speedup" in run:
        spec_kwargs["parallel_min_speedup"] = _as_float(
            "run", "parallel_min_speedup", run["parallel_min_speedup"]
        )
    if "max_sources_limit" in run:
        spec_kwargs["max_sources_limit"] = _as_int(
            "run", "max_sources_limit", run["max_sources_limit"]
        )
    if "per_query_demand" in run:
        spec_kwargs["per_query_demand"] = _as_float(
            "run", "per_query_demand", run["per_query_demand"]
        )
    return ScenarioSpec(**spec_kwargs)


def parse_override(entry: str) -> Tuple[Tuple[str, ...], Any]:
    """Parse one ``section.key=value`` override into a path and a value.

    Values are coerced the way a shell user expects: comma-separated lists
    split into elements, each element tried as int, then float, then left
    as a string.  The resulting raw value still flows through the same
    section validators as file values, so a bad override fails identically.
    """
    if "=" not in entry:
        raise ConfigurationError(
            f"override {entry!r} must look like section.key=value"
        )
    path_text, _, value_text = entry.partition("=")
    path = tuple(part.strip() for part in path_text.strip().split("."))
    if len(path) < 2 or not all(path):
        raise ConfigurationError(
            f"override path {path_text!r} must be a dotted section.key"
        )
    return path, _coerce_override_value(value_text.strip())


def _coerce_scalar(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _coerce_override_value(text: str) -> Any:
    if "," in text:
        return [_coerce_scalar(part.strip()) for part in text.split(",") if part.strip()]
    return _coerce_scalar(text)


def apply_overrides(
    data: Mapping[str, Any], overrides: Sequence[str]
) -> Dict[str, Any]:
    """A deep copy of ``data`` with each ``path=value`` override applied."""

    def deepen(node: Mapping[str, Any]) -> Dict[str, Any]:
        return {
            key: deepen(value) if isinstance(value, Mapping) else value
            for key, value in node.items()
        }

    result = deepen(data)
    for entry in overrides:
        path, value = parse_override(entry)
        cursor: Dict[str, Any] = result
        for part in path[:-1]:
            existing = cursor.get(part)
            if existing is None:
                existing = cursor[part] = {}
            elif not isinstance(existing, dict):
                raise ConfigurationError(
                    f"override {entry!r} descends into non-table "
                    f"{'.'.join(path[:-1])!r}"
                )
            cursor = existing
        cursor[path[-1]] = value
    return result


def load_scenario(
    source: "Union[str, Path, Mapping[str, Any]]",
    overrides: Sequence[str] = (),
) -> ScenarioSpec:
    """Load a scenario from a TOML file path or a nested mapping."""
    if isinstance(source, Mapping):
        data: Mapping[str, Any] = source
    else:
        if tomllib is None:
            raise ConfigurationError(
                "TOML scenario files need Python >= 3.11 (tomllib); pass a "
                "dict-shaped scenario instead"
            )
        path = Path(source)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read scenario config {path}: {exc}"
            ) from exc
        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(f"invalid TOML in {path}: {exc}") from exc
    if overrides:
        data = apply_overrides(data, overrides)
    return spec_from_dict(data)
