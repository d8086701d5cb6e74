"""Load and validate :class:`~repro.scenarios.spec.ScenarioSpec` from TOML.

The on-disk shape is read off the spec dataclasses (:data:`SECTION_FIELDS`)::

    [scenario]            # name, kind, mode
    [run]                 # every other scalar ScenarioSpec field
    [workload]            # one section per dataclass-typed field ...
    [workload.hotspot]    # ... and a nested one per dataclass inside it
    [fleet]
    [tiling]
    [sweep]

A key's type hint picks its validator, and a field without a default is a
required key.  Unknown keys are rejected with the full dotted path so a typo
in a config file fails at load time, and every numeric knob flows through
the spec dataclasses' ``require_finite`` validation.  No key accepts
``None``: neither TOML nor ``--set`` can write it, so an unset knob is an
absent key.  Command-line style overrides (``--set fleet.sources=16``) are
applied to the raw dict before validation, so an override is checked exactly
like a file value.
"""

from __future__ import annotations

import math

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11: dict-based specs still work.
    tomllib = None  # type: ignore[assignment]
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_type_hints,
)

from ..errors import ConfigurationError
from .spec import BudgetLike, ScenarioSpec

_SPEC_HINTS = get_type_hints(ScenarioSpec)
_SCENARIO_KEYS = ("name", "kind", "mode")

#: Every config section's keys and their type hints.  ``[scenario]`` names
#: the experiment, ``[run]`` holds every other scalar :class:`ScenarioSpec`
#: field, and each dataclass-typed field is a section of its own.
SECTION_FIELDS: Dict[str, Dict[str, Any]] = {
    "scenario": {key: _SPEC_HINTS[key] for key in _SCENARIO_KEYS},
    "run": {
        key: hint
        for key, hint in _SPEC_HINTS.items()
        if key not in _SCENARIO_KEYS and not is_dataclass(hint)
    },
    **{
        key: get_type_hints(hint)
        for key, hint in _SPEC_HINTS.items()
        if is_dataclass(hint)
    },
}


def _as_int(path: str, value: Any) -> int:
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
    raise ConfigurationError(f"{path} must be an integer, got {value!r}")


def _as_float(path: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigurationError(f"{path} must be a number, got {value!r}")
    try:
        return float(value)
    except (ValueError, OverflowError):
        raise ConfigurationError(f"{path} must be a number, got {value!r}") from None


def _as_str(path: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{path} must be a string, got {value!r}")
    return value


def _as_int_tuple(path: str, value: Any) -> Tuple[int, ...]:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        return (_as_int(path, value),)
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        return tuple(_as_int(path, item) for item in value)
    raise ConfigurationError(
        f"{path} must be an integer or list of integers, got {value!r}"
    )


def _as_str_tuple(path: str, value: Any) -> Tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, Sequence) and not isinstance(value, bytes):
        return tuple(_as_str(path, item) for item in value)
    raise ConfigurationError(
        f"{path} must be a string or list of strings, got {value!r}"
    )


def _as_budget(path: str, value: Any) -> Union[float, Tuple[Tuple[int, float], ...]]:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        return _as_float(path, value)
    if isinstance(value, Sequence):
        pairs: List[Tuple[int, float]] = []
        for item in value:
            if not isinstance(item, Sequence) or isinstance(item, str) or len(item) != 2:
                raise ConfigurationError(
                    f"{path} schedule entries must be "
                    f"[start_epoch, budget] pairs, got {item!r}"
                )
            pairs.append((_as_int(path, item[0]), _as_float(path, item[1])))
        return tuple(pairs)
    raise ConfigurationError(
        f"{path} must be a number or list of [epoch, budget] pairs, got {value!r}"
    )


def _as_block_map(path: str, value: Any) -> Dict[str, int]:
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"{path} must be a table of source -> block, got {value!r}"
        )
    return {
        _as_str(f"{path}.key", key): _as_int(f"{path}.{key}", block)
        for key, block in value.items()
    }


#: The validator for each type hint a spec field carries.
_COERCERS: Dict[Any, Callable[[str, Any], Any]] = {
    int: _as_int,
    float: _as_float,
    str: _as_str,
    Tuple[int, ...]: _as_int_tuple,
    Tuple[str, ...]: _as_str_tuple,
    BudgetLike: _as_budget,
    Mapping[str, int]: _as_block_map,
}


def _coerce(path: str, hint: Any, value: Any) -> Any:
    """``value`` validated as a field of type ``hint``; ``None`` never loads."""
    args = get_args(hint)
    if type(None) in args:  # Optional[X]: unset means an absent key
        (hint,) = [arg for arg in args if arg is not type(None)]
    if is_dataclass(hint):
        return hint(**_read(hint, path, get_type_hints(hint), value))
    return _COERCERS[hint](path, value)


def _read(
    cls: Any, section: str, keys: Mapping[str, Any], table: Any
) -> Dict[str, Any]:
    """The validated ``cls`` constructor arguments one config table sets."""
    if not isinstance(table, Mapping):
        raise ConfigurationError(
            f"[{section}] must be a table, got {type(table).__name__}"
        )
    for key in table:
        if key not in keys:
            raise ConfigurationError(
                f"unknown key {section}.{key!r}; expected one of {sorted(keys)}"
            )
    required = [
        spec_field.name
        for spec_field in fields(cls)
        if spec_field.name in keys
        and spec_field.default is MISSING
        and spec_field.default_factory is MISSING
    ]
    if not all(key in table for key in required):
        raise ConfigurationError(
            f"[{section}] must declare " + " and ".join(map(repr, required))
        )
    return {
        key: _coerce(f"{section}.{key}", keys[key], value)
        for key, value in table.items()
    }


def spec_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Build a validated :class:`ScenarioSpec` from a nested mapping."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"scenario data must be a mapping, got {type(data).__name__}"
        )
    for section in data:
        if section not in SECTION_FIELDS:
            raise ConfigurationError(
                f"unknown section [{section}]; expected one of {list(SECTION_FIELDS)}"
            )
    kwargs: Dict[str, Any] = {}
    for section, keys in SECTION_FIELDS.items():
        table = data.get(section, {})
        if section in ("scenario", "run"):
            kwargs.update(_read(ScenarioSpec, section, keys, table))
        else:
            cls = _SPEC_HINTS[section]
            kwargs[section] = cls(**_read(cls, section, keys, table))
    return ScenarioSpec(**kwargs)


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
