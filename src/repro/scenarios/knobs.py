"""Deprecated env-var aliases for scenario overrides.

Benchmarks were historically tuned through 16 ad-hoc environment knobs
(``FIG10_*`` / ``FIG11_*`` / ``RECMODE_*``).  Scenario configs replaced them
with ``--set section.key=value`` overrides; this module keeps the old env
vars working as *deprecated aliases* that translate into override strings,
emitting a :class:`DeprecationWarning` per variable so CI logs surface the
migration.

This is deliberately the only module in the tree that reads the process
environment — simlint rule SL009 bans ``os.environ`` / ``os.getenv``
everywhere else so knob sprawl cannot regrow.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, List, Mapping, Optional

#: fig10 simulated-vs-analytic scaling (configs/fig10_sim_vs_analytic.toml).
FIG10_SCALING_ALIASES: Dict[str, str] = {
    "FIG10_SOURCES": "sweep.sources",
    "FIG10_EPOCHS": "run.epochs",
    "FIG10_RECORDS": "workload.records_per_epoch",
    "FIG10_RECORD_MODE": "run.record_mode",
}

#: fig10 sharded tiling sweep (configs/fig10_sharded_scaling.toml).
FIG10_SHARDED_ALIASES: Dict[str, str] = {
    "FIG10_BLOCKS": "sweep.blocks",
    "FIG10_FLEET": "fleet.sources",
    "FIG10_EPOCHS": "run.epochs",
    "FIG10_RECORDS": "workload.records_per_epoch",
    "FIG10_RECORD_MODE": "run.record_mode",
}

#: fig10 dynamic re-placement (configs/fig10_dynamic_replacement.toml).
FIG10_MIGRATION_ALIASES: Dict[str, str] = {
    "FIG10_MIGRATION": "scenario.enabled",
    "FIG10_MIGRATION_FLEET": "fleet.sources",
    "FIG10_MIGRATION_EPOCHS": "run.epochs",
    "FIG10_MIGRATION_SHIFT": "workload.hotspot.shift_epoch",
    "FIG10_RECORDS": "workload.records_per_epoch",
    "FIG10_RECORD_MODE": "run.record_mode",
}

#: fig11 co-located multi-query sweep (configs/fig11_colocated.toml).
FIG11_COLOCATED_ALIASES: Dict[str, str] = {
    "FIG11_QUERIES": "sweep.queries",
    "FIG11_MODE": "scenario.mode",
    "FIG11_RECORD_MODE": "run.record_mode",
    "FIG11_EPOCHS": "run.epochs",
    "FIG11_RECORDS": "workload.records_per_epoch",
}

#: object-vs-arena record mode timing (configs/record_modes.toml).
RECMODE_ALIASES: Dict[str, str] = {
    "RECMODE_SOURCES": "fleet.sources",
    "RECMODE_RECORDS": "workload.records_per_epoch",
    "RECMODE_EPOCHS": "run.epochs",
    "RECMODE_MIN_SPEEDUP": "run.min_speedup",
}

#: Legacy boolean env spellings: the old knobs treated anything outside
#: ("0", "false", "no") as enabled.
_FALSY = ("0", "false", "no")

#: Alias targets that are booleans, so legacy spellings like ``FIG10_MIGRATION=off``
#: normalize to something the loader's boolean coercion accepts.
_BOOLEAN_PATHS = ("scenario.enabled",)


def deprecated_env_overrides(
    aliases: Mapping[str, str],
    env: "Optional[Mapping[str, str]]" = None,
) -> List[str]:
    """Override strings for every deprecated env var set in ``env``.

    Each hit emits a :class:`DeprecationWarning` naming the replacement
    ``--set`` spelling.  ``env`` defaults to the process environment; tests
    pass an explicit mapping.
    """
    if env is None:
        env = os.environ
    overrides: List[str] = []
    for var in sorted(aliases):
        if var not in env:
            continue
        path = aliases[var]
        value = env[var].strip()
        if path in _BOOLEAN_PATHS:
            value = "false" if value.lower() in _FALSY else "true"
        warnings.warn(
            f"{var} is deprecated; use --set {path}={value} "
            f"(or edit the scenario config) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        overrides.append(f"{path}={value}")
    return overrides
