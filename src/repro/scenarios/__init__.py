"""Declarative scenario harness: specs, loader and runner.

This package owns everything between "a figure-style experiment described as
data" and "metrics out of the simulators".  Config → :class:`ScenarioRunner`
is the one way to run a cluster experiment:

* :mod:`~repro.scenarios.spec` — frozen, validated dataclasses describing a
  scenario (workload, fleet, tiling, sweep axes, run knobs); they are the
  only declaration of the config schema;
* :mod:`~repro.scenarios.loader` — TOML/dict loading whose sections, keys,
  types and required keys are read off the spec fields, with strict
  unknown-key checking and ``--set section.key=value`` overrides;
* :mod:`~repro.scenarios.setups` — query setups, strategy factories, and
  fleet construction shared by every run;
* :mod:`~repro.scenarios.runner` — the run primitives plus the
  :class:`~repro.scenarios.runner.ScenarioRunner`, which hands a spec to
  the one function of its kind; that function expands the sweep into runs
  and builds the table, series, report data and ``BENCH`` payload;
* :mod:`~repro.scenarios.cli` — ``python -m repro.scenarios CONFIG --set
  ...``, the command-line face of the same path.

Every knob arrives through a config file or an override list; nothing here
reads the process environment (simlint SL009 bans it tree-wide).

Layering rule (checked by the import graph, not convention): nothing in this
package imports :mod:`repro.analysis` at module scope — analysis sits *above*
the harness and re-exports its setup layer.
"""

from .loader import apply_overrides, load_scenario, parse_override, spec_from_dict
from .runner import ScenarioResult, ScenarioRunner
from .spec import (
    FleetSpec,
    HotspotSpec,
    ScenarioSpec,
    SweepSpec,
    TilingSpec,
    WorkloadSpec,
)

__all__ = [
    "FleetSpec",
    "HotspotSpec",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "SweepSpec",
    "TilingSpec",
    "WorkloadSpec",
    "apply_overrides",
    "load_scenario",
    "parse_override",
    "spec_from_dict",
]
