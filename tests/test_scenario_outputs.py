"""Every scenario kind's artifacts, pinned through the CLI.

Eleven small specs cover each kind and mode once, plus the analytic scaling
kind's second table layout (one strategy instead of the Jarvis/Best-OP
pair).  Each runs through ``python -m repro.scenarios`` exactly as a user
would, and ``tests/data/scenario_outputs_golden.json`` pins the
``BENCH_<name>.json`` it writes (name, table and payload) plus a digest of
its ``REPORT_<name>.html`` (chart series, axis label, headline numbers).
The two timing kinds, ``record_modes`` and ``parallel``, pin only their
payload, with wall times and speedups removed.

Regenerate after a change that is meant to move an output with
``PYTHONPATH=src python tests/test_scenario_outputs.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.scenarios import loader as scenario_loader
from repro.scenarios.cli import main as scenario_cli

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "scenario_outputs_golden.json"

#: Kinds whose table and report carry wall-clock numbers.
TIMING_KINDS = ("record_modes", "parallel")

_SMALL_RUN = {"epochs": 8, "warmup_epochs": 2}

SPECS: Dict[str, Dict[str, Any]] = {
    "scaling_analytic": {
        "scenario": {"kind": "scaling", "mode": "analytic"},
        "run": {**_SMALL_RUN, "max_sources_limit": 32},
        "workload": {"records_per_epoch": 120},
        "fleet": {"budget": 0.55},
        "sweep": {"sources": [1, 4], "strategies": ["Jarvis", "Best-OP"]},
    },
    "scaling_analytic_one_strategy": {
        "scenario": {"kind": "scaling", "mode": "analytic"},
        "run": {**_SMALL_RUN, "max_sources_limit": 24},
        "workload": {"records_per_epoch": 120, "rate_scale": 0.5},
        "fleet": {"budget": 0.3},
        "sweep": {"sources": [2, 8], "strategies": ["Jarvis"]},
    },
    "scaling_simulated": {
        "scenario": {"kind": "scaling", "mode": "simulated"},
        "run": _SMALL_RUN,
        "workload": {"records_per_epoch": 120},
        "fleet": {"budget": [[0, 0.55], [4, 0.3]]},
        "sweep": {"sources": [1, 3], "strategies": ["Best-OP", "Jarvis"]},
    },
    "scaling_comparison": {
        "scenario": {"kind": "scaling", "mode": "comparison"},
        "run": {**_SMALL_RUN, "record_mode": "object"},
        "workload": {"records_per_epoch": 120},
        "fleet": {"budget": 0.55},
        "sweep": {"sources": [1, 2], "strategies": ["Jarvis"]},
    },
    "sharded": {
        "scenario": {"kind": "sharded"},
        "run": _SMALL_RUN,
        "workload": {"records_per_epoch": 120},
        "fleet": {"sources": 5, "budget": 0.55},
        "tiling": {"placement": "byte_rate_balanced"},
        "sweep": {"blocks": [1, 2], "strategies": ["Jarvis"]},
    },
    "dynamic_replacement": {
        "scenario": {"kind": "dynamic_replacement"},
        "run": {"epochs": 16},
        "workload": {"records_per_epoch": 150, "hotspot": {"shift_epoch": 4}},
        "fleet": {"sources": 8, "budget": 1.0, "strategy": "All-SP"},
        "tiling": {"blocks": 2},
    },
    "colocated_analytic": {
        "scenario": {"kind": "colocated", "mode": "analytic"},
        "run": _SMALL_RUN,
        "workload": {"records_per_epoch": 100},
        "fleet": {"cores": 1},
        "sweep": {"queries": [1, 2]},
    },
    "colocated_simulated": {
        "scenario": {"kind": "colocated", "mode": "simulated"},
        "run": _SMALL_RUN,
        "workload": {"records_per_epoch": 100, "rate_scale": 0.5},
        "fleet": {"cores": 2},
        "sweep": {"queries": [1, 3]},
    },
    "colocated_comparison": {
        "scenario": {"kind": "colocated", "mode": "comparison"},
        "run": _SMALL_RUN,
        "workload": {"records_per_epoch": 100},
        "fleet": {"cores": 1},
        "sweep": {"queries": [1, 2]},
    },
    "record_modes": {
        "scenario": {"kind": "record_modes"},
        "run": _SMALL_RUN,
        "workload": {"records_per_epoch": 120},
        "fleet": {"sources": 3, "budget": 0.55},
        "sweep": {"strategies": ["Jarvis"]},
    },
    "parallel": {
        "scenario": {"kind": "parallel"},
        "run": {"epochs": 6, "warmup_epochs": 1},
        "workload": {"records_per_epoch": 100},
        "fleet": {"sources": 4, "budget": 0.55},
        "tiling": {"blocks": 2, "workers": 2},
    },
}


def _toml_lines(section: str, table: Dict[str, Any]) -> List[str]:
    """One TOML table; JSON scalars and arrays are valid TOML values."""
    lines = [f"[{section}]"]
    nested = []
    for key, value in table.items():
        if isinstance(value, dict):
            nested.append((f"{section}.{key}", value))
        else:
            lines.append(f"{key} = {json.dumps(value)}")
    for name, value in nested:
        lines += _toml_lines(name, value)
    return lines


def _scrub_timing(value: Any) -> Any:
    """``value`` without the keys a wall clock decides."""
    if isinstance(value, dict):
        return {
            key: _scrub_timing(item)
            for key, item in value.items()
            if not (key.endswith("_wall_s") or key in ("speedup", "speedups"))
        }
    return value


def run_through_cli(case: str, tmp_path: Path) -> Dict[str, Any]:
    """Run one case via the CLI; return the artifacts the golden pins."""
    spec = SPECS[case]
    data = {**spec, "scenario": {"name": case, **spec["scenario"]}}
    config = tmp_path / f"{case}.toml"
    lines: List[str] = []
    for section, table in data.items():
        lines += _toml_lines(section, table)
    config.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert scenario_cli([str(config), "--out", str(out)]) == 0
    bench = json.loads((out / f"BENCH_{case}.json").read_text())
    if spec["scenario"]["kind"] in TIMING_KINDS:
        del bench["table"]
        return {"bench": _scrub_timing(bench)}
    report = (out / f"REPORT_{case}.html").read_bytes()
    return {"bench": bench, "report_sha256": hashlib.sha256(report).hexdigest()}


def _canonical(value: Any) -> str:
    # Compared as text: a NaN in a payload equals itself only that way.
    return json.dumps(value, indent=1, sort_keys=True)


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.skipif(
    scenario_loader.tomllib is None, reason="tomllib needs Python >= 3.11"
)
@pytest.mark.parametrize("case", sorted(SPECS))
def test_outputs_match_golden(case: str, golden: Dict[str, Any], tmp_path: Path) -> None:
    assert _canonical(run_through_cli(case, tmp_path)) == _canonical(golden[case])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        outputs = {case: run_through_cli(case, Path(scratch)) for case in sorted(SPECS)}
    GOLDEN_PATH.write_text(_canonical(outputs) + "\n")
    print(f"wrote {GOLDEN_PATH}")
