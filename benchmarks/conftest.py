"""Shared configuration for the benchmark harness.

Each benchmark regenerates one of the paper's figures (or an inline claim)
and writes the resulting rows/series both to stdout and to a text file under
``benchmarks/output/``, so one ``pytest benchmarks/bench_*.py
--benchmark-disable`` run refreshes every figure's table.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

OUTPUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output")

#: Scenario configs the benchmark shims execute (one TOML per figure).
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_result(name: str, content: str, data: dict | None = None) -> None:
    """Persist a benchmark's formatted result table.

    Every result also lands as machine-readable JSON
    (``BENCH_<name>.json``): the rendered table always, plus any structured
    ``data`` the benchmark provides — so CI artifacts carry a queryable
    record of each run.
    """
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content.rstrip() + "\n")
    sys.stdout.write(f"\n===== {name} =====\n{content}\n")
    payload = {"table": content.rstrip()}
    if data:
        payload.update(data)
    write_json_result(name, payload)


def _jsonable(value):
    """Best-effort conversion of benchmark payloads to JSON-safe values."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else str(value)
    return str(value)


def write_json_result(name: str, payload: dict) -> str:
    """Persist a benchmark's machine-readable results.

    Writes ``benchmarks/output/BENCH_<name>.json`` with the given payload
    plus a wall-clock timestamp; CI uploads the directory as an artifact, so
    every run seeds one point of the performance trajectory.
    """
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    document = {"benchmark": name, "generated_unix_s": time.time()}
    document.update(_jsonable(payload))
    path = os.path.join(OUTPUT_DIR, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
