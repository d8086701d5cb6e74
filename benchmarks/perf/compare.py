"""Compare benchmark runs: ``python -m benchmarks.perf compare BASE OTHER [...]``.

Each argument is one invocation's ``--out`` JSON file or a directory of them
(e.g. ``benchmarks/perf/baseline``).  For every further argument against the
first, and for every workload and end-to-end metric, it prints both sides'
medians and quartiles, the ratio of medians, the regression bound from
``BENCHMARK.json``, and how many (base, other) pairs the other side won.

Verdicts follow the benchmark's rules: ``regression`` when the other median
is worse than the base by more than the bound; ``unresolved`` when either
side's quartile spread exceeds the bound, unless every other run beats every
base run; ``improved`` when the other side wins at least nine tenths of the
pairs and the medians differ by more than the base's quartile distance;
otherwise ``no change``.  Exits 1 when any pairing regressed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(argument: str) -> List[dict]:
    """The untraced invocations in a file or directory (traced ones measure
    their end-to-end numbers from a single repeat, so they are skipped)."""
    path = Path(argument)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(file.read_text()) for file in files]
    return [run for run in runs if not run.get("trace")]


def _values(runs: Sequence[dict], workload: str, metric: str) -> List[float]:
    values = []
    for run in runs:
        entry = run.get("workloads", {}).get(workload, {})
        if metric in entry.get("metrics", {}):
            values.append(entry["metrics"][metric]["value"])
    return values


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(base: Sequence[float], other: Sequence[float], better: str, bound: float):
    """``(verdict, ratio, wins, pairs)`` for one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    b_low, b_mid, b_high = _quartiles(base)
    o_low, o_mid, o_high = _quartiles(other)
    pairs = list(zip(base, other))
    wins = sum(1 for b, o in pairs if sign * (o - b) > 0)
    worse_by = sign * (b_mid - o_mid) / b_mid
    if max((b_high - b_low) / b_mid, (o_high - o_low) / o_mid) > bound:
        every = min(sign * o for o in other) > max(sign * b for b in base)
        label = "improved" if every else "unresolved"
    elif worse_by > bound:
        label = "regression"
    elif pairs and wins >= 0.9 * len(pairs) and abs(o_mid - b_mid) > b_high - b_low:
        label = "improved"
    else:
        label = "no change"
    return label, o_mid / b_mid, wins, len(pairs)


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2:
        print("usage: python -m benchmarks.perf compare BASE OTHER [OTHER ...]")
        return 2
    metrics: Dict[str, dict] = {
        entry["name"]: entry
        for entry in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    }
    base_runs = load_runs(argv[0])
    regressed = False
    for other_arg in argv[1:]:
        other_runs = load_runs(other_arg)
        print(f"== {other_arg} ({len(other_runs)} runs) against {argv[0]} "
              f"({len(base_runs)} runs) ==")
        workloads = sorted(
            {name for run in base_runs + other_runs for name in run.get("workloads", {})}
        )
        for workload in workloads:
            for name, entry in metrics.items():
                base = _values(base_runs, workload, name)
                other = _values(other_runs, workload, name)
                if not base or not other:
                    continue
                label, ratio, wins, pairs = verdict(
                    base, other, entry["better"], entry["bound"]
                )
                regressed |= label == "regression"
                b_low, b_mid, b_high = _quartiles(base)
                o_low, o_mid, o_high = _quartiles(other)
                print(
                    f"  {workload:18s} {name:20s} {entry['unit']:>4s}  "
                    f"base {b_mid:11.4f} [{b_low:.4f}, {b_high:.4f}]  "
                    f"other {o_mid:11.4f} [{o_low:.4f}, {o_high:.4f}]  "
                    f"ratio {ratio:6.3f} (bound {entry['bound']:.2f}, "
                    f"{entry['better']} is better)  wins {wins}/{pairs}  {label}"
                )
    return 1 if regressed else 0
