"""Command-line driver: repeats in fresh subprocesses, checks, summaries.

Usage (from the repository root)::

    python -m benchmarks.perf --workload source_fold --seed 1 --seconds 20 --trace 0
    python -m benchmarks.perf --seed 1 --repeats 3 --out out/      # all workloads
    python -m benchmarks.perf --seed 1 --trace                     # per-layer run
    python -m benchmarks.perf --write-reference --seeds 0-10
    python -m benchmarks.perf compare A.json B.json

Each (workload, repeat) runs in a fresh ``python -m benchmarks.perf
_repeat`` subprocess, workloads interleaved round by round.  A repeat that
outlives its deadline is killed together with its worker processes and its
operations count as failed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics untraced, per-layer metrics with ``--trace``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from . import workloads as wl

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parents[1]
REFERENCE_PATH = PACKAGE_DIR / "reference.json"

#: Repeats per workload unless --repeats says otherwise; more run while the
#: --seconds budget has room for another round.
MIN_REPEATS = 3
MAX_REPEATS = 8
#: The whole invocation ends within this many seconds, hung repeats included.
HARD_BUDGET_S = 170.0
CHILD_TIMEOUT_S = 110.0

END_TO_END_UNITS = {
    "source_epochs_per_s": "1/s",
    "epoch_ms_p50": "ms",
    "epoch_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer timings: (layer, field) from the trace.
LAYER_FIELDS = {
    "scenarios.make_setup_s": ("scenarios.make_setup", "busy_s"),
    "scenarios.fleet_s": ("scenarios.fleet", "busy_s"),
    "workloads.fill_s": ("workloads.fill", "busy_s"),
    "workloads.batch_s": ("workloads.batch", "busy_s"),
    "query.source_ops_s": ("query.source_op", "busy_s"),
    "query.sp_ops_s": ("query.sp_op", "busy_s"),
    "query.window_flush_s": ("query.window_flush", "busy_s"),
    "core.strategy_s": ("core.strategy", "busy_s"),
    "pipeline.source_self_s": ("pipeline.source", "self_s"),
    "pipeline.sp_self_s": ("pipeline.sp", "self_s"),
    "engine.step_self_s": ("engine.step", "self_s"),
    "engine.finish_s": ("engine.finish", "busy_s"),
    "multisource.epoch_self_s": ("multisource.epoch", "self_s"),
    "network.fair_share_s": ("network.fair_share", "busy_s"),
    "network.fifo_plan_s": ("network.fifo_plan", "busy_s"),
    "network.transmit_s": ("network.transmit", "busy_s"),
    "sharding.decide_s": ("sharding.decide", "busy_s"),
    "parallel.start_s": ("parallel.start", "self_s"),
    "parallel.migrate_s": ("parallel.migrate", "busy_s"),
    "metrics.merge_s": ("metrics.merge", "busy_s"),
}
#: The per-layer metrics on the result line: the layers every workload
#: enters, so each is a measured, non-zero time.  Workload-specific layers
#: (parallel.*, sharding.*, ...), counts and trace coverage are printed and
#: written to --out only.
RESULT_LAYERS = (
    "scenarios.make_setup_s",
    "scenarios.fleet_s",
    "workloads.fill_s",
    "query.sp_ops_s",
    "query.window_flush_s",
    "core.strategy_s",
    "pipeline.source_self_s",
    "pipeline.sp_self_s",
    "engine.step_self_s",
    "engine.finish_s",
    "multisource.epoch_self_s",
    "network.fair_share_s",
    "network.fifo_plan_s",
    "network.transmit_s",
    "trace.overhead",
)


# ---------------------------------------------------------------------------
# Subprocess repeats.
# ---------------------------------------------------------------------------


def _child_main(task_json: str) -> int:
    task = json.loads(task_json)
    spec = wl.resolve(task["workload"], toy=task.get("toy", False))
    record = wl.run_repeat(spec, int(task["seed"]), traced=bool(task.get("traced")))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


def _reap_segments(pid: int) -> int:
    """Unlink the shm segments a killed repeat left behind; returns the count.

    ``ParallelBlockController`` names its segments ``repro_par_<pid>_<n>``
    after the creating process, so a killed repeat's leftovers are exactly
    the names with its pid.
    """
    prefix = f"repro_par_{pid}_"
    left = [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]
    for name in left:
        os.unlink(os.path.join("/dev/shm", name))
    return len(left)


def run_child(task: Dict[str, object], timeout_s: float) -> Optional[Dict[str, object]]:
    """One repeat in a fresh process; None if it failed, timed out or crashed."""
    command = [sys.executable, "-m", "benchmarks.perf", "_repeat", json.dumps(task)]
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        leaked = _reap_segments(proc.pid)
        print(f"  {task['workload']}: repeat killed after {timeout_s:.0f} s "
              f"({leaked} shm segment(s) reaped)")
        return None
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        print(f"  {task['workload']}: repeat failed (exit {proc.returncode}): {tail[0]}")
        return None
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Reference and correctness.
# ---------------------------------------------------------------------------


def load_reference(path: Path) -> Dict[str, object]:
    if not path.exists():
        return {"specs": {}, "seeds": {}}
    return json.loads(path.read_text())


def reference_digests(
    reference: Dict[str, object], spec: wl.WorkloadSpec, seed: int
) -> Optional[List[str]]:
    """The serial reference's digests for this seed, if the spec still matches."""
    if reference.get("specs", {}).get(spec.name) != wl.spec_fingerprint(spec):
        return None
    entry = reference.get("seeds", {}).get(str(seed), {}).get(spec.name)
    if entry is None:
        return None
    joined = entry["digests"]
    return [joined[i : i + 8] for i in range(0, len(joined), 8)]


def count_failures(
    spec: wl.WorkloadSpec,
    records: Sequence[Optional[Dict[str, object]]],
    expected: Optional[List[str]],
) -> List[int]:
    """Failed operations per repeat.

    An operation is one fleet epoch (stepped workloads) or one source's
    timeline (whole-run workload).  It fails when its repeat crashed or timed
    out, when its repeat broke a run-level check (conservation, leaked shm,
    stationarity), or when its digest differs from the serial reference —
    or, for a seed without a reference, from the first good repeat.
    """
    ops = spec.sources if spec.whole_run else spec.epochs
    if expected is None:
        expected = next(
            (r["digests"] for r in records if r is not None and not r["problems"]),
            None,
        )
    failed = []
    for record in records:
        if record is None or record["problems"] or expected is None:
            failed.append(ops)
            continue
        digests = record["digests"]
        mismatched = sum(
            1 for index in range(ops)
            if index >= len(digests) or index >= len(expected)
            or digests[index] != expected[index]
        )
        failed.append(mismatched)
    return failed


# ---------------------------------------------------------------------------
# Summaries.
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= fraction <= 1)."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def _epochs(record, normalized: bool = True) -> List[float]:
    """A repeat's epoch times, scaled by their host-speed factors."""
    if not normalized:
        return list(record["epoch_s"])
    return [s * f for s, f in zip(record["epoch_s"], record["epoch_factor"])]


def stepping_s(record, normalized: bool = True) -> float:
    """A repeat's stepping time (whole-run: the run() time)."""
    return record["stepping_s"] * sum(_epochs(record, normalized)) / sum(record["epoch_s"])


def end_to_end(records: Sequence[Dict[str, object]], normalized: bool = True) -> Dict[str, float]:
    """End-to-end metrics over a workload's good repeats.

    Rates, set-up time and memory are medians over repeats; the epoch-time
    percentiles pool every epoch of every repeat (on the whole-run workload
    each repeat contributes its mean epoch time, the only per-epoch figure
    observable around ``run()``).  ``normalized`` scales every time by the
    host-speed factor measured beside it (see :mod:`.hostspeed`).
    """
    samples_ms = [s * 1000 for r in records for s in _epochs(r, normalized)]
    return {
        "source_epochs_per_s": median(
            [r["source_epochs"] / stepping_s(r, normalized) for r in records]
        ),
        "epoch_ms_p50": percentile(samples_ms, 0.50),
        "epoch_ms_p95": percentile(samples_ms, 0.95),
        "setup_s": median(
            [r["setup_s"] * (r["setup_factor"] if normalized else 1.0) for r in records]
        ),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in records]),
    }


def layer_metrics(traced: Dict[str, object], untraced_stepping_s: Optional[float]):
    """Per-layer metrics (name -> (value, unit)) from one traced repeat."""
    summary = traced["trace"]
    layers = summary["layers"]
    out: Dict[str, tuple] = {}
    for name, (layer, field) in LAYER_FIELDS.items():
        # A layer the workload never enters is absent, not zero — except the
        # result-line layers, which every full-size workload enters.
        if layer in layers or name in RESULT_LAYERS:
            out[name] = (layers.get(layer, {}).get(field, 0.0), "s")
    busy = summary["worker_busy_s"]
    if busy:
        busiest = max(busy)
        out["parallel.wait_s"] = (summary["wait_s"], "s")
        out["parallel.worker_busy_max_s"] = (busiest, "s")
        out["parallel.sync_s"] = (summary["wait_s"] - busiest, "s")
        out["parallel.imbalance"] = (busiest / (sum(busy) / len(busy)), "ratio")
    counts = traced["counts"]
    out["sharding.migrations"] = (counts["migrations"], "count")
    out["multisource.offered_mb"] = (counts["offered_mb"], "MB")
    out["multisource.sent_mb"] = (counts["sent_mb"], "MB")
    out["multisource.link_util"] = (counts["link_util"], "ratio")
    out["multisource.carryover_mb_end"] = (counts["carryover_mb_end"], "MB")
    out["multisource.sp_backlog_end"] = (counts["sp_backlog_end"], "count")
    out["trace.coverage"] = (summary["main_self_s"] / summary["wall_s"], "ratio")
    if untraced_stepping_s:
        out["trace.overhead"] = (stepping_s(traced) / untraced_stepping_s, "ratio")
    return out


def _layer_table(traced: Dict[str, object]) -> List[str]:
    summary = traced["trace"]
    layers = summary["layers"]
    total_self = sum(entry["self_s"] for entry in layers.values())
    lines = [f"    {'layer':24s} {'busy s':>9s} {'self s':>9s} {'self %':>7s} {'calls':>9s}"]
    for layer, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"    {layer:24s} {entry['busy_s']:9.3f} {entry['self_s']:9.3f} "
            f"{100 * entry['self_s'] / total_self:6.1f}% {int(entry['calls']):9d}"
        )
    lines.append(
        f"    main-process self times sum to {summary['main_self_s']:.3f} s of "
        f"{summary['wall_s']:.3f} s traced wall; {summary['spans']} spans"
    )
    return lines


# ---------------------------------------------------------------------------
# Invocation.
# ---------------------------------------------------------------------------


def fingerprint() -> Dict[str, object]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def _run_invocation(args) -> int:
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    specs = [wl.resolve(name, toy=args.toy) for name in names]
    reference = load_reference(Path(args.reference))
    started = perf_counter()
    untraced: Dict[str, List[Optional[dict]]] = {spec.name: [] for spec in specs}
    traced: Dict[str, List[Optional[dict]]] = {spec.name: [] for spec in specs}

    def remaining() -> float:
        return HARD_BUDGET_S - (perf_counter() - started)

    def repeat(spec: wl.WorkloadSpec, is_traced: bool) -> bool:
        budget = min(CHILD_TIMEOUT_S, remaining() - 5.0)
        if budget < 5.0:
            return False
        task = {"workload": spec.name, "seed": args.seed, "traced": is_traced,
                "toy": args.toy}
        (traced if is_traced else untraced)[spec.name].append(run_child(task, budget))
        return True

    if args.trace:
        # One untraced repeat to measure the overhead against, one traced.
        for spec in specs:
            repeat(spec, False)
            repeat(spec, True)
    else:
        rounds = 0
        while all(repeat(spec, False) for spec in specs):
            rounds += 1
            elapsed = perf_counter() - started
            if args.repeats is not None:
                if rounds >= args.repeats:
                    break
            elif rounds >= MAX_REPEATS or (
                rounds >= MIN_REPEATS and elapsed + elapsed / rounds > args.seconds
            ):
                break

    correct = True
    attempted = failed = 0
    result_metrics: Dict[str, Dict[str, object]] = {}
    document = {"seed": args.seed, "trace": bool(args.trace), "toy": args.toy,
                "seconds": args.seconds, "workloads": {}}
    for spec in specs:
        records = untraced[spec.name] + traced[spec.name]
        if not records:
            print(f"{spec.name}: no repeat could run within the time budget")
            return 2
        expected = reference_digests(reference, spec, args.seed)
        per_repeat_failed = count_failures(spec, records, expected)
        ops = spec.sources if spec.whole_run else spec.epochs
        attempted += ops * len(records)
        failed += sum(per_repeat_failed)
        good = [r for r in untraced[spec.name] if r is not None]
        status = "verified against the serial reference" if expected else "unverified"
        print(f"== {spec.name}  seed {args.seed}  {len(records)} repeat(s)  "
              f"{status} ==")
        for record in records:
            for problem in (record or {}).get("problems", []):
                print(f"  check failed: {problem}")
        print(f"  failed operations {sum(per_repeat_failed)} of {ops * len(records)}")
        entry: Dict[str, object] = {
            "attempted": ops * len(records),
            "failed": sum(per_repeat_failed),
            "reference": "verified" if expected else "unverified",
            "repeats": [_compact(r) for r in records],
        }
        if good:
            display = good[0]["display"]
            print(f"  simulated: goodput {display['goodput_mbps']:.3f} Mbps, "
                  f"latency p50 {display['latency_ms_p50']:.3f} ms, "
                  f"migrations {display['migrations']}")
            values = end_to_end(good)
            raw = end_to_end(good, normalized=False)
            entry["metrics"] = {
                name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in values.items()
            }
            entry["raw_metrics"] = raw
            samples = sum(len(r["epoch_s"]) for r in good)
            print(f"  {'metric':22s} {'normalized':>14s} {'raw':>14s}")
            for name, value in values.items():
                print(f"  {name:22s} {value:14.4f} {raw[name]:14.4f} "
                      f"{END_TO_END_UNITS[name]}")
            host = median([f for r in good for f in r["epoch_factor"]])
            print(f"  ({samples} epoch-time samples, {len(good)} untraced repeat(s), "
                  f"host-speed factor {host:.3f})")
        traced_good = [r for r in traced[spec.name] if r is not None]
        if traced_good:
            base = median([stepping_s(r) for r in good]) if good else None
            layers = layer_metrics(traced_good[0], base)
            entry["trace_metrics"] = {
                name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()
            }
            print("  per-layer (traced repeat):")
            for line in _layer_table(traced_good[0]):
                print(line)
            for name, (value, unit) in layers.items():
                print(f"  {name:30s} {value:14.6f} {unit}")
        if sum(per_repeat_failed) or not good or (args.trace and not traced_good):
            correct = False
        wanted = entry.get("trace_metrics" if args.trace else "metrics", {})
        keys = RESULT_LAYERS if args.trace else END_TO_END_UNITS
        missing = [key for key in keys if key not in wanted]
        if missing:
            print(f"  missing metrics: {', '.join(missing)}")
            return 2
        for key in keys:
            label = key if args.workload else f"{spec.name}.{key}"
            result_metrics[label] = wanted[key]
        document["workloads"][spec.name] = entry

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        document["fingerprint"] = fingerprint()
        label = args.workload or "all"
        suffix = "-trace" if args.trace else ""
        path = out_dir / f"{label}-seed{args.seed}{suffix}.json"
        index = 1
        while path.exists():
            index += 1
            path = out_dir / f"{label}-seed{args.seed}{suffix}-{index}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


def _compact(record: Optional[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """A repeat record without its digests (they live in the reference)."""
    if record is None:
        return None
    return {key: value for key, value in record.items() if key != "digests"}


def write_reference(seeds: Sequence[int], path: Path, toy: bool = False) -> None:
    """Record serial-path digests for ``seeds`` into ``path`` (merging)."""
    reference = load_reference(path)
    for name in wl.WORKLOADS:
        spec = wl.resolve(name, toy=toy)
        if reference["specs"].get(name) != wl.spec_fingerprint(spec):
            reference["specs"][name] = wl.spec_fingerprint(spec)
            for entry in reference["seeds"].values():
                entry.pop(name, None)
    for seed in seeds:
        for name in wl.WORKLOADS:
            spec = wl.resolve(name, toy=toy)
            start = perf_counter()
            record = wl.run_repeat(spec, seed, serial=True)
            if record["problems"]:
                raise SystemExit(f"{name} seed {seed}: {record['problems']}")
            reference["seeds"].setdefault(str(seed), {})[name] = {
                "digests": "".join(record["digests"]),
                "display": record["display"],
            }
            print(f"{name} seed {seed}: {perf_counter() - start:.1f} s")
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def _seed_list(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["_repeat"]:
        return _child_main(argv[1])
    if argv[:1] == ["compare"]:
        from .compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement budget; more repeats run while it has room")
    parser.add_argument("--repeats", type=int, help="exact repeat count")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="directory for the invocation's JSON record")
    parser.add_argument("--reference", default=str(REFERENCE_PATH))
    parser.add_argument("--toy", action="store_true",
                        help="smoke-test size: 8 sources, 4 epochs")
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--seeds", default="1-3", help="seeds for --write-reference")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference(_seed_list(args.seeds), Path(args.reference), toy=args.toy)
        return 0
    return _run_invocation(args)
