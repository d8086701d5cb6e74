"""Smoke test of the perf benchmark at toy size (8 sources, 4 epochs).

Covers every workload with and without tracing, the serial reference,
failure accounting against a corrupted reference, and shm hygiene.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from benchmarks.perf import run, trace
from benchmarks.perf import workloads as wl


def _segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("repro_par_")}


@pytest.fixture(scope="module")
def toy_reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("perf") / "reference.json"
    run.write_reference([1], path, toy=True)
    return path


def _cli(*args):
    result = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--toy", "--seed", "1", *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_serial_and_parallel_digests_agree(name, toy_reference):
    before = _segments()
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in trace._targets()}
    spec = wl.resolve(name, toy=True)
    untraced = wl.run_repeat(spec, 1)
    traced = wl.run_repeat(spec, 1, traced=True)
    serial = wl.run_repeat(spec, 1, serial=True)

    assert untraced["problems"] == traced["problems"] == serial["problems"] == []
    assert untraced["digests"] == traced["digests"] == serial["digests"]
    expected = run.reference_digests(run.load_reference(toy_reference), spec, 1)
    assert expected == untraced["digests"]
    assert trace._ACTIVE is None
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in originals.items())

    layers = run.layer_metrics(traced, run.stepping_s(untraced))
    assert all(key in layers for key in run.RESULT_LAYERS)
    if spec.parallel:
        assert layers["parallel.worker_busy_max_s"][0] > 0
    assert 0.95 <= layers["trace.coverage"][0] <= 1.0
    assert _segments() <= before


def test_corrupted_reference_fails_every_operation(toy_reference, tmp_path):
    reference = run.load_reference(toy_reference)
    for entry in reference["seeds"]["1"].values():
        entry["digests"] = "0" * len(entry["digests"])
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(reference))

    spec = wl.resolve("source_fold", toy=True)
    record = wl.run_repeat(spec, 1)
    expected = run.reference_digests(reference, spec, 1)
    assert run.count_failures(spec, [record], expected) == [spec.epochs]

    result = _cli("--workload", "tiled_fleet", "--repeats", "1",
                  "--reference", str(corrupted))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_cli_prints_every_metric_with_its_unit(toy_reference):
    before = _segments()
    result = _cli("--repeats", "1", "--reference", str(toy_reference))
    assert result["correct"] is True and result["failed"] == 0
    for name in wl.WORKLOADS:
        for metric, unit in run.END_TO_END_UNITS.items():
            assert result["metrics"][f"{name}.{metric}"]["unit"] == unit

    traced = _cli("--workload", "hotspot_migration", "--trace", "1",
                  "--reference", str(toy_reference))
    assert traced["correct"] is True
    assert set(traced["metrics"]) == set(run.RESULT_LAYERS)
    assert _segments() <= before
