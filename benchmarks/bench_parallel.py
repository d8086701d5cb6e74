"""Worker-pool block stepping vs serial lockstep at fleet scale.

A thin assertion shim over ``configs/parallel_gate.toml`` (see
``benchmarks/bench_record_modes.py`` for the pattern): 1024 sources tiled
across 64 blocks, stepped once by the serial
:class:`~repro.simulation.sharding.ShardedClusterExecutor` and once by a
4-worker :class:`~repro.simulation.parallel.ParallelBlockController` over
shared-memory arenas.

Two contracts, gated separately:

* **Identity, always.**  The parallel run must be bit-identical to the
  serial reference per epoch per source — the worker pool is an execution
  substrate, never a model change.  This assertion runs on every host.
* **Speed, where measurable.**  With ``run.parallel_min_speedup > 0`` the
  parallel run must beat serial by that factor (the CI gate is 2.5x at 4
  workers).  The assertion is skipped when the host has fewer CPUs than
  ``tiling.workers`` — four workers timesliced onto one core measure the
  scheduler, not the controller.
"""

from __future__ import annotations

import os

from repro.scenarios import ScenarioRunner, load_scenario

from .conftest import CONFIG_DIR, write_result


def test_parallel_gate_speedup_and_identity(benchmark):
    spec = load_scenario(CONFIG_DIR / "parallel_gate.toml")
    result = benchmark.pedantic(
        ScenarioRunner().run, args=(spec,), rounds=1, iterations=1
    )
    write_result("parallel_gate", result.table, data=result.payload)

    # Bit-identity is unconditional: per-source per-epoch metrics from the
    # worker pool must equal the serial lockstep reference exactly.
    for strategy, entry in result.raw.items():
        assert entry["identical"] is True, (strategy, entry)
        assert (
            entry["serial_goodput_mbps"] == entry["parallel_goodput_mbps"]
        ), (strategy, entry)

    # The wall-clock gate only means something when the workers can
    # actually run concurrently.
    cpus = os.cpu_count() or 1
    if spec.parallel_min_speedup > 0 and cpus >= spec.tiling.workers:
        for strategy, entry in result.raw.items():
            assert entry["speedup"] >= spec.parallel_min_speedup, (
                strategy,
                entry,
            )
