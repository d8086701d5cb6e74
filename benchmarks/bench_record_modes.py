"""Object vs arena record mode on the Figure 10 building block.

A thin assertion shim over ``configs/record_modes.toml`` (see
``benchmarks/bench_fig10_scaling.py`` for the pattern).

The arena record mode exists so the Fig. 10 simulated sweep can reach
hundreds of sources in CI time; this benchmark pins down both halves of
that contract on the Fig. 10a configuration (10x input scaling, 55% CPU
budget, 64 sources, both of the figure's strategies):

* both modes produce *identical* goodput and latency metrics, and
* arena mode is at least ``run.min_speedup``x faster than object mode
  (measured 34x for Best-OP's drain-heavy path and 28x for Jarvis' adaptive
  source-side processing on a 2-vCPU host; the scenario runner times each
  mode as its fastest of three runs in alternating order).

Set ``run.min_speedup`` to 0 in the config to skip the wall-clock
assertion on noisy machines.
"""

from __future__ import annotations

from repro.scenarios import ScenarioRunner, load_scenario

from .conftest import CONFIG_DIR, write_result


def test_record_mode_speedup_and_equivalence(benchmark):
    spec = load_scenario(CONFIG_DIR / "record_modes.toml")
    result = benchmark.pedantic(
        ScenarioRunner().run, args=(spec,), rounds=1, iterations=1
    )
    write_result("record_modes", result.table, data=result.payload)

    # Identical metrics: the arena is an optimization, never a model change.
    for strategy, entry in result.raw.items():
        assert entry["object_goodput_mbps"] == entry["arena_goodput_mbps"], strategy
        assert (
            entry["object_median_latency_s"] == entry["arena_median_latency_s"]
        ), strategy
        assert entry["offered_mbps"] == entry["arena_offered_mbps"], strategy

    # The fast path must stay fast, for both strategies.
    if spec.min_speedup > 0:
        for strategy, entry in result.raw.items():
            assert entry["speedup"] >= spec.min_speedup, (strategy, entry)
