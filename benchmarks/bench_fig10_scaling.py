"""Figure 10 and Section VI-E: scaling the number of data source nodes.

Every benchmark here is a thin assertion shim over a scenario config under
``configs/`` — the parameters live in TOML, the execution in
:class:`repro.scenarios.runner.ScenarioRunner`, and this file keeps only the
paper's acceptance assertions.  The shims run each config as committed; to
try another shape, run the config through the CLI with ``--set`` overrides
(``python -m repro.scenarios configs/fig10_sim_vs_analytic.toml --set
sweep.sources=1,8,64,128``).

Paper shape:

* 10x input scaling, 55% CPU (Fig. 10a): Best-OP is network-bound almost
  immediately; Jarvis scales to ~32 sources before degrading.
* 5x scaling, 30% CPU (Fig. 10b): Best-OP scales to ~40 sources, Jarvis to
  ~70 — 75% more data sources.
* no scaling, 5% CPU (Fig. 10c): Best-OP degrades around 180 sources, Jarvis
  keeps scaling past 250.
* Latency (Section VI-E): when both keep up, Jarvis improves median epoch
  latency by ~3.4x; when Best-OP is over capacity its max latency grows beyond
  60 seconds while Jarvis stays within a few seconds.
"""

from __future__ import annotations

import pytest

from repro.scenarios import ScenarioRunner, load_scenario

from .conftest import CONFIG_DIR, write_result

#: The analytic Fig. 10 settings, one scenario config per subfigure.
ANALYTIC_CONFIGS = ("fig10a_10x", "fig10b_5x", "fig10c_1x")


@pytest.mark.parametrize("name", ANALYTIC_CONFIGS)
def test_fig10_scaling(benchmark, name):
    spec = load_scenario(CONFIG_DIR / f"{name}.toml")
    result = benchmark.pedantic(
        ScenarioRunner().run, args=(spec,), rounds=1, iterations=1
    )
    write_result(name, result.table, data=result.payload)

    supported = result.raw["supported"]
    assert supported["Jarvis"] > supported["Best-OP"]
    # Latency: once Best-OP saturates, its tail latency explodes while Jarvis
    # stays bounded (Section VI-E).
    last_jarvis = result.raw["sweep"]["Jarvis"][-1]
    last_best = result.raw["sweep"]["Best-OP"][-1]
    assert last_best.max_latency_s >= last_jarvis.max_latency_s


def test_fig10_sim_vs_analytic(benchmark):
    """True multi-source executor vs the closed-form cross-check."""
    spec = load_scenario(CONFIG_DIR / "fig10_sim_vs_analytic.toml")
    result = benchmark.pedantic(
        ScenarioRunner().run, args=(spec,), rounds=1, iterations=1
    )
    write_result("fig10_sim_vs_analytic", result.table, data=result.payload)

    # Below the saturation knee the measured executor must agree with the
    # analytic cross-check (acceptance criterion: within 10%).
    for strategy, entries in result.raw.items():
        for entry in entries:
            if entry["simulated_network_utilization"] < 0.8:
                assert 0.9 <= entry["ratio"] <= 1.1, (strategy, entry)


def test_fig10_sharded_scaling(benchmark):
    """Figure 4b tiling: the Fig. 10 sweep continued past one block's knee.

    A fixed fleet is partitioned across K stream-processor building blocks
    (per-block ingress sized so the fleet saturates a single block); adding
    blocks divides the contention, so aggregate goodput must keep growing
    with K — the scale-out behaviour one ``MultiSourceExecutor`` cannot show.
    """
    spec = load_scenario(CONFIG_DIR / "fig10_sharded_scaling.toml")
    result = benchmark.pedantic(
        ScenarioRunner().run, args=(spec,), rounds=1, iterations=1
    )
    write_result("fig10_sharded_scaling", result.table, data=result.payload)

    for strategy, entries in result.raw.items():
        throughputs = [m.aggregate_throughput_mbps() for m in entries]
        utilizations = [m.network_utilization() for m in entries]
        # Tiling must never hurt, and when the single block is link-saturated
        # it must help: goodput grows with K past the single-block knee.
        for prev, nxt in zip(throughputs, throughputs[1:]):
            assert nxt >= 0.98 * prev, (strategy, throughputs)
        if utilizations[0] > 0.97 and len(throughputs) > 1:
            assert throughputs[-1] > 1.1 * throughputs[0], (strategy, throughputs)


def test_fig10_dynamic_replacement(benchmark):
    """Dynamic re-placement on a mid-run hotspot: static vs dynamic vs oracle.

    One block's fleet doubles its record rate at the shift epoch; the static
    placement (frozen on nominal rates) saturates that block while its
    neighbour idles.  Dynamic re-placement must live-migrate sources off the
    hot block and recover at least half of the goodput gap to an oracle
    placement built with perfect post-shift knowledge.
    """
    spec = load_scenario(CONFIG_DIR / "fig10_dynamic_replacement.toml")
    result = benchmark.pedantic(
        ScenarioRunner().run, args=(spec,), rounds=1, iterations=1
    )
    write_result("fig10_dynamic_replacement", result.table, data=result.payload)

    # Dynamic placement must beat static and recover >= 50% of the oracle gap.
    raw = result.raw
    assert raw["oracle_mbps"] > raw["static_mbps"]
    assert raw["dynamic_mbps"] > raw["static_mbps"]
    assert raw["gap_recovered"] >= 0.5
    assert len(raw["migrations"]) >= 1
