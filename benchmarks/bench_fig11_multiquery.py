"""Figure 11: multiple query instances on one data source node.

Every benchmark here is a thin assertion shim over a scenario config under
``configs/`` (see ``benchmarks/bench_fig10_scaling.py`` for the pattern).

Paper shape: co-located S2SProbe instances (fixed load factors sized for the
per-query CPU demand of 55%/30%/5% at 10x/5x/1x input scaling) do not
interfere until the node's cores are exhausted; aggregate throughput then
saturates — at roughly 2 queries on one core and 3 on two cores at 10x, 4 and
6 at 5x, and 15 and 25 with no scaling.

Two paths reproduce the figure: the closed-form analytic mode scales one
frozen-plan single-source run per count, and the simulated mode actually
co-locates the instances on one stream processor
(``CoLocatedBlockExecutor``), so shared-link and SP-compute contention are
measured.  ``test_fig11_colocated`` runs the configured ``scenario.mode``
and, in comparison mode, enforces the below-knee agreement.
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import format_table
from repro.scenarios import ScenarioRunner, load_scenario

from .conftest import CONFIG_DIR, write_result

#: The analytic Fig. 11 settings, one scenario config per subfigure; each is
#: run at one and two source-node cores to show the saturation knee move.
ANALYTIC_CONFIGS = ("fig11a_10x", "fig11b_5x", "fig11c_1x")


def run_setting(name):
    results = {}
    for cores in (1, 2):
        spec = load_scenario(
            CONFIG_DIR / f"{name}.toml", overrides=[f"fleet.cores={cores}"]
        )
        results[cores] = ScenarioRunner().run(spec).raw
    return results


@pytest.mark.parametrize("name", ANALYTIC_CONFIGS)
def test_fig11_multi_query(benchmark, name):
    results = benchmark.pedantic(run_setting, args=(name,), rounds=1, iterations=1)

    query_counts = [int(row["queries"]) for row in results[1]]
    rows = []
    for i, count in enumerate(query_counts):
        rows.append(
            [
                count,
                results[1][i]["aggregate_throughput_mbps"],
                results[2][i]["aggregate_throughput_mbps"],
                results[1][i]["per_query_budget"],
                results[2][i]["per_query_budget"],
            ]
        )
    table = format_table(
        ["queries", "1-core agg Mbps", "2-core agg Mbps", "1-core budget/q", "2-core budget/q"],
        rows,
    )
    table += (
        f"\n\nper-query CPU demand: {results[1][0]['per_query_demand']:.2f} of a core"
    )
    write_result(name, table)

    one_core = [r["aggregate_throughput_mbps"] for r in results[1]]
    two_core = [r["aggregate_throughput_mbps"] for r in results[2]]
    # Two cores sustain at least as much aggregate throughput as one core, and
    # strictly more once the single core is saturated.
    assert all(b >= a * 0.95 for a, b in zip(one_core, two_core))
    assert two_core[-1] > one_core[-1]
    # Aggregate throughput saturates: the last step on one core adds less per
    # additional query than the first step did.
    if len(one_core) >= 3:
        first_gain = (one_core[1] - one_core[0]) / (query_counts[1] - query_counts[0])
        last_gain = (one_core[-1] - one_core[-2]) / (query_counts[-1] - query_counts[-2])
        assert last_gain <= first_gain + 1e-6


def test_fig11_colocated(benchmark):
    """True co-located multi-query executor vs the closed-form cross-check."""
    spec = load_scenario(CONFIG_DIR / "fig11_colocated.toml")
    result = benchmark.pedantic(
        ScenarioRunner().run, args=(spec,), rounds=1, iterations=1
    )
    write_result("fig11_colocated", result.table, data=result.bench_payload())

    rows = result.raw
    demand = rows[0]["per_query_demand"]
    if spec.mode == "comparison":
        # Below the source-CPU saturation knee (sum of demands within the
        # node's cores) the co-located executor must agree with the analytic
        # extrapolation (acceptance criterion: within 15%).
        for row in rows:
            if row["queries"] * demand <= row["cores"] + 1e-9:
                assert 0.85 <= row["ratio"] <= 1.15, row
    if spec.mode in ("simulated", "comparison"):
        # Past the knee co-location degrades per-query throughput: starved
        # instances fall below the unconstrained single-instance rate.  The
        # baseline only exists when the configured counts include a
        # below-knee point (sweep.queries may start past the knee).
        baseline = rows[0]
        if baseline["queries"] * demand <= baseline["cores"] + 1e-9:
            unconstrained = baseline["per_query_throughput_mbps"]
            starved = [
                row for row in rows if row["queries"] * demand > row["cores"] * 1.5
            ]
            for row in starved:
                assert row["per_query_throughput_mbps"] < 0.95 * unconstrained, row
