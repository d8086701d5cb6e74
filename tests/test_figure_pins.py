"""Every run behind the single-source figures, pinned epoch by epoch.

Each case calls one :mod:`repro.analysis.experiments` function with the
arguments of its ``benchmarks/bench_*.py`` shim (Fig. 7 at a reduced shape)
and records every ``run_single_source`` run the function makes: its strategy,
its budget and an 8-hex digest of each epoch's ``EpochMetrics`` repr, the
scheme of ``benchmarks/perf/workloads.py:epoch_digest``.  One more digest
pins the function's return value.  ``adaptation_overhead`` is left out: it
reports host time.

A mismatch names the figure, the run and the first epoch whose digest
differs.  Regenerate after a change that is meant to move a figure with
``PYTHONPATH=src python tests/test_figure_pins.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List
from unittest import mock

import pytest

from repro.analysis import experiments
from repro.query.records import IpToTorTable
from repro.simulation.metrics import RunMetrics
from repro.simulation.node import BudgetSchedule

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "figure_pins.json"

FIG7_STRATEGIES = ("All-Src", "All-SP", "Filter-Src", "Best-OP", "LB-DP", "Jarvis")
FIG8_STRATEGIES = ("Jarvis", "LP only", "w/o LP-init")


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:8]


def _fig3() -> object:
    setup = experiments.make_setup("s2s_probe", records_per_epoch=800)
    return experiments.partitioning_mode_comparison(
        setup, budget=0.80, num_epochs=45, warmup_epochs=15
    )


def _fig7(query_name: str) -> Callable[[], object]:
    def run() -> object:
        setup = experiments.make_setup(query_name, records_per_epoch=300)
        return experiments.throughput_sweep(
            setup=setup,
            budgets=(0.2, 0.6, 1.0),
            strategies=FIG7_STRATEGIES,
            num_epochs=20,
            warmup_epochs=6,
        )

    return run


def _fig8a() -> object:
    setup = experiments.make_setup("s2s_probe", records_per_epoch=600)
    schedule = BudgetSchedule([(0, 0.10), (3, 0.90), (18, 0.60)])
    return experiments.convergence_run(
        setup=setup, strategies=FIG8_STRATEGIES, schedule=schedule, num_epochs=32
    )


def _fig8b() -> object:
    setup = experiments.make_setup("t2t_probe", records_per_epoch=600, table_size=500)
    events = {
        12: experiments.swap_join_table(IpToTorTable.dense(5000)),
        22: experiments.reset_jarvis_plan(),
    }
    return experiments.convergence_run(
        setup=setup,
        strategies=FIG8_STRATEGIES,
        schedule=BudgetSchedule([(0, 0.10), (3, 1.00)]),
        num_epochs=32,
        events=events,
    )


def _fig8c() -> object:
    setup = experiments.make_setup("log_analytics", records_per_epoch=600)
    schedule = BudgetSchedule([(0, 0.05), (3, 0.60), (16, 0.20)])
    return experiments.convergence_run(
        setup=setup, strategies=FIG8_STRATEGIES, schedule=schedule, num_epochs=28
    )


def _fig9() -> object:
    return experiments.synopsis_comparison(
        sampling_rates=(0.2, 0.4, 0.6, 0.8),
        records_per_epoch=800,
        num_windows=2,
        jarvis_budgets=(1.0, 0.2),
    )


def _ablation() -> object:
    setup = experiments.make_setup("s2s_probe", records_per_epoch=600)
    schedule = BudgetSchedule([(0, 0.10), (3, 0.90), (18, 0.55)])
    return experiments.convergence_run(
        setup=setup, strategies=FIG8_STRATEGIES, schedule=schedule, num_epochs=34
    )


def _operator_count() -> object:
    return experiments.operator_count_convergence(
        operator_counts=(2, 3, 4, 5), samples_per_count=80
    )


CASES: Dict[str, Callable[[], object]] = {
    "fig3": _fig3,
    "fig7_s2s_probe": _fig7("s2s_probe"),
    "fig7_t2t_probe": _fig7("t2t_probe"),
    "fig7_log_analytics": _fig7("log_analytics"),
    "fig8a": _fig8a,
    "fig8b": _fig8b,
    "fig8c": _fig8c,
    "fig9": _fig9,
    "ablation": _ablation,
    "operator_count": _operator_count,
}


def pin_case(case: str) -> Dict[str, Any]:
    """Run one case; return its result digest and every run's epoch digests."""
    runs: List[Dict[str, Any]] = []
    run_single_source = experiments.run_single_source

    def recording(*args: Any, **kwargs: Any) -> RunMetrics:
        metrics = run_single_source(*args, **kwargs)
        runs.append(
            {
                "run": f"{metrics.metadata['strategy']} @ {metrics.metadata['budget']}",
                "epochs": [_digest(epoch) for epoch in metrics.epochs],
            }
        )
        return metrics

    with mock.patch.object(experiments, "run_single_source", recording):
        result = CASES[case]()
    return {"result": _digest(result), "runs": runs}


def _first_difference(case: str, got: Dict[str, Any], want: Dict[str, Any]) -> str:
    """Where ``got`` first departs from the golden ``want``, or ``""``."""
    got_runs, want_runs = got["runs"], want["runs"]
    for index, (mine, pinned) in enumerate(zip(got_runs, want_runs)):
        where = f"{case}, run {index} ({pinned['run']})"
        if mine["run"] != pinned["run"]:
            return f"{where}: ran {mine['run']} instead"
        for epoch, (a, b) in enumerate(zip(mine["epochs"], pinned["epochs"])):
            if a != b:
                return f"{where}: epoch {epoch} digest {a} != pinned {b}"
        if len(mine["epochs"]) != len(pinned["epochs"]):
            return f"{where}: {len(mine['epochs'])} epochs, pinned {len(pinned['epochs'])}"
    if len(got_runs) != len(want_runs):
        return f"{case}: {len(got_runs)} runs, pinned {len(want_runs)}"
    if got["result"] != want["result"]:
        return f"{case}: return value digest {got['result']} != pinned {want['result']}"
    return ""


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_figure_matches_pins(case: str, golden: Dict[str, Any]) -> None:
    difference = _first_difference(case, pin_case(case), golden[case])
    assert not difference, difference


if __name__ == "__main__":
    pins = {case: pin_case(case) for case in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
