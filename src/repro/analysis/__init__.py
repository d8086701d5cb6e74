"""Experiment harness: canned runners for the single-source figures.

The functions in :mod:`repro.analysis.experiments` reproduce the experiments
behind Figures 3 and 7-9 (plus the inline claims of Sections VI-B/C);
:mod:`repro.analysis.reporting` formats results as the tables, series and
HTML reports the benchmark harness and the scenario runner print.  The
cluster-scale figures (10 and 11) are scenario configs run by
:class:`repro.scenarios.ScenarioRunner`.
"""

from .experiments import (
    QuerySetup,
    make_setup,
    make_strategy,
    run_single_source,
    throughput_sweep,
    convergence_run,
    partitioning_mode_comparison,
    synopsis_comparison,
    operator_count_convergence,
    adaptation_overhead,
)
from .reporting import format_table, series_table, summarize_sweep

__all__ = [
    "QuerySetup",
    "make_setup",
    "make_strategy",
    "run_single_source",
    "throughput_sweep",
    "convergence_run",
    "partitioning_mode_comparison",
    "synopsis_comparison",
    "operator_count_convergence",
    "adaptation_overhead",
    "format_table",
    "series_table",
    "summarize_sweep",
]
