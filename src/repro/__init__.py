"""Reproduction of *Jarvis: Large-scale Server Monitoring with Adaptive
Near-data Processing* (ICDE 2022).

Jarvis partitions monitoring queries between data-source nodes (servers with
a small, fluctuating CPU budget) and a stream processor at the *data level*:
each operator processes a tunable fraction of its input locally and drains
the rest to a replicated copy on the stream processor.  A decentralized
runtime adapts those fractions within seconds of resource changes using the
hybrid StepWise-Adapt algorithm (an LP-based initialisation refined by a
model-agnostic binary search).

Quickstart::

    from repro import make_setup, run_single_source

    setup = make_setup("s2s_probe")
    metrics = run_single_source(setup, "Jarvis", budget=0.6, num_epochs=40)
    print(metrics.summary())

The public API re-exports the most commonly used pieces; see the subpackages
for the full surface:

* :mod:`repro.query`       — declarative queries, operators, plans.
* :mod:`repro.core`        — control proxies, StepWise-Adapt, the runtime.
* :mod:`repro.simulation`  — the epoch-driven execution substrate.
* :mod:`repro.baselines`   — Jarvis, its ablations, and the paper's baselines.
* :mod:`repro.workloads`   — synthetic Pingmesh / LogAnalytics generators.
* :mod:`repro.synopsis`    — the sampling comparison of Figure 9.
* :mod:`repro.analysis`    — canned experiments for the single-source figures.
* :mod:`repro.scenarios`   — config-driven cluster experiments (Figs. 10-11).
"""

from .config import (
    AdaptationConfig,
    EpochConfig,
    JarvisConfig,
    NetworkConfig,
    ProxyThresholds,
    DEFAULT_CONFIG,
)
from .errors import (
    ConfigurationError,
    JarvisError,
    PartitioningError,
    PlanningError,
    QueryDefinitionError,
    SimulationError,
    SolverError,
    WorkloadError,
)
from .query import (
    Stream,
    Query,
    LogicalPlan,
    PhysicalPlan,
    OffloadRules,
    PingmeshRecord,
    LogRecord,
)
from .query.builder import log_analytics_query, s2s_probe_query, t2t_probe_query
from .core import (
    ControlProxy,
    JarvisRuntime,
    EpochObservation,
    StepWiseAdapt,
    DataLevelPlan,
    solve_data_level_lp,
    OperatorState,
    QueryState,
    RuntimePhase,
)
from .simulation import (
    BuildingBlockExecutor,
    ExecutorConfig,
    CostModel,
    NetworkLink,
    BudgetSchedule,
    DataSourceNode,
    StreamProcessorNode,
    RunMetrics,
    ClusterModel,
)
from .baselines import (
    JarvisStrategy,
    AllSPStrategy,
    AllSrcStrategy,
    FilterSrcStrategy,
    BestOPStrategy,
    LoadBalanceDPStrategy,
    LPOnlyStrategy,
    NoLPInitStrategy,
)
from .workloads import (
    PingmeshConfig,
    PingmeshWorkload,
    LogAnalyticsConfig,
    LogAnalyticsWorkload,
)
from .analysis import (
    make_setup,
    make_strategy,
    run_single_source,
    throughput_sweep,
    convergence_run,
    synopsis_comparison,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "JarvisConfig",
    "EpochConfig",
    "ProxyThresholds",
    "AdaptationConfig",
    "NetworkConfig",
    "DEFAULT_CONFIG",
    # errors
    "JarvisError",
    "ConfigurationError",
    "QueryDefinitionError",
    "PlanningError",
    "PartitioningError",
    "SolverError",
    "SimulationError",
    "WorkloadError",
    # query layer
    "Stream",
    "Query",
    "LogicalPlan",
    "PhysicalPlan",
    "OffloadRules",
    "PingmeshRecord",
    "LogRecord",
    "s2s_probe_query",
    "t2t_probe_query",
    "log_analytics_query",
    # core
    "ControlProxy",
    "JarvisRuntime",
    "EpochObservation",
    "StepWiseAdapt",
    "DataLevelPlan",
    "solve_data_level_lp",
    "OperatorState",
    "QueryState",
    "RuntimePhase",
    # simulation
    "BuildingBlockExecutor",
    "ExecutorConfig",
    "CostModel",
    "NetworkLink",
    "BudgetSchedule",
    "DataSourceNode",
    "StreamProcessorNode",
    "RunMetrics",
    "ClusterModel",
    # strategies
    "JarvisStrategy",
    "AllSPStrategy",
    "AllSrcStrategy",
    "FilterSrcStrategy",
    "BestOPStrategy",
    "LoadBalanceDPStrategy",
    "LPOnlyStrategy",
    "NoLPInitStrategy",
    # workloads
    "PingmeshConfig",
    "PingmeshWorkload",
    "LogAnalyticsConfig",
    "LogAnalyticsWorkload",
    # experiments
    "make_setup",
    "make_strategy",
    "run_single_source",
    "throughput_sweep",
    "convergence_run",
    "synopsis_comparison",
]
