"""Synthetic workload generators standing in for the paper's datasets.

The paper evaluates on Microsoft's Pingmesh production trace and a production
log-analytics stream (Helios/Cosmos).  Neither is publicly available, so this
subpackage generates synthetic equivalents whose *query-relevant* statistics —
record rate, record size, filter selectivity, grouping-key cardinality, join
table size, and the sparsity of anomalous high-latency probes — are matched to
the figures the paper reports.  Each workload module also exports a cost model
calibrated to the CPU fractions the paper measured for its query.
"""

from .pingmesh import (
    PingmeshConfig,
    PingmeshWorkload,
    s2s_cost_model,
    t2t_cost_model,
)
from .loganalytics import LogAnalyticsConfig, LogAnalyticsWorkload, log_analytics_cost_model
from .dynamics import ResourceDynamics, WorkloadBurst
from .traces import Trace, record_trace

__all__ = [
    "PingmeshConfig",
    "PingmeshWorkload",
    "s2s_cost_model",
    "t2t_cost_model",
    "LogAnalyticsConfig",
    "LogAnalyticsWorkload",
    "log_analytics_cost_model",
    "ResourceDynamics",
    "WorkloadBurst",
    "Trace",
    "record_trace",
]
