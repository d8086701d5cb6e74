"""The paper's primary contribution: adaptive data-level query partitioning.

Contents:

* :mod:`repro.core.state` — operator/query states and runtime phases.
* :mod:`repro.core.control_proxy` — the control proxy primitive (Section IV-A).
* :mod:`repro.core.profiler` — online operator cost / relay-ratio profiling.
* :mod:`repro.core.lp_solver` — LP formulation of the data-level partitioning
  problem (Eq. 3) plus a greedy fallback.
* :mod:`repro.core.stepwise_adapt` — the StepWise-Adapt hybrid algorithm.
* :mod:`repro.core.partitioner` — operator-level partitioning (Eq. 1) used by
  baselines and by the NP-hardness-adjacent utilities.
* :mod:`repro.core.runtime` — the decentralized Jarvis runtime state machine.
"""

from .state import OperatorState, QueryState, RuntimePhase
from .control_proxy import ControlProxy, ProxyObservation
from .profiler import OperatorProfile, PipelineProfile, Profiler
from .lp_solver import DataLevelPlan, solve_data_level_lp
from .stepwise_adapt import StepWiseAdapt, AdaptationResult
from .partitioner import OperatorLevelPartitioner, operator_level_boundary
from .runtime import JarvisRuntime, EpochObservation
from .checkpoint import Checkpoint, CheckpointPolicy, CheckpointStore

__all__ = [
    "Checkpoint",
    "CheckpointPolicy",
    "CheckpointStore",
    "OperatorState",
    "QueryState",
    "RuntimePhase",
    "ControlProxy",
    "ProxyObservation",
    "OperatorProfile",
    "PipelineProfile",
    "Profiler",
    "DataLevelPlan",
    "solve_data_level_lp",
    "StepWiseAdapt",
    "AdaptationResult",
    "OperatorLevelPartitioner",
    "operator_level_boundary",
    "JarvisRuntime",
    "EpochObservation",
]
