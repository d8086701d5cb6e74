"""States and phases used by the Jarvis runtime.

Section IV-C of the paper defines three operator states observed by control
proxies (congested, idle, stable), a derived query-level state, and the four
operational phases of the runtime state machine (Figure 6).
"""

from __future__ import annotations

import enum
from typing import Iterable, List

import numpy as np


class OperatorState(enum.Enum):
    """State of a single downstream operator as observed by its control proxy."""

    #: More than the tolerated number of pending records at the epoch boundary.
    CONGESTED = "congested"
    #: Stayed empty for longer than the tolerated fraction of the epoch.
    IDLE = "idle"
    #: Neither congested nor idle.
    STABLE = "stable"


#: Operator states by code: what the array rules
#: (:func:`~repro.core.control_proxy.operator_states`) return.
OPERATOR_STATES = (OperatorState.CONGESTED, OperatorState.IDLE, OperatorState.STABLE)
CONGESTED, IDLE, STABLE = range(3)


class QueryState(enum.Enum):
    """Aggregate state of the query pipeline on one data source."""

    CONGESTED = "congested"
    IDLE = "idle"
    STABLE = "stable"


class RuntimePhase(enum.Enum):
    """Operational phases of the Jarvis runtime state machine (Figure 6)."""

    #: Initialization: all load factors are zero (everything drains to the SP).
    STARTUP = "startup"
    #: Normal operation: probe control-proxy states each epoch.
    PROBE = "probe"
    #: Query-plan diagnosis: re-estimate operator costs, relay ratios, budget.
    PROFILE = "profile"
    #: Load-factor adaptation: LP initialisation plus iterative fine-tuning.
    ADAPT = "adapt"


def classify_query_state(operator_states: Iterable[OperatorState]) -> QueryState:
    """Derive the query-level state from per-operator states.

    The paper classifies the current data-level partitioning plan as
    *non-stable* if **all** operators are idle or **at least one** operator is
    congested (Section IV-C); otherwise the plan is stable.
    """
    states = list(operator_states)
    if not states:
        return QueryState.IDLE
    if any(state is OperatorState.CONGESTED for state in states):
        return QueryState.CONGESTED
    if all(state is OperatorState.IDLE for state in states):
        return QueryState.IDLE
    return QueryState.STABLE


def classify_query_states(operator_codes: np.ndarray) -> List[QueryState]:
    """:func:`classify_query_state` of many sources at once.

    ``operator_codes`` holds :data:`OPERATOR_STATES` codes, stages by
    sources; returns each source's query state.
    """
    codes = np.where(
        (operator_codes == CONGESTED).any(axis=0),
        CONGESTED,
        np.where((operator_codes == IDLE).all(axis=0), IDLE, STABLE),
    )
    return [_QUERY_STATES[code] for code in codes.tolist()]


_QUERY_STATES = (QueryState.CONGESTED, QueryState.IDLE, QueryState.STABLE)
