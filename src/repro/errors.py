"""Exception hierarchy for the Jarvis reproduction.

All exceptions raised by the library derive from :class:`JarvisError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish configuration mistakes, planning failures, and
runtime problems.

The module also hosts :func:`require_finite`, the shared finiteness guard for
float-valued configuration parameters (simlint rule SL008): a NaN or infinite
rate admitted at construction time silently corrupts placement and accounting
decisions much later, so every public float knob funnels through this check.
"""

from __future__ import annotations

import math
from typing import Optional, Type


class JarvisError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(JarvisError):
    """A configuration value is missing, malformed, or inconsistent."""


class QueryDefinitionError(JarvisError):
    """A declarative query is syntactically or semantically invalid.

    Raised during query building, e.g. when an aggregate is requested before
    a grouping operator, or when an unknown aggregate function name is used.
    """


class PlanningError(JarvisError):
    """Physical plan generation failed.

    Covers invalid operator chains, cyclic dependencies, and violations of
    the offloadability rules (R-1 .. R-4) that cannot be recovered from.
    """


class PartitioningError(JarvisError):
    """A partitioning strategy could not produce a valid plan."""


class SolverError(PartitioningError):
    """The LP solver failed and no fallback could produce a feasible plan."""


class SimulationError(JarvisError):
    """The epoch simulator was driven into an invalid state."""


class WorkloadError(JarvisError):
    """A workload generator received invalid parameters."""


def require_finite(
    name: str,
    value: Optional[float],
    *,
    positive: bool = False,
    non_negative: bool = False,
    error: Type[JarvisError] = ConfigurationError,
) -> Optional[float]:
    """Validate that a float parameter is finite (and optionally signed).

    ``None`` passes through untouched so optional parameters can be guarded
    unconditionally.  ``error`` selects the exception type, letting workload
    configs keep raising :class:`WorkloadError` and simulation specs
    :class:`SimulationError` while sharing one implementation.

    Returns ``value`` so the guard can be used inline in assignments.
    """
    if value is None:
        return None
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    if positive and value <= 0:
        raise error(f"{name} must be positive, got {value!r}")
    if non_negative and value < 0:
        raise error(f"{name} must be non-negative, got {value!r}")
    return value
