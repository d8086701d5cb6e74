"""Per-operator CPU cost model.

Operator costs are expressed in **core-seconds per input record**.  The model
is calibrated so that, at a query's nominal input rate, each operator consumes
the CPU fraction reported in the paper — e.g. for the S2SProbe query at
26.2 Mbps the Filter consumes ~13% of a core and the fused GroupAggregate
consumes ~80% of a core when processing all of the filter's output
(Figure 3).  Because everything downstream (throughput, partitioning
decisions, convergence) depends only on *relative* costs and budgets, the
calibration preserves the paper's behaviour even though the absolute record
rates in the simulator are scaled down for speed.

Join cost additionally grows with the static table size (hash-table lookups
over a larger table), and grouping cost grows mildly with the number of live
groups, reproducing the sensitivities discussed in Sections II-A and VI-C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..query.operators import Operator


@dataclass(frozen=True)
class OperatorCostSpec:
    """Cost parameters for one operator (or one operator kind).

    Attributes:
        cpu_per_record: Core-seconds consumed per input record at reference
            conditions (reference table size, small group count).
        table_scale_exp: For joins — cost is multiplied by
            ``(table_size / ref_table_size) ** table_scale_exp``.
        ref_table_size: Reference table size for the join scaling term.
        group_log_cost: Extra core-seconds per record per ``log2(group_count)``
            for grouping operators (hash-table pressure).
    """

    cpu_per_record: float
    table_scale_exp: float = 0.0
    ref_table_size: int = 500
    group_log_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu_per_record < 0:
            raise ConfigurationError(
                f"cpu_per_record must be >= 0, got {self.cpu_per_record!r}"
            )
        if self.ref_table_size <= 0:
            raise ConfigurationError(
                f"ref_table_size must be positive, got {self.ref_table_size!r}"
            )


#: Reasonable default per-kind costs (core-seconds per record), used when an
#: operator has no dedicated entry.  They are intentionally small; queries in
#: the evaluation always use a calibrated model built by the workload modules.
DEFAULT_KIND_SPECS: Dict[str, OperatorCostSpec] = {
    "window": OperatorCostSpec(cpu_per_record=0.0),
    "filter": OperatorCostSpec(cpu_per_record=2e-6),
    "map": OperatorCostSpec(cpu_per_record=4e-6),
    "join": OperatorCostSpec(cpu_per_record=8e-6, table_scale_exp=0.2),
    "group_aggregate": OperatorCostSpec(cpu_per_record=1e-5, group_log_cost=3e-7),
    "aggregate": OperatorCostSpec(cpu_per_record=4e-6),
    "operator": OperatorCostSpec(cpu_per_record=4e-6),
}


class CostModel:
    """Maps operators to per-record CPU costs.

    Lookup order: per-operator-name spec, then per-kind spec, then the
    built-in defaults.  The model also evaluates context-dependent terms
    (join table size, live group count) at query time.
    """

    def __init__(
        self,
        name_specs: Optional[Mapping[str, OperatorCostSpec]] = None,
        kind_specs: Optional[Mapping[str, OperatorCostSpec]] = None,
    ) -> None:
        self._name_specs: Dict[str, OperatorCostSpec] = dict(name_specs or {})
        self._kind_specs: Dict[str, OperatorCostSpec] = dict(DEFAULT_KIND_SPECS)
        if kind_specs:
            self._kind_specs.update(kind_specs)

    # -- spec management -------------------------------------------------------

    def set_operator_spec(self, name: str, spec: OperatorCostSpec) -> None:
        """Register (or replace) the cost spec for a specific operator name."""
        self._name_specs[name] = spec

    def spec_for(self, operator: Operator) -> OperatorCostSpec:
        """Resolve the cost spec applying to ``operator``."""
        if operator.name in self._name_specs:
            return self._name_specs[operator.name]
        if operator.kind in self._kind_specs:
            return self._kind_specs[operator.kind]
        return self._kind_specs["operator"]

    # -- evaluation ------------------------------------------------------------

    def cost_per_record(self, operator: Operator) -> float:
        """Core-seconds needed to process one record with ``operator``."""
        spec = self.spec_for(operator)
        cost = self._plan_cost(spec, operator)
        if self._reads_group_count(spec, operator):
            cost += spec.group_log_cost * self._group_log(operator)
        return cost

    def stage_costs(self, operators: Sequence[Operator]) -> "float | np.ndarray":
        """:meth:`cost_per_record` of one plan stage's operators, one per
        source: one value when it is the plan's, else one per operator.

        The operators must be one plan's stage, alike in name, kind, cost
        hint and table size, so the part of the cost that does not depend
        on state is read once, off the first; the group term, when the
        spec has one, reads each operator's own group count.
        """
        first = operators[0]
        spec = self.spec_for(first)
        cost = self._plan_cost(spec, first)
        if not self._reads_group_count(spec, first):
            return cost
        return cost + spec.group_log_cost * np.array(
            [self._group_log(operator) for operator in operators]
        )

    @staticmethod
    def _plan_cost(spec: OperatorCostSpec, operator: Operator) -> float:
        """The per-record cost before the group term: fixed by the plan."""
        cost = spec.cpu_per_record * operator.cost_hint
        if spec.table_scale_exp and hasattr(operator, "table_size"):
            table_size = max(1, int(getattr(operator, "table_size")))
            cost *= (table_size / spec.ref_table_size) ** spec.table_scale_exp
        return cost

    @staticmethod
    def _group_log(operator: Operator) -> float:
        groups = max(1, int(operator.group_count()))
        return math.log2(groups + 1)

    @staticmethod
    def _reads_group_count(spec: OperatorCostSpec, operator: Operator) -> bool:
        return bool(spec.group_log_cost) and hasattr(operator, "group_count")

    def cost_depends_on_state(self, operator: Operator) -> bool:
        """Whether ``operator``'s per-record cost changes as it folds records.

        The group term reads the live group count, so such an operator's
        cost holds only for the next batch: batches cannot share one
        evaluation of :meth:`cost_per_record`.
        """
        return self._reads_group_count(self.spec_for(operator), operator)

    def batch_cost(self, operator: Operator, num_records: int) -> float:
        """Core-seconds needed to process ``num_records`` records."""
        if num_records < 0:
            raise ConfigurationError(
                f"num_records must be >= 0, got {num_records!r}"
            )
        return self.cost_per_record(operator) * num_records

    def pipeline_full_cost_fraction(
        self,
        operators: Sequence[Operator],
        records_per_epoch: float,
        relay_ratios: Sequence[float],
        epoch_duration_s: float = 1.0,
    ) -> float:
        """CPU fraction for running the whole pipeline on all input records.

        ``relay_ratios[i]`` is the count-relay ratio of operator ``i`` (the
        fraction of its input records it emits); upstream reduction determines
        how many records downstream operators see.
        """
        if len(operators) != len(relay_ratios):
            raise ConfigurationError(
                "operators and relay_ratios must have the same length"
            )
        surviving = float(records_per_epoch)
        total = 0.0
        for operator, relay in zip(operators, relay_ratios):
            total += surviving * self.cost_per_record(operator)
            surviving *= max(0.0, relay)
        return total / max(epoch_duration_s, 1e-12)


def calibrate_cost_model(
    operators: Sequence[Operator],
    cpu_fractions: Mapping[str, float],
    input_records_per_second: float,
    count_relay_ratios: Optional[Mapping[str, float]] = None,
    table_scale_exp: float = 0.2,
    group_log_cost_fraction: float = 0.0,
) -> CostModel:
    """Build a cost model from target per-operator CPU fractions.

    Args:
        operators: Pipeline operators in order.
        cpu_fractions: Mapping from operator name to the CPU fraction the
            operator should use when processing **its own full input** at the
            nominal rate (e.g. ``{"filter": 0.13, "group_aggregate": 0.80}``).
        input_records_per_second: Nominal query input rate in records/second.
        count_relay_ratios: Count-based relay ratios per operator (fraction of
            input records emitted); needed to translate "fraction of own
            input" into per-record costs for downstream operators.  Operators
            not listed default to 1.0.
        table_scale_exp: Exponent for join-table cost scaling.
        group_log_cost_fraction: Fraction of a grouping operator's calibrated
            cost attributed to the group-count-dependent term.

    Returns:
        A :class:`CostModel` with one spec per operator name.
    """
    if input_records_per_second <= 0:
        raise ConfigurationError(
            "input_records_per_second must be positive, "
            f"got {input_records_per_second!r}"
        )
    relays = dict(count_relay_ratios or {})
    model = CostModel()
    upstream_records = float(input_records_per_second)
    for operator in operators:
        fraction = float(cpu_fractions.get(operator.name, 0.0))
        records_seen = max(upstream_records, 1e-9)
        per_record = fraction / records_seen
        group_term = 0.0
        if group_log_cost_fraction > 0 and hasattr(operator, "group_count"):
            group_term = per_record * group_log_cost_fraction
            per_record *= 1.0 - group_log_cost_fraction
        spec = OperatorCostSpec(
            cpu_per_record=per_record / max(operator.cost_hint, 1e-12),
            table_scale_exp=table_scale_exp if hasattr(operator, "table_size") else 0.0,
            ref_table_size=getattr(operator, "table_size", 500) or 500,
            group_log_cost=group_term,
        )
        model.set_operator_spec(operator.name, spec)
        upstream_records *= float(relays.get(operator.name, 1.0))
    return model
