"""Physical plan generation: operator replication, control-proxy insertion,
and the offloadability rules R-1 .. R-4 (Section IV-B).

A :class:`~repro.query.builder.Query` compiles straight to its physical plan
(:meth:`PhysicalPlan.from_query`): the builder already emits the deployed
operator chain, with grouping and reduction fused into one G+R operator.
The physical plan replicates every offloadable operator on both the data
source and the stream processor (Figure 5).  A control proxy precedes each
source-side operator; it forwards a ``load factor`` fraction of records to the
local operator and drains the remainder to the proxy of the replicated
operator on the stream processor.

Two rules decide which operators may run on the data source:

* **R-1** — aggregations that are not incrementally updatable (e.g. exact
  quantiles) may not run on the data source.
* **R-2** — operators downstream of a stateful operation whose final result
  requires merging across data sources may not run on the data source (the
  stateful operator itself may, because its partial state is mergeable).

The other two hold by construction:

* **R-3** — no stateful stream-stream join runs on the data source: the only
  join is the stream-table :class:`~repro.query.operators.JoinOperator`.
* **R-4** — no intra-operator parallelism on the data source: each stage
  deploys one physical instance of its operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from ..errors import PlanningError
from .operators import Operator, WindowOperator

if TYPE_CHECKING:
    from .builder import Query


@dataclass
class PhysicalStage:
    """One stage of the deployed pipeline: a proxy slot plus its operator."""

    operator: Operator
    #: Why the stage is not offloadable ("" when offloadable).
    reason: str

    @property
    def offloadable(self) -> bool:
        """Whether the stage may also run on the data source."""
        return not self.reason


class PhysicalPlan:
    """A deployable physical plan for one query on one core building block."""

    def __init__(
        self,
        query_name: str,
        stages: Sequence[PhysicalStage],
        window_length_s: float,
    ) -> None:
        if not stages:
            raise PlanningError("physical plan must contain at least one stage")
        self.query_name = query_name
        self.stages: List[PhysicalStage] = list(stages)
        self.window_length_s = window_length_s

    # -- construction -------------------------------------------------------

    @classmethod
    def from_query(cls, query: "Query") -> "PhysicalPlan":
        """Compile a query's operator chain, applying rules R-1 and R-2."""
        stages: List[PhysicalStage] = []
        window_length = 10.0
        blocked_reason = ""
        seen_stateful = False

        for op in query.operators:
            if isinstance(op, WindowOperator):
                window_length = op.length_s

            if blocked_reason:
                reason = blocked_reason
            elif not op.incremental:
                reason = "R-1: aggregate is not incrementally updatable"
            elif seen_stateful:
                reason = "R-2: downstream of a cross-source stateful operator"
            else:
                reason = ""
                seen_stateful = op.stateful

            if reason and not blocked_reason:
                # Everything after the first non-offloadable operator stays on
                # the stream processor (the chain cannot resume at the source).
                blocked_reason = f"downstream of non-offloadable stage ({reason})"

            stages.append(PhysicalStage(op, reason))

        return cls(query.name, stages, window_length)

    # -- accessors -----------------------------------------------------------

    @property
    def operators(self) -> List[Operator]:
        """All operators in pipeline order (offloadable or not)."""
        return [stage.operator for stage in self.stages]

    @property
    def offloadable_count(self) -> int:
        """Length of the offloadable prefix of the pipeline."""
        count = 0
        for stage in self.stages:
            if not stage.offloadable:
                break
            count += 1
        return count

    def offloadable_stages(self) -> List[PhysicalStage]:
        """Stages in the offloadable prefix."""
        return self.stages[: self.offloadable_count]

    def remote_only_stages(self) -> List[PhysicalStage]:
        """Stages that must run exclusively on the stream processor."""
        return self.stages[self.offloadable_count :]

    def source_operators(self) -> List[Operator]:
        """Fresh clones of the offloadable prefix for a data-source deployment."""
        return [stage.operator.clone() for stage in self.offloadable_stages()]

    def stream_processor_operators(self) -> List[Operator]:
        """Fresh clones of the full chain for a stream-processor deployment."""
        return [stage.operator.clone() for stage in self.stages]

    def describe(self) -> str:
        """Human-readable description of the plan (used by examples)."""
        lines = [f"physical plan for query {self.query_name!r}:"]
        for index, stage in enumerate(self.stages):
            where = "source+SP" if stage.offloadable else "SP only"
            suffix = f" ({stage.reason})" if stage.reason else ""
            lines.append(f"  [{index}] {stage.operator.name:<24s} {where}{suffix}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<PhysicalPlan {self.query_name!r} stages={len(self.stages)} "
            f"offloadable={self.offloadable_count}>"
        )
