"""The block stepper's count pass against a scalar reference.

The reference below is the per-source rules the pipeline applied before it
decided a block's counts as arrays: a pipeline stage's admission (routing,
the profiling and CPU-budget cuts, congestion relief, backpressure), a
control proxy's routing (``route``) and its epoch observation
(``observe``), one source at a time in plain Python.  The array pass
(:func:`stage_counts`, :func:`observe_stages`) must give every source the
same counts and states.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import make_setup
from repro.config import ProxyThresholds
from repro.core.control_proxy import threshold_columns
from repro.core.state import OPERATOR_STATES, OperatorState
from repro.query.records import half_up
from repro.simulation.pipeline import SourcePipeline, observe_stages, stage_counts


# -- the scalar reference ------------------------------------------------------


def reference_route(load_factor: float, n: int) -> int:
    """``ControlProxy.route``: the forwarded count of ``n`` records."""
    n_forward = half_up(load_factor * n)
    return min(n, max(0, n_forward))


def reference_admit(
    thresholds: ProxyThresholds,
    incoming: int,
    queued: int,
    records_in: int,
    load_factor: float,
    profile: bool,
    relief: bool,
    cost: float,
    available: float,
) -> Dict[str, int]:
    """One source's stage admission: ``_admit`` and ``_keep_pending``."""
    if profile:
        forwarded = incoming if cost <= 1e-15 else min(incoming, int(available / cost))
    else:
        forwarded = reference_route(load_factor, incoming)
    total = queued + forwarded
    processed = total if cost <= 1e-15 else min(total, int(available / cost))
    pending = total - processed
    counts = dict(
        forwarded=forwarded,
        processed=processed,
        relieved=0,
        relief_start=total,
        head=0,
        tail=0,
        rejected=0,
    )
    if not pending:
        return counts
    congestion_floor = max(
        thresholds.congestion_pending_records,
        int(math.ceil(thresholds.drained_thres * max(1, incoming))),
    )
    relief_start = relief_stop = total
    if relief and pending > congestion_floor:
        relief_start = processed + congestion_floor
        relief_cap = int(math.ceil(thresholds.drained_thres * max(1, records_in)))
        relief_stop = min(total, relief_start + relief_cap)
        if relief_stop <= relief_start:
            relief_start = relief_stop = total
    head = relief_start - processed
    tail = total - relief_stop
    capacity = max(
        1, int(math.ceil(thresholds.queue_capacity_epochs * max(1, records_in)))
    )
    rejected = 0
    if head + tail > capacity:
        fresh = max(0, relief_start - max(processed, queued)) + max(
            0, total - max(relief_stop, queued)
        )
        rejected = min(head + tail - capacity, fresh)
        from_tail = min(tail, rejected)
        tail -= from_tail
        head -= rejected - from_tail
    counts.update(
        relieved=relief_stop - relief_start,
        relief_start=relief_start,
        head=head,
        tail=tail,
        rejected=rejected,
    )
    return counts


def reference_observe(
    thresholds: ProxyThresholds, incoming: int, pending: int, idle_fraction: float
) -> OperatorState:
    """``ControlProxy.observe``'s state."""
    congestion_floor = max(
        thresholds.congestion_pending_records,
        int(math.ceil(thresholds.drained_thres * max(1, incoming))),
    )
    if pending > congestion_floor:
        return OperatorState.CONGESTED
    if idle_fraction > thresholds.idle_thres and pending == 0:
        return OperatorState.IDLE
    return OperatorState.STABLE


def reference_epoch(
    thresholds: ProxyThresholds,
    source: Dict[str, object],
    costs: List[float],
    budget_s: float,
) -> Tuple[List[Dict[str, int]], List[Tuple[OperatorState, int, int, float]]]:
    """One source through a chain of stages whose operators pass every
    record on, at its own per-record cost per stage; returns its stage
    counts and its proxies' observations."""
    used = 0.0
    incoming = source["records_in"]
    stages = []
    for stage, cost in enumerate(costs):
        available = max(0.0, budget_s - used)
        counts = reference_admit(
            thresholds,
            incoming,
            source["queued"][stage],
            source["records_in"],
            source["load_factors"][stage],
            source["profile"],
            source["relief"],
            cost,
            available,
        )
        used += counts["processed"] * cost
        counts["pending"] = source["queued"][stage] + counts["forwarded"] - counts["processed"]
        counts["incoming"] = incoming
        stages.append(counts)
        incoming = counts["processed"]
    idle_fraction = 0.0
    if budget_s > 0:
        idle_fraction = max(0.0, (budget_s - used) / budget_s)
    observations = []
    for counts in stages:
        queue_idle = idle_fraction if counts["head"] + counts["tail"] == 0 else 0.0
        idle = float(min(1.0, max(0.0, queue_idle)))
        routed_incoming = 0 if source["profile"] else counts["incoming"]
        state = reference_observe(thresholds, routed_incoming, counts["pending"], idle)
        observations.append((state, routed_incoming, counts["pending"], idle))
    return stages, observations


# -- the array pass over the same chain ------------------------------------------


def array_epoch(
    thresholds: List[ProxyThresholds],
    sources: List[Dict[str, object]],
    costs: List[float],
    budgets_s: List[float],
):
    columns = threshold_columns(thresholds)
    count = len(sources)

    def column(name: str, dtype: type) -> np.ndarray:
        return np.array([source[name] for source in sources], dtype=dtype)

    records_in = column("records_in", np.int64)
    profiles = column("profile", bool)
    relief = column("relief", bool)
    budget_s = np.array(budgets_s)
    used_s = np.zeros(count)
    incoming = records_in
    per_stage = []
    for stage, cost in enumerate(costs):
        queued = np.array([source["queued"][stage] for source in sources], dtype=np.int64)
        factors = np.array([source["load_factors"][stage] for source in sources])
        counts = stage_counts(
            columns,
            incoming,
            queued,
            records_in,
            factors,
            profiles,
            relief,
            cost,
            np.maximum(0.0, budget_s - used_s),
        )
        used_s = used_s + counts.processed_records * cost
        per_stage.append((incoming, queued, counts))
        incoming = counts.processed_records
    pending = np.array([c.pending_records for _, _, c in per_stage])
    queue_lengths = np.array([c.head_records + c.tail_records for _, _, c in per_stage])
    routed_incoming = np.array([i for i, _, _ in per_stage]) * ~profiles
    codes, idle = observe_stages(
        columns, budget_s, used_s, routed_incoming, pending, queue_lengths
    )
    return per_stage, routed_incoming, pending, codes, idle


# -- the property ------------------------------------------------------------------

#: Record counts from empty to 10^5, with small and odd counts well covered.
records_st = st.one_of(
    st.integers(0, 8), st.integers(0, 400), st.integers(0, 100_000)
)
#: Load factors including exact halves (odd counts then round half up).
factor_st = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 0.25, 0.75]), st.floats(0.0, 1.0)
)
#: Queues from empty past the congestion floor and past backpressure capacity.
queued_st = st.one_of(st.integers(0, 20), st.integers(0, 300_000))
source_st = st.fixed_dictionaries(
    {
        "records_in": records_st,
        "queued": st.lists(queued_st, min_size=3, max_size=3),
        "load_factors": st.lists(factor_st, min_size=3, max_size=3),
        "profile": st.booleans(),
        "relief": st.booleans(),
    }
)
#: Zero-cost (the free Window) and positive-cost stages.
cost_st = st.one_of(
    st.just(0.0), st.just(1e-16), st.floats(1e-7, 1e-2), st.sampled_from([3.25e-4, 2.3e-3])
)
#: Budgets from none to ample, in CPU seconds.
budget_st = st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 4.0))
thresholds_st = st.one_of(
    st.just(ProxyThresholds()),
    st.builds(
        ProxyThresholds,
        drained_thres=st.floats(0.0, 1.0),
        idle_thres=st.floats(0.0, 1.0),
        congestion_pending_records=st.integers(0, 64),
        queue_capacity_epochs=st.floats(0.1, 4.0),
    ),
)


class TestStageCountsMatchTheScalarRules:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        sources=st.lists(source_st, min_size=1, max_size=64),
        costs=st.lists(cost_st, min_size=3, max_size=3),
    )
    def test_every_source_counts_as_it_did_alone(self, data, sources, costs):
        count = len(sources)
        budgets = data.draw(st.lists(budget_st, min_size=count, max_size=count))
        shared = data.draw(st.booleans())
        thresholds = (
            [data.draw(thresholds_st)] * count
            if shared
            else data.draw(st.lists(thresholds_st, min_size=count, max_size=count))
        )
        per_stage, routed, pending, codes, idle = array_epoch(
            thresholds, sources, costs, budgets
        )
        for index, source in enumerate(sources):
            stages, observations = reference_epoch(
                thresholds[index], source, costs, budgets[index]
            )
            for stage, (expected, (_, _, counts)) in enumerate(zip(stages, per_stage)):
                relieved = int(counts.relief_stop[index] - counts.relief_start[index])
                got = dict(
                    forwarded=int(counts.forwarded_records[index]),
                    processed=int(counts.processed_records[index]),
                    relieved=relieved,
                    relief_start=int(counts.relief_start[index]),
                    head=int(counts.head_records[index]),
                    tail=int(counts.tail_records[index]),
                    rejected=int(counts.rejected_records[index]),
                )
                want = {key: expected[key] for key in got}
                if not relieved:
                    # Without relief the range is empty, wherever it sits.
                    got.pop("relief_start")
                    want.pop("relief_start")
                assert got == want, (index, stage)
                state, routed_incoming, pending_n, idle_fraction = observations[stage]
                assert OPERATOR_STATES[int(codes[stage, index])] is state, (index, stage)
                assert int(routed[stage, index]) == routed_incoming
                assert int(pending[stage, index]) == pending_n
                assert idle[stage, index].item() == idle_fraction


# -- a profiling epoch's observations ------------------------------------------------


@pytest.fixture(scope="module")
def probe_setup():
    return make_setup("s2s_probe", records_per_epoch=400)


class TestProfilingEpochObservations:
    def test_a_profiling_epoch_reports_no_routed_records(self, probe_setup):
        """Pins a known fault (ROADMAP): a profiling epoch bypasses routing,
        so every proxy reports 0 incoming, forwarded and drained records
        although 400 records flow and 162 drain at stage 2.  Counting them
        moves the ablation figure pins; until a change that may move
        numbers mends it, the array pass reproduces it exactly."""
        setup = probe_setup
        pipeline = SourcePipeline(
            setup.plan.source_operators(),
            setup.cost_model,
            setup.config.thresholds,
            setup.plan.window_length_s,
            setup.config.epoch.duration_s,
        )
        pipeline.set_load_factors([1.0, 0.5, 0.5])
        workload = setup.workload_factory(1)
        result = pipeline.run_epoch(workload.records_for_epoch(0), 0.55, profile=True)
        assert result.forwarded_per_stage == [400, 400, 180]
        assert [(stage, len(records)) for stage, records in result.drained] == [(2, 162)]
        idle = 0.0025369978858352286
        assert [tuple(obs) for obs in result.observations] == [
            (OperatorState.STABLE, 0, 0, 0, 400, 0, idle),
            (OperatorState.STABLE, 0, 0, 0, 400, 0, idle),
            (OperatorState.STABLE, 0, 0, 0, 180, 0, idle),
        ]
        # The next, routed epoch counts its records.
        result = pipeline.run_epoch(workload.records_for_epoch(1), 0.55)
        idle = 0.5097251585623679
        assert [tuple(obs) for obs in result.observations] == [
            (OperatorState.IDLE, 400, 400, 0, 400, 0, idle),
            (OperatorState.IDLE, 400, 200, 200, 200, 0, idle),
            (OperatorState.IDLE, 176, 88, 88, 88, 0, idle),
        ]
