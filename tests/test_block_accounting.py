"""The accountant's block form equals its one-source form.

:meth:`EpochAccountant.finish_block_epoch` computes every source's goodput
debits, backlog-drain time, latency and query state in one pass over the
block; :meth:`EpochAccountant.finish_source_epoch` is its one-source form.
For random per-source terms, each source's metrics from the block pass
must read, ``repr`` for ``repr``, what the source gets accounted alone, and
leave the same previous queue levels behind.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import make_setup
from repro.core.control_proxy import ProxyObservation
from repro.core.state import OperatorState, RuntimePhase
from repro.simulation.engine import BlockStep, EpochAccountant, SourceState
from repro.simulation.pipeline import BlockEpoch, SourceEpochResult, SourcePipeline

EPOCH_S = 1.0
QUEUES = ("carryover", "sp_backlog")


@pytest.fixture(scope="module")
def setup():
    return make_setup("s2s_probe", records_per_epoch=60)


class _Strategy:
    """A strategy stub: a name, a runtime phase, or none."""

    name = "stub"

    def __init__(self, phase: object) -> None:
        if phase is not None:
            self.phase = phase


counts_st = st.one_of(st.just(0), st.integers(0, 50), st.integers(0, 100_000))
bytes_st = st.one_of(st.just(0.0), st.floats(0.0, 1e7))
source_st = st.fixed_dictionaries(
    {
        # Zero-record epochs included.
        "records_in": counts_st,
        "input_bytes": bytes_st,
        "cpu_used": st.floats(0.0, 2.0),
        "budget": st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        # Backlog or none; with a zero budget, a backlog never drains.
        "pending": st.lists(counts_st, min_size=3, max_size=3),
        "rejected": st.one_of(st.just(0), counts_st),
        "partial_state_bytes": bytes_st,
        "states": st.lists(st.sampled_from(list(OperatorState)), min_size=3, max_size=3),
        "avg_record_bytes": st.floats(1.0, 2_000.0),
        # Previous levels above the current ones are shrinking queues.
        "prev_backlog_bytes": bytes_st,
        "prev_queues": st.dictionaries(st.sampled_from(QUEUES), bytes_st),
        "queues": st.tuples(bytes_st, bytes_st),
        "sent": bytes_st,
        "reported": bytes_st,
        # A source that did not contend has no network delay.
        "network_delay": st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
        "sp_cpu": st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
        "phase": st.sampled_from([None, RuntimePhase.PROBE, RuntimePhase.ADAPT, "x"]),
        "load_factors": st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=3, max_size=3),
    }
)


def build(
    setup, draws: List[Dict[str, object]]
) -> Tuple[List[SourceState], List[SourceEpochResult]]:
    """Fresh source states and epoch results for the drawn sources."""
    states, results = [], []
    for index, draw in enumerate(draws):
        pipeline = SourcePipeline(
            setup.plan.source_operators(),
            setup.cost_model,
            setup.config.thresholds,
            setup.plan.window_length_s,
            EPOCH_S,
        )
        pipeline.set_load_factors(draw["load_factors"])
        state = SourceState(
            f"s{index}",
            workload=None,
            strategy=_Strategy(draw["phase"]),
            budget=1.0,
            pipeline=pipeline,
        )
        state.avg_record_bytes = draw["avg_record_bytes"]
        state.prev_backlog_bytes = draw["prev_backlog_bytes"]
        state.prev_queue_bytes = dict(draw["prev_queues"])
        states.append(state)
        results.append(
            SourceEpochResult(
                epoch=7,
                records_in=draw["records_in"],
                input_bytes=draw["input_bytes"],
                cpu_used_seconds=draw["cpu_used"],
                cpu_budget_seconds=draw["budget"] * EPOCH_S,
                partial_state_bytes=draw["partial_state_bytes"],
                rejected_records=draw["rejected"],
                processed_per_stage=[0, 0, 0],
                pending_per_stage=list(draw["pending"]),
                forwarded_per_stage=[0, 0, 0],
                queue_drained_per_stage=[0, 0, 0],
                rejected_per_stage=[draw["rejected"], 0, 0],
                observations=[
                    ProxyObservation(state, 0, 0, 0, 0, 0, 0.0)
                    for state in draw["states"]
                ],
            )
        )
    return states, results


def reference_terms(
    setup, state: SourceState, src: SourceEpochResult, draw: Dict[str, object], sp_delay: float
) -> Tuple[float, float]:
    """Goodput and latency by the scalar arithmetic the accountant ran per
    source before its block form, on ``state`` before it is accounted."""
    backlog_bytes = src.backlog_records * state.avg_record_bytes
    debits = [backlog_bytes - state.prev_backlog_bytes]
    for q, name in enumerate(QUEUES):
        debits.append(draw["queues"][q] - state.prev_queue_bytes.get(name, 0.0))
    debits.append(src.rejected_records * state.avg_record_bytes)
    total = src.input_bytes
    for debit in debits:
        total -= debit
    goodput = max(0.0, min(src.input_bytes, total))
    costs = [
        setup.cost_model.cost_per_record(stage.operator) for stage in state.pipeline.stages
    ]
    positive = [cost for cost in costs if cost > 0]
    mean_cost = sum(positive) / len(positive) if positive else 0.0
    budget = draw["budget"]
    if budget > 0:
        backlog_s = src.backlog_records * mean_cost / budget
    else:
        backlog_s = 0.0 if src.backlog_records == 0 else float("inf")
    latency = 0.5 * EPOCH_S + backlog_s + draw["network_delay"] + sp_delay
    return goodput, latency


class TestBlockFormEqualsOneSourceForm:
    @settings(max_examples=60, deadline=None)
    @given(
        draws=st.lists(source_st, min_size=1, max_size=24), sp_delay=st.floats(0.0, 9.0)
    )
    def test_every_source_reads_what_it_reads_alone(self, setup, draws, sp_delay):
        states, results = build(setup, draws)
        step = BlockStep(
            states,
            [draw["budget"] for draw in draws],
            BlockEpoch.from_results(results, 3),
        )
        block = EpochAccountant.finish_block_epoch(
            step,
            setup.cost_model,
            EPOCH_S,
            shared_queue_bytes=[
                (name, [draw["queues"][q] for draw in draws])
                for q, name in enumerate(QUEUES)
            ],
            network_bytes=[src.network_bytes for src in results],
            sent_bytes=[draw["sent"] for draw in draws],
            reported_queue_bytes=[draw["reported"] for draw in draws],
            network_delay_s=[draw["network_delay"] for draw in draws],
            sp_cpu_seconds=[draw["sp_cpu"] for draw in draws],
            sp_delay_s=sp_delay,
        )

        alone_states, alone_results = build(setup, draws)
        for index, (state, src, draw) in enumerate(zip(alone_states, alone_results, draws)):
            goodput, latency = reference_terms(setup, state, src, draw, sp_delay)
            assert (block[index].goodput_bytes, block[index].latency_s) == (
                goodput,
                latency,
            ), index
            alone = EpochAccountant.finish_source_epoch(
                state,
                src,
                draw["budget"],
                setup.cost_model,
                EPOCH_S,
                shared_queue_bytes=[
                    (name, draw["queues"][q]) for q, name in enumerate(QUEUES)
                ],
                sent_bytes=draw["sent"],
                reported_queue_bytes=draw["reported"],
                network_delay_s=draw["network_delay"],
                sp_cpu_seconds=draw["sp_cpu"],
                sp_delay_s=sp_delay,
            )
            assert repr(block[index]) == repr(alone), index
            assert states[index].prev_backlog_bytes == state.prev_backlog_bytes
            assert states[index].prev_queue_bytes == state.prev_queue_bytes

    def test_a_stalled_backlog_reads_infinite_latency(self, setup):
        """A zero budget with a backlog never drains it; without a backlog
        the source waits only for its batch."""
        base = dict(
            records_in=10, input_bytes=860.0, cpu_used=0.0, budget=0.0,
            rejected=0, partial_state_bytes=0.0,
            states=[OperatorState.STABLE] * 3, avg_record_bytes=86.0,
            prev_backlog_bytes=0.0, prev_queues={}, queues=(0.0, 0.0), sent=0.0,
            reported=0.0, network_delay=0.0, sp_cpu=0.0, phase=None,
            load_factors=[1.0, 1.0, 1.0],
        )
        draws = [dict(base, pending=[0, 5, 0]), dict(base, pending=[0, 0, 0])]
        states, results = build(setup, draws)
        stalled, waiting = EpochAccountant.finish_block_epoch(
            BlockStep(states, [0.0, 0.0], BlockEpoch.from_results(results, 3)),
            setup.cost_model,
            EPOCH_S,
            network_bytes=[src.network_bytes for src in results],
            sent_bytes=[0.0, 0.0],
            reported_queue_bytes=[0.0, 0.0],
            network_delay_s=[0.0, 0.0],
            sp_cpu_seconds=[0.0, 0.0],
        )
        assert stalled.latency_s == float("inf")
        assert waiting.latency_s == 0.5 * EPOCH_S
