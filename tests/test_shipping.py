"""Shipping a carryover queue: whole items against the per-item walk.

``MultiSourceExecutor._ship`` moves a carryover batch whose remaining bytes
fit the allocation to the stream processor's queue as it is, and plans and
cuts only a head that ships in part (record lists it still plans item by
item).  The reference below is the walk it replaced, which planned and cut
every record item
(:func:`~repro.simulation.network.plan_fifo_transfer`).  On random queues
and allocations, shipped over a few epochs, both must send the same bytes
and leave the same queues, and the demand ``_ship`` reports as left must be
what :meth:`~MultiSourceExecutor._remaining_demand` reads off the queue.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import Any, Deque, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import make_setup
from repro.query.records import RecordBatch, record_size_bytes
from repro.simulation.multisource import MultiSourceExecutor, _TransferItem

TOLERANCE = 1e-9


def reference_ship(
    executor: MultiSourceExecutor, state: SimpleNamespace, allocation: float
) -> float:
    """The per-item walk: every record item is planned and cut, even one
    whose records all complete."""
    budget_bytes = allocation
    sent_bytes = 0.0
    completed_bytes = 0.0
    while state.carryover:
        item = state.carryover[0]
        if item.stage_index == -2:
            remaining_bytes = item.size_bytes - item.progress_bytes
            if remaining_bytes > TOLERANCE and budget_bytes <= TOLERANCE:
                break
            take_bytes = min(budget_bytes, remaining_bytes)
            item.progress_bytes += take_bytes
            sent_bytes += take_bytes
            budget_bytes -= take_bytes
            if item.size_bytes - item.progress_bytes <= TOLERANCE:
                completed_bytes += item.size_bytes
                state.carryover.popleft()
                executor._sp_free.append((state.name, item))
            continue
        drained = item.stage_index >= 0
        plan = MultiSourceExecutor._plan_item_transfer(
            item.records, drained, item.progress_bytes, budget_bytes, TOLERANCE
        )
        if plan.completed_records:
            shipped = item.records[: plan.completed_records]
            item.records = item.records[plan.completed_records :]
            completed_bytes += plan.completed_bytes
            queue = executor._sp_pending if drained else executor._sp_free
            queue.append(
                (
                    state.name,
                    _TransferItem(
                        stage_index=item.stage_index,
                        records=shipped,
                        size_bytes=float(plan.completed_bytes),
                    ),
                )
            )
        item.progress_bytes = plan.new_progress_bytes
        sent_bytes += plan.sent_bytes
        budget_bytes = plan.budget_left
        if item.records:
            break
        state.carryover.popleft()
    state.carryover_bytes = max(0.0, state.carryover_bytes - completed_bytes)
    return sent_bytes


@pytest.fixture(scope="module")
def world() -> Dict[str, object]:
    """The setup to build empty blocks from, and pools of records to queue."""
    probe = make_setup("s2s_probe", records_per_epoch=64)
    logs = make_setup("log_analytics", records_per_epoch=64)
    return {
        "setup": probe,
        # Arena batches, fixed-size record objects, variable-size log lines.
        "batch": probe.workload_factory(3).batch_for_epoch(0),
        "probes": list(probe.workload_factory(4).records_for_epoch(0)),
        "lines": list(logs.workload_factory(5).records_for_epoch(0)),
    }


def empty_block(setup: Any) -> MultiSourceExecutor:
    return MultiSourceExecutor(
        setup.plan, setup.cost_model, [], allow_empty_fleet=True
    )


def draw_queue(
    data: st.DataObject, world: Dict[str, Any]
) -> List[Tuple[int, Any, object, float]]:
    """``(stage, records, state, size_bytes)`` per item, head first."""
    items = []
    for _ in range(data.draw(st.integers(1, 6))):
        kind = data.draw(st.sampled_from(["batch", "probes", "lines", "blob"]))
        if kind == "blob":
            # Partial-state blobs, zero-byte ones included.
            size = data.draw(
                st.one_of(st.sampled_from([0.0, 48.0, 96.0]), st.floats(0.0, 900.0))
            )
            items.append((-2, [], object(), size))
            continue
        pool = world[kind]
        length = data.draw(st.integers(1, 24))
        start = data.draw(st.integers(0, len(pool) - length))
        records = pool[start : start + length]
        # Drained at a stage, or emitted by the last one.
        stage = data.draw(st.sampled_from([0, 1, 2, -1]))
        size = float(record_size_bytes(records, drain=stage >= 0))
        items.append((stage, records, None, size))
    return items


def build_state(
    items: List[Tuple[int, Any, object, float]], head_progress: float
) -> SimpleNamespace:
    carryover: Deque[_TransferItem] = deque()
    total = 0.0
    for stage, records, blob, size in items:
        carryover.append(
            _TransferItem(
                stage_index=stage,
                records=records,
                state=blob,
                state_stage=2 if stage == -2 else -1,
                size_bytes=size,
            )
        )
        total += size
    carryover[0].progress_bytes = head_progress
    return SimpleNamespace(name="source-0", carryover=carryover, carryover_bytes=total)


def remaining_bytes(item: _TransferItem) -> float:
    """What ``item`` still has to move across the link."""
    if item.stage_index == -2:
        return item.size_bytes - item.progress_bytes
    total = record_size_bytes(item.records, drain=item.stage_index >= 0)
    return total - item.progress_bytes


#: Offsets around a byte boundary, on both sides of the 1e-9 tolerance.
EDGES = st.sampled_from([0.0, 1e-10, -1e-10, 1e-9, -1e-9, 2e-9, -2e-9, -5e-9])


def draw_allocation(data: st.DataObject, state: SimpleNamespace) -> float:
    """Below the demand, at it, within 1e-9 of it, above it, or around the
    end of one of the queue's items."""
    demand = state.carryover_bytes
    if state.carryover:
        demand -= state.carryover[0].progress_bytes
    demand = max(0.0, demand)
    where = data.draw(
        st.sampled_from(["below", "at", "near", "above", "item end", "item end"])
    )
    if where == "below":
        allocation = demand * data.draw(st.floats(0.0, 1.0, exclude_max=True))
    elif where == "at":
        allocation = demand
    elif where == "near":
        allocation = demand + data.draw(st.one_of(st.floats(-1e-9, 1e-9), EDGES))
    elif where == "above":
        allocation = demand + data.draw(st.floats(0.0, 5000.0))
    else:
        items = list(state.carryover)
        count = data.draw(st.integers(1, max(1, len(items))))
        allocation = sum(remaining_bytes(item) for item in items[:count])
        allocation += data.draw(EDGES)
    return max(0.0, allocation)


def contents(records: Any) -> tuple:
    if isinstance(records, RecordBatch):
        return tuple(tuple(column.tolist()) for column in records.columns.values())
    return tuple(map(id, records))


def left(state: SimpleNamespace) -> list:
    return [
        (item.stage_index, len(item.records), item.progress_bytes, contents(item.records))
        for item in state.carryover
    ]


def queued(queue: Deque[Tuple[str, _TransferItem]]) -> list:
    return [
        (
            owner,
            item.stage_index,
            len(item.records),
            item.size_bytes,
            contents(item.records),
            id(item.state),
        )
        for owner, item in queue
    ]


class TestWholeItemsShipAsTheWalkDid:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_queues_over_several_epochs(
        self, world: Dict[str, Any], data: st.DataObject
    ) -> None:
        items = draw_queue(data, world)
        head_stage, head_records, _, head_size = items[0]
        head_progress = 0.0
        if data.draw(st.booleans()):
            # A head with progress: part of its first record, or of its blob.
            first = (
                head_size
                if head_stage == -2
                else float(record_size_bytes(head_records[:1], drain=head_stage >= 0))
            )
            head_progress = data.draw(st.floats(0.0, first, exclude_max=first > 0))
        reference = build_state(items, head_progress)
        shipped = build_state(items, head_progress)
        reference_block = empty_block(world["setup"])
        block = empty_block(world["setup"])
        for epoch in range(data.draw(st.integers(1, 4))):
            allocation = draw_allocation(data, reference)
            want = reference_ship(reference_block, reference, allocation)
            got, unsent = block._ship(shipped, allocation)
            assert got == want, epoch
            assert unsent == MultiSourceExecutor._remaining_demand(reference), epoch
            assert shipped.carryover_bytes == reference.carryover_bytes, epoch
            assert left(shipped) == left(reference), epoch
            assert queued(block._sp_pending) == queued(reference_block._sp_pending)
            assert queued(block._sp_free) == queued(reference_block._sp_free)
