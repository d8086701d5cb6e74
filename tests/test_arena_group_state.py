"""Arena-mode group aggregation: deferred raw runs against the dict path.

In arena mode a :class:`GroupAggregateOperator` stores each batch as an
unfolded raw run and folds only when something reads the values.  Metrics
read only group sets and counts, so nothing else checks the folded values;
these tests pin them to the object path, check that stored runs own their
arrays even when the batch is a recycled fleet-arena view, that the shipped
state counts exactly and survives pickling (migration handoffs pickle
pending SP items across worker processes), and that closing the window
after the handoff still measures the shipped groups.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.analysis.experiments import make_setup
from repro.query.aggregates import AvgAggregate, MaxAggregate, MinAggregate
from repro.query.operators import ColumnarGroupState, GroupAggregateOperator
from repro.query.records import FleetArena, JobStatsRecord, RecordBatch


@pytest.fixture(scope="module")
def batches():
    workload = make_setup("s2s_probe", records_per_epoch=400).workload_factory(11)
    return [workload.batch_for_epoch(epoch) for epoch in range(6)]


def group_aggregate(key_columns=("src_ip", "dst_ip"), field="rtt"):
    return GroupAggregateOperator(
        "g",
        key_fn=lambda record: tuple(getattr(record, name) for name in key_columns),
        aggregates=[AvgAggregate(field), MaxAggregate(field), MinAggregate(field)],
        key_columns=key_columns,
    )


def rows_by_key(records):
    return {record.group_key: record for record in records}


class TestValuesMatchObjectPath:
    @pytest.mark.parametrize("prefold", [False, True])
    @pytest.mark.parametrize("sp_scalar_first", [False, True])
    def test_source_ship_sp_merge_flush(self, batches, prefold, sp_scalar_first):
        source, sp = group_aggregate(), group_aggregate()
        ref_source, ref_sp = group_aggregate(), group_aggregate()
        for batch in batches[:3]:
            source.process_batch(batch)
            ref_source.process(batch.to_records())
        if sp_scalar_first:
            # A dict-path batch first: the shipped runs then merge as dicts.
            sp.process(batches[3].to_records())
            ref_sp.process(batches[3].to_records())
        for batch in batches[4:]:
            sp.process_batch(batch)
            ref_sp.process(batch.to_records())

        shipped = source.take_partial_state()
        reference = ref_source.take_partial_state()
        assert isinstance(shipped, ColumnarGroupState)
        assert len(shipped) == len(reference)
        if prefold:
            # Reading a value folds the runs in place; the SP then holds a
            # folded chunk beside its own raw runs.
            assert int(shipped.counts.sum()) == sum(
                slots[0] for slots in reference.values()
            )
        sp.merge_partial(shipped)
        ref_sp.merge_partial(reference)
        expected_groups = ref_sp.group_count()
        assert sp.group_count() == expected_groups

        got, want = rows_by_key(sp.flush()), rows_by_key(ref_sp.flush())
        assert len(got) == expected_groups
        assert got.keys() == want.keys()
        for key, row in want.items():
            mine = got[key]
            assert mine.count == row.count, key
            assert mine.values["max(rtt)"] == row.values["max(rtt)"], key
            assert mine.values["min(rtt)"] == row.values["min(rtt)"], key
            assert math.isclose(
                mine.values["avg(rtt)"], row.values["avg(rtt)"], rel_tol=1e-12
            ), key
        # Both sides start the next window empty.
        assert sp.group_count() == 0 and sp.flush() == []


def job_stats_batch(tenants, stats):
    return RecordBatch(
        JobStatsRecord,
        {
            "event_time": np.arange(len(stats), dtype=np.float64),
            "tenant": np.asarray(tenants, dtype=np.int64),
            "stat": np.asarray(stats, dtype=np.float64),
        },
        uniform_size_bytes=40,
    )


class TestStoredRunsOwnTheirArrays:
    """``_vector_keys``/``_vector_values`` would otherwise hand back arena
    columns themselves (one key column; the ``stat`` field), and a stored run
    would change under the operator when the arena recycles its buffers."""

    @pytest.mark.parametrize("shape", ["one_key_column", "stat_field"])
    def test_recycled_arena_does_not_change_folded_state(self, batches, shape):
        if shape == "one_key_column":
            first, second = batches[0], batches[1][: len(batches[0])]
            key_columns, field = ("dst_ip",), "rtt"
        else:
            rng = np.random.default_rng(5)
            first = job_stats_batch(rng.integers(0, 9, 300), rng.random(300) * 100)
            second = job_stats_batch(rng.integers(0, 9, 300), rng.random(300) * 100)
            key_columns, field = ("tenant",), "stat"
        operator = group_aggregate(key_columns, field)
        reference = group_aggregate(key_columns, field)

        arena = FleetArena()
        arena.begin_epoch()
        assert arena.append_batch(0, first)
        view = arena.view(0)
        assert arena.aliases(view.column(key_columns[0]))
        operator.process_batch(view)
        reference.process_batch(first)

        arena.begin_epoch()
        assert arena.append_batch(0, second)
        refilled = arena.view(0).column(key_columns[0])
        assert refilled.base is view.column(key_columns[0]).base
        assert not np.array_equal(refilled, first.column(key_columns[0]))

        assert operator.partial_state() == reference.partial_state()


class TestShippedState:
    def test_group_count_matches_expanded_groups(self, batches):
        operator = group_aggregate()
        counts = []
        for batch in batches:
            operator.process_batch(batch)
            # Interleaved counts exercise the incremental distinct-key memo.
            counts.append(operator.group_count())
        assert counts == sorted(counts)
        shipped = operator.take_partial_state()
        assert shipped.group_count == len(shipped) == counts[-1]
        assert len(shipped.to_groups()) == counts[-1]
        assert shipped.group_count == counts[-1]  # still exact after folding

    def test_pickle_round_trip(self, batches):
        operator = group_aggregate()
        for batch in batches[:4]:
            operator.process_batch(batch)
        shipped = operator.take_partial_state()
        assert len(shipped.runs) == 4  # shipped unfolded
        restored = pickle.loads(pickle.dumps(shipped))
        assert isinstance(restored, ColumnarGroupState)
        assert restored.num_key_columns == 2
        assert restored.group_count == shipped.group_count
        assert restored.to_groups() == shipped.to_groups()

        receiver = group_aggregate()
        receiver.merge_partial(restored)
        assert receiver.group_count() == shipped.group_count


class TestWindowCloseAfterHandoff:
    """The source pipeline ships the partial state, then closes the window;
    the byte total it measures there is the G+R relay profiling reads."""

    @pytest.fixture
    def handed_off(self, batches):
        arena, reference = group_aggregate(), group_aggregate()
        for batch in batches[:3]:
            arena.process_batch(batch)
            reference.process(batch.to_records())
        shipped = arena.take_partial_state()
        assert isinstance(shipped, ColumnarGroupState)
        assert len(shipped) == len(reference.take_partial_state())
        return arena, reference, shipped

    def test_flush_bytes_counts_the_shipped_groups(self, handed_off):
        arena, reference, shipped = handed_off
        expected = reference.flush_bytes()
        assert expected > 0
        assert arena.flush_bytes() == expected
        assert arena.group_count() == 0
        assert shipped.group_count == len(shipped.to_groups())

    def test_flush_closes_the_window(self, handed_off):
        arena, reference, _ = handed_off
        got, want = rows_by_key(arena.flush()), rows_by_key(reference.flush())
        assert got.keys() == want.keys()
        assert arena.group_count() == 0 and arena.flush() == []

    def test_discard_window_closes_the_window(self, handed_off):
        arena, _, _ = handed_off
        arena.discard_window()
        assert arena.group_count() == 0 and arena.flush_bytes() == 0
