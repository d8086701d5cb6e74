"""Arena-mode group aggregation: deferred raw runs against the dict path.

In arena mode a :class:`GroupAggregateOperator` stores each batch as an
unfolded raw run and folds only when something reads the values.  Metrics
read only group sets and counts, so nothing else checks the folded values;
these tests pin them to the object path, check that stored runs own their
arrays even when the batch is a recycled fleet-arena view, that the shipped
state counts exactly and survives pickling (migration handoffs pickle
pending SP items across worker processes), and that closing the window
after the handoff still measures the shipped groups, and that the
distinct-key count kept as runs arrive is exact however the runs' keys
spread (hypothesis properties).
"""

from __future__ import annotations

import math
import pickle
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import make_setup
from repro.query.aggregates import AvgAggregate, MaxAggregate, MinAggregate
from repro.query.operators import (
    PRESENCE_SPAN_CAP,
    ColumnarGroupState,
    GroupAggregateOperator,
    append_runs,
)
from repro.query.records import (
    FleetArena,
    JobStatsRecord,
    PingmeshRecord,
    RecordBatch,
)


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
            assert mine.event_time == row.event_time, key
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


# -- the distinct-key count kept as runs arrive ----------------------------------

#: Where a run's second key column starts, and how far it spreads: together
#: they make the state's key span grow on either side, and past the cap.
LOWS = (0, 5, 1000, PRESENCE_SPAN_CAP - 3, 3 * PRESENCE_SPAN_CAP)
WIDTHS = (1, 7, 300, PRESENCE_SPAN_CAP - 1, 2 * PRESENCE_SPAN_CAP)
#: How a run reaches the state, or what the state does after it arrives.
STEPS = ("add", "add_loose", "append", "count", "fold", "pickle")


@st.composite
def key_runs(
    draw: st.DrawFn, one_column: bool = False
) -> List[Tuple[np.ndarray, str]]:
    """Runs of packed keys (or one-column keys, which may be negative), and
    how each reaches the state."""
    constant_first = draw(st.booleans())
    first_key = draw(st.integers(0, 3))
    runs = []
    for _ in range(draw(st.integers(1, 7))):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        size = draw(st.integers(1, 40))
        low = draw(st.sampled_from(LOWS))
        if one_column:
            low *= draw(st.sampled_from((1, -1)))
        keys = rng.integers(low, low + draw(st.sampled_from(WIDTHS)), size)
        if not one_column:
            firsts = (
                np.full(size, first_key) if constant_first else rng.integers(0, 4, size)
            )
            keys = (firsts << 32) | keys
        step = draw(st.sampled_from(STEPS))
        runs.append((keys.astype(np.int64), step))
    return runs


def distinct(runs: List[Tuple[np.ndarray, str]]) -> int:
    return len(np.unique(np.concatenate([keys for keys, _ in runs])))


class TestGroupCountOnArrival:
    @settings(max_examples=120, deadline=None)
    @given(runs=key_runs(), one_column=st.booleans(), data=st.data())
    def test_count_is_the_distinct_key_count(self, runs, one_column, data):
        """Whatever the runs' spans: counted on arrival (exact or loose
        bounds), appended for a later count, read mid-window, folded, or
        pickled as a migration handoff pickles it."""
        if one_column:
            runs = data.draw(key_runs(one_column=True))
        state = ColumnarGroupState(1 if one_column else 2)
        for index, (keys, step) in enumerate(runs):
            values = keys.astype(np.float64)
            low, high = int(keys.min()), int(keys.max())
            if step == "append":
                state.runs.append((keys, values))
            elif step == "add_loose":
                state.add_run(keys, values, low - 11, high + 2)
            else:
                state.add_run(keys, values, low, high)
            if step == "count":
                assert state.group_count == distinct(runs[: index + 1])
            elif step == "fold":
                assert len(state.fold()[0]) == distinct(runs[: index + 1])
                assert len(state.runs) == 1
            elif step == "pickle":
                state = pickle.loads(pickle.dumps(state))
        assert state.group_count == len(state) == distinct(runs)
        assert len(state.to_groups()) == distinct(runs)

    def test_a_source_window_counts_as_runs_arrive(self, batches):
        """One source's constant ``src_ip`` leaves its window's keys in one
        dense span: the source stepper's pass counts each run in the bitmap
        as it arrives, a run the object path appended uncounted included,
        so the window close sorts nothing."""
        operator = group_aggregate()
        for index, batch in enumerate(batches):
            if index == 2:
                operator.process_batch(batch)  # appended, not counted
                assert operator._vector_state._counted == index
                continue
            whole = [(0, len(batch))]
            assert append_runs([operator], batch, whole, count=True) == [True]
            state = operator._vector_state
            assert state._counted == len(state.runs) == index + 1
        assert state._present is not None
        assert len(state._present) <= PRESENCE_SPAN_CAP
        keys = np.concatenate([keys for keys, _ in state.runs])
        assert state.group_count == len(np.unique(keys))

    @settings(max_examples=60, deadline=None)
    @given(source_runs=key_runs(), sp_runs=key_runs(), prefold=st.booleans())
    def test_merged_states_count_both_sides(self, source_runs, sp_runs, prefold):
        """A shipped state's runs appended to a receiver's own: the
        receiver counts their union exactly."""
        source, sp = group_aggregate(), group_aggregate()
        for operator, runs in ((source, source_runs), (sp, sp_runs)):
            for keys, _ in runs:
                operator.process_batch(pingmesh_batch(keys))
        shipped = source.take_partial_state()
        if prefold:
            shipped.fold()
        sp.merge_partial(shipped)
        assert sp.group_count() == distinct(source_runs + sp_runs)


def pingmesh_batch(packed: np.ndarray) -> RecordBatch:
    """A Pingmesh batch whose ``(src_ip, dst_ip)`` pairs pack to ``packed``."""
    count = len(packed)
    return RecordBatch(
        PingmeshRecord,
        {
            "event_time": np.arange(count, dtype=np.float64),
            "src_ip": packed >> 32,
            "dst_ip": packed & 0xFFFFFFFF,
            "rtt_us": np.arange(count, dtype=np.float64) * 7.0,
            "err_code": np.zeros(count, dtype=np.int64),
        },
        uniform_size_bytes=86,
    )


class TestOnePassOverManyParts:
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=6),
        gaps=st.lists(st.integers(0, 5), min_size=6, max_size=6),
        bad=st.sets(st.integers(0, 5)),
        order=st.permutations(range(6)),
        count=st.booleans(),
    )
    def test_each_part_is_what_its_own_batch_appends(
        self, sizes, gaps, bad, order, count
    ):
        """Parts in any order, with rows between them: each operator ends
        with the run, bounds, event time and count its part alone gives,
        and a part whose keys fail the 31-bit proof is left untaken."""
        rng = np.random.default_rng(len(sizes) * 31 + sum(gaps))
        parts, rows = [], 0
        for size, gap in zip(sizes, gaps):
            rows += gap
            parts.append((rows, rows + size))
            rows += size
        dst = rng.integers(1000, 1300, rows + 3)
        for index in bad & set(range(len(parts))):
            dst[parts[index][0]] = -1
        batch = RecordBatch(
            PingmeshRecord,
            {
                "event_time": rng.random(rows + 3) * 10,
                "src_ip": np.full(rows + 3, 2, dtype=np.int64),
                "dst_ip": dst,
                "rtt_us": rng.random(rows + 3) * 1000,
                "err_code": np.zeros(rows + 3, dtype=np.int64),
            },
            uniform_size_bytes=86,
        )
        parts = [parts[index] for index in order if index < len(parts)]
        shared = [group_aggregate() for _ in parts]
        alone = [group_aggregate() for _ in parts]
        taken = append_runs(shared, batch, parts, count=count)
        for operator, ok, (start, stop) in zip(alone, taken, parts):
            part = batch[start:stop]
            assert ok == (int(part.column("dst_ip").min()) >= 0)
            if ok:
                assert append_runs([operator], part, [(0, len(part))]) == [True]
        for mine, theirs, ok in zip(shared, alone, taken):
            runs, expected_runs = mine._vector_state.runs, theirs._vector_state.runs
            assert len(runs) == len(expected_runs) == int(ok)
            for run, expected in zip(runs, expected_runs):
                assert all(np.array_equal(a, b) for a, b in zip(run, expected))
                assert all(column.base is None for column in run)
            assert mine._last_event_time == theirs._last_event_time
            assert mine._vector_state._counted == (int(ok) if count else 0)
            assert mine.group_count() == theirs.group_count()
