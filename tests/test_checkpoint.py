"""Tests for the Section IV-E checkpointing extension."""

from __future__ import annotations

import pytest

from repro.core.checkpoint import Checkpoint, CheckpointPolicy, CheckpointStore
from repro.errors import SimulationError
from repro.query.builder import s2s_probe_query
from repro.query.records import PingmeshRecord


def probes(n, dst_offset=0):
    return [PingmeshRecord(float(i), 1, 100 + dst_offset + (i % 5), 500.0 + i) for i in range(n)]


class TestCheckpointPolicy:
    def test_periodic_trigger(self):
        policy = CheckpointPolicy(every_epochs=5, on_anomaly=False)
        fired = [epoch for epoch in range(20) if policy.should_checkpoint(epoch)]
        assert fired == [4, 9, 14, 19]

    def test_anomaly_trigger(self):
        policy = CheckpointPolicy(every_epochs=0, on_anomaly=True)
        assert policy.should_checkpoint(3, anomaly_observed=True)
        assert not policy.should_checkpoint(3, anomaly_observed=False)

    def test_validation(self):
        with pytest.raises(SimulationError):
            CheckpointPolicy(every_epochs=-1)


class TestCheckpointStore:
    def make_operators(self):
        return [op.clone() for op in s2s_probe_query().logical_plan().operators]

    def test_capture_snapshots_stateful_state(self):
        operators = self.make_operators()
        operators[2].process(probes(20))
        store = CheckpointStore()
        checkpoint = store.capture(operators, epoch=4)
        assert isinstance(checkpoint, Checkpoint)
        assert "group_aggregate" in checkpoint.states
        assert checkpoint.size_bytes > 0
        assert store.latest is checkpoint

    def test_snapshot_is_isolated_from_live_state(self):
        operators = self.make_operators()
        operators[2].process(probes(10))
        store = CheckpointStore()
        checkpoint = store.capture(operators, epoch=0)
        groups_at_checkpoint = len(checkpoint.states["group_aggregate"])
        operators[2].process(probes(50, dst_offset=50))
        assert len(checkpoint.states["group_aggregate"]) == groups_at_checkpoint

    def test_restore_recovers_window_state_after_failure(self):
        operators = self.make_operators()
        operators[2].process(probes(30))
        expected_rows = {
            row.group_key: row.values
            for row in operators[2].clone().process(probes(30)) or []
        }
        store = CheckpointStore()
        store.capture(operators, epoch=2)

        # Simulate a node failure: fresh operators with empty state.
        recovered = self.make_operators()
        restored = store.restore(recovered)
        assert restored == 1
        rows = {row.group_key: row.values for row in recovered[2].flush()}
        original = self.make_operators()
        original[2].process(probes(30))
        reference = {row.group_key: row.values for row in original[2].flush()}
        assert rows.keys() == reference.keys()
        for key in reference:
            assert rows[key]["avg(rtt)"] == pytest.approx(reference[key]["avg(rtt)"])

    def test_restore_without_checkpoint_fails(self):
        with pytest.raises(SimulationError):
            CheckpointStore().restore(self.make_operators())

    def test_keep_last_bounds_history(self):
        operators = self.make_operators()
        store = CheckpointStore(keep_last=2)
        for epoch in range(5):
            operators[2].process(probes(5, dst_offset=epoch))
            store.capture(operators, epoch=epoch)
        assert len(store) == 2
        assert store.latest.epoch == 4

    def test_maybe_capture_follows_policy(self):
        operators = self.make_operators()
        operators[2].process(probes(5))
        store = CheckpointStore(CheckpointPolicy(every_epochs=3, on_anomaly=True))
        assert store.maybe_capture(operators, epoch=0) is None
        assert store.maybe_capture(operators, epoch=2) is not None
        assert store.maybe_capture(operators, epoch=3, anomaly_observed=True) is not None
        assert len(store) == 2

    def test_total_checkpoint_bytes_accumulates(self):
        operators = self.make_operators()
        operators[2].process(probes(10))
        store = CheckpointStore()
        store.capture(operators, epoch=0)
        store.capture(operators, epoch=1)
        assert store.total_checkpoint_bytes >= 2 * store.latest.size_bytes

    def test_validation(self):
        with pytest.raises(SimulationError):
            CheckpointStore(keep_last=0)
