"""Unit tests for the synthetic workload generators and trace utilities."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.query.records import FleetArena, LogRecord, PingmeshRecord, half_up
from repro.workloads.dynamics import BurstSpec, WorkloadBurst
from repro.workloads.loganalytics import LogAnalyticsConfig, LogAnalyticsWorkload
from repro.workloads.pingmesh import PingmeshConfig, PingmeshWorkload
from repro.workloads.traces import per_pair_latency_ranges, record_trace


class TestPingmeshConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            PingmeshConfig(records_per_epoch=0)
        with pytest.raises(WorkloadError):
            PingmeshConfig(peers=0)
        with pytest.raises(WorkloadError):
            PingmeshConfig(error_rate=1.5)
        with pytest.raises(WorkloadError):
            PingmeshConfig(anomaly_peer_fraction=-0.1)


class TestPingmeshWorkload:
    def make(self, **kwargs):
        defaults = dict(records_per_epoch=500, peers=1000, seed=5)
        defaults.update(kwargs)
        return PingmeshWorkload(PingmeshConfig(**defaults))

    def test_record_count_and_type(self):
        workload = self.make()
        records = workload.records_for_epoch(0)
        assert len(records) == 500
        assert all(isinstance(r, PingmeshRecord) for r in records)

    def test_error_rate_close_to_configuration(self):
        workload = self.make(records_per_epoch=2000, error_rate=0.14)
        records = workload.records_for_epoch(0)
        observed = sum(1 for r in records if r.err_code != 0) / len(records)
        assert observed == pytest.approx(0.14, abs=0.03)

    def test_event_times_are_monotone_within_epoch(self):
        records = self.make().records_for_epoch(3)
        times = [r.event_time for r in records]
        assert times == sorted(times)
        assert 3.0 <= times[0] < 4.0

    def test_deterministic_for_same_seed(self):
        a = self.make(seed=9).records_for_epoch(0)
        b = self.make(seed=9).records_for_epoch(0)
        assert [r.as_dict() for r in a] == [r.as_dict() for r in b]

    def test_different_seeds_differ(self):
        a = self.make(seed=1).records_for_epoch(0)
        b = self.make(seed=2).records_for_epoch(0)
        assert [r.rtt_us for r in a] != [r.rtt_us for r in b]

    def test_anomalous_peers_show_high_latency(self):
        workload = self.make(
            records_per_epoch=2000,
            anomaly_peer_fraction=0.05,
            anomaly_probability=1.0,
        )
        records = [r for epoch in range(5) for r in workload.records_for_epoch(epoch)]
        # The generator's flag per peer (``dst_ip - 1000``).
        flags = workload._anomalous_np
        anomalous = [r for r in records if flags[r.dst_ip - 1000]]
        normal = [r for r in records if not flags[r.dst_ip - 1000]]
        assert anomalous, "some probes must hit anomalous peers"
        assert max(r.rtt_ms for r in anomalous) >= 5.0
        assert max(r.rtt_ms for r in normal) < 5.0

    def test_input_rate_estimate(self):
        workload = self.make(records_per_epoch=1000)
        assert workload.input_rate_mbps == pytest.approx(1000 * 86 * 8 / 1e6)

    def test_tor_table_covers_all_destinations(self):
        workload = self.make(peers=200)
        table = workload.tor_table(servers_per_tor=20)
        records = workload.records_for_epoch(0)
        assert all(table.lookup(r.dst_ip) is not None for r in records)

    @pytest.mark.parametrize("peers", [600, 12500])
    def test_peer_range_samples_and_maps_like_a_peer_list(self, peers):
        # The peers are held as a range; sampling and the ToR table must see
        # exactly what a list of the same ints gives.
        listed = list(range(1000, 1000 + peers))
        for seed in range(11):
            config = PingmeshConfig(records_per_epoch=10, peers=peers, seed=seed)
            workload = PingmeshWorkload(config, src_ip=7)
            count = half_up(peers * config.anomaly_peer_fraction)
            sampled = random.Random(seed).sample(listed, count)
            expected_flags = np.zeros(peers, dtype=bool)
            expected_flags[np.array(sampled, dtype=np.int64) - 1000] = True
            assert np.array_equal(workload._anomalous_np, expected_flags)
            expected = {ip: ip // 40 for ip in listed}
            expected[7] = 7 // 40
            assert workload.tor_table()._mapping == expected

    def test_key_cardinality_bounded_by_peers(self):
        workload = self.make(records_per_epoch=3000, peers=100)
        records = workload.records_for_epoch(0)
        pairs = {(r.src_ip, r.dst_ip) for r in records}
        assert len(pairs) <= 100


class TestPingmeshGeneration:
    """``batch_for_epoch`` and ``fill_arena`` share one generation kernel.

    No metric reads ``rtt_us``, so the identity suites would not notice a
    changed value; these tests pin the generated columns themselves.
    """

    #: (records per epoch, peers): the per-epoch record count divides the
    #: peer count (the benchmark shape), does not divide it (the peer cursor
    #: wraps mid-epoch), and exceeds it (an epoch covers every peer, then
    #: wraps).
    SHAPES = [(100, 500), (7, 20), (30, 20)]

    @pytest.mark.parametrize("records,peers", SHAPES)
    def test_fill_arena_writes_the_batch_columns(self, records, peers):
        config = PingmeshConfig(records_per_epoch=records, peers=peers, seed=4)
        batched = PingmeshWorkload(config, src_ip=9)
        filled = PingmeshWorkload(config, src_ip=9)
        arena = FleetArena()
        for epoch in range(15):
            expected = batched.batch_for_epoch(epoch)
            arena.begin_epoch()
            # Another source's rows first, so the slices start mid-buffer.
            assert arena.append_batch(0, expected)
            assert filled.fill_arena(epoch, arena, 1)
            view = arena.view(1)
            assert list(view.columns) == list(expected.columns)
            assert len(expected.columns) == 5
            for name, column in expected.columns.items():
                written = view.columns[name]
                assert written.dtype == column.dtype, name
                assert np.array_equal(written, column), (epoch, name)
                assert written.tobytes() == column.tobytes(), (epoch, name)
        assert (
            filled._np_rng.bit_generator.state == batched._np_rng.bit_generator.state
        )

    @pytest.mark.parametrize(
        "records,peers,digest",
        [
            (7, 20, "c4781341f014a25f79afe0065db07df4b73be76afdffb6f4e82445bddcd29301"),
            (30, 20, "877c3f4f1a3a1ae6dfd0d51ddef7efabb210f81f8ba834a206b31fac5f4f78ac"),
            (100, 500, "fa65cce1623b42b3b92ae4b96ad80e2cfd054d5cd589454cb02ea2a41fe8033f"),
        ],
    )
    def test_generated_stream_is_pinned(self, records, peers, digest):
        # No metric reads rtt_us, so a change to the random stream or the
        # order it is consumed in would pass every metric digest; this one
        # hashes four epochs of columns (little-endian, in column order).
        workload = PingmeshWorkload(
            PingmeshConfig(records_per_epoch=records, peers=peers, seed=11)
        )
        hasher = hashlib.sha256()
        for epoch in range(4):
            for name, column in workload.batch_for_epoch(epoch).columns.items():
                hasher.update(name.encode())
                little = column.dtype.newbyteorder("<")
                hasher.update(np.ascontiguousarray(column, dtype=little).tobytes())
        assert hasher.hexdigest() == digest


class TestLogAnalyticsWorkload:
    def make(self, **kwargs):
        defaults = dict(lines_per_epoch=500, tenants=20, seed=5)
        defaults.update(kwargs)
        return LogAnalyticsWorkload(LogAnalyticsConfig(**defaults))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            LogAnalyticsConfig(lines_per_epoch=0)
        with pytest.raises(WorkloadError):
            LogAnalyticsConfig(tenants=0)
        with pytest.raises(WorkloadError):
            LogAnalyticsConfig(noise_fraction=2.0)

    def test_record_count_and_type(self):
        records = self.make().records_for_epoch(0)
        assert len(records) == 500
        assert all(isinstance(r, LogRecord) for r in records)

    def test_noise_fraction_roughly_respected(self):
        workload = self.make(lines_per_epoch=2000, noise_fraction=0.2)
        records = workload.records_for_epoch(0)
        noise = sum(1 for r in records if "tenant name" not in r.line.lower())
        assert noise / len(records) == pytest.approx(0.2, abs=0.05)

    def test_lines_are_parseable_by_the_query(self):
        from repro.query.builder import log_analytics_query

        query = log_analytics_query()
        records = self.make(lines_per_epoch=1000, noise_fraction=0.0,
                            malformed_fraction=0.0).records_for_epoch(0)
        current = records
        for op in query.operators[:-1]:
            current = op.process(current)
        assert len(current) >= 0.95 * len(records)


class TestWorkloadBurst:
    def test_burst_multiplies_record_count(self):
        base = PingmeshWorkload(PingmeshConfig(records_per_epoch=100, peers=200, seed=1))
        bursty = WorkloadBurst(base, [BurstSpec(5, 8, 3.0)])
        assert len(bursty.records_for_epoch(0)) == 100
        assert len(bursty.records_for_epoch(5)) == 300
        assert len(bursty.records_for_epoch(8)) == 100

    def test_fractional_multiplier(self):
        base = PingmeshWorkload(PingmeshConfig(records_per_epoch=100, peers=200, seed=1))
        bursty = WorkloadBurst(base, [BurstSpec(0, 2, 1.5)])
        assert len(bursty.records_for_epoch(0)) == 150

    def test_burst_validation(self):
        with pytest.raises(WorkloadError):
            BurstSpec(5, 5, 2.0)
        with pytest.raises(WorkloadError):
            BurstSpec(0, 5, 0.0)
        # A burst adds records; a multiplier below 1 used to be ignored.
        with pytest.raises(WorkloadError, match=">= 1"):
            BurstSpec(0, 5, 0.5)

    def test_exposes_base_rate(self):
        base = PingmeshWorkload(PingmeshConfig(records_per_epoch=100, peers=200))
        assert WorkloadBurst(base).input_rate_mbps == base.input_rate_mbps


class TestTraces:
    def test_record_trace_captures_each_epoch(self) -> None:
        config = PingmeshConfig(records_per_epoch=50, peers=100, seed=2)
        trace = record_trace(PingmeshWorkload(config), num_epochs=4)
        fresh = PingmeshWorkload(config)
        assert [[r.as_dict() for r in epoch] for epoch in trace.epochs] == [
            [r.as_dict() for r in fresh.records_for_epoch(epoch)] for epoch in range(4)
        ]
        assert trace.all_records() == [r for epoch in trace.epochs for r in epoch]

    def test_record_trace_validation(self):
        workload = PingmeshWorkload(PingmeshConfig(records_per_epoch=10, peers=20))
        with pytest.raises(WorkloadError):
            record_trace(workload, num_epochs=0)

    def test_per_pair_latency_ranges_skip_error_records(self):
        records = [
            PingmeshRecord(0.0, 1, 2, 1000.0, err_code=0),
            PingmeshRecord(0.0, 1, 2, 9000.0, err_code=0),
            PingmeshRecord(0.0, 1, 2, 99000.0, err_code=1),
        ]
        ranges = per_pair_latency_ranges(records)
        assert ranges[(1, 2)] == (1.0, 9.0)
