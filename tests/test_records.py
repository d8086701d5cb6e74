"""Unit tests for record types, byte sizes and record-batch validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, JarvisError, SimulationError
from repro.query.records import (
    AggregateRecord,
    RecordBatch,
    EnrichedPingmeshRecord,
    IpToTorTable,
    JobStatsRecord,
    LogRecord,
    PingmeshRecord,
    Record,
    PINGMESH_RECORD_BYTES,
    half_up,
    record_size_bytes,
)


class TestPingmeshRecord:
    def test_size_matches_paper(self):
        record = PingmeshRecord(0.0, 1, 2, 500.0)
        assert record.size_bytes == PINGMESH_RECORD_BYTES == 86

    def test_rtt_conversion_to_ms(self):
        record = PingmeshRecord(0.0, 1, 2, rtt_us=2500.0)
        assert record.rtt_ms == pytest.approx(2.5)

    def test_key_is_server_pair(self):
        record = PingmeshRecord(0.0, 10, 20, 100.0)
        assert record.key() == (10, 20)

    def test_as_dict_round_trip(self):
        record = PingmeshRecord(1.5, 1, 2, 300.0, err_code=1)
        data = record.as_dict()
        assert data == {
            "event_time": 1.5,
            "src_ip": 1,
            "dst_ip": 2,
            "rtt_us": 300.0,
            "err_code": 1,
        }

    def test_fields_coerced_to_expected_types(self):
        record = PingmeshRecord(0, "1", "2", "10.5", err_code="0")  # type: ignore[arg-type]
        assert isinstance(record.src_ip, int)
        assert isinstance(record.rtt_us, float)
        assert isinstance(record.err_code, int)


class TestEnrichedPingmeshRecord:
    def test_key_is_tor_pair(self):
        record = EnrichedPingmeshRecord(0.0, 1, 2, 100.0, src_tor=5, dst_tor=9)
        assert record.key() == (5, 9)

    def test_projection_shrinks_record(self):
        raw = PingmeshRecord(0.0, 1, 2, 100.0)
        enriched = EnrichedPingmeshRecord(0.0, 1, 2, 100.0, 5, 9)
        assert enriched.size_bytes < raw.size_bytes

    def test_as_dict_includes_tor_fields(self):
        record = EnrichedPingmeshRecord(0.0, 1, 2, 100.0, 5, 9)
        data = record.as_dict()
        assert data["src_tor"] == 5
        assert data["dst_tor"] == 9


class TestLogAndJobStatsRecords:
    def test_log_record_size_tracks_line_length(self):
        record = LogRecord(0.0, "x" * 120)
        assert record.size_bytes == 120

    def test_empty_log_record_has_minimum_size(self):
        assert LogRecord(0.0, "").size_bytes == 1

    def test_job_stats_key(self):
        record = JobStatsRecord(0.0, "tenant_a", "cpu util", 55.0)
        assert record.key() == ("tenant_a", "cpu util", 55.0)

    def test_job_stats_smaller_than_typical_log_line(self):
        line = LogRecord(0.0, "Tenant Name=tenant_a; cpu util=55.0 pad=" + "x" * 40)
        parsed = JobStatsRecord(0.0, "tenant_a", "cpu util", 55.0)
        assert parsed.size_bytes < line.size_bytes


class TestAggregateRecord:
    def test_size_grows_with_extra_values(self):
        small = AggregateRecord(0.0, ("a",), {"avg(rtt)": 1.0})
        large = AggregateRecord(
            0.0, ("a",), {f"v{i}": float(i) for i in range(8)}
        )
        assert large.size_bytes > small.size_bytes

    def test_key_is_group_key(self):
        record = AggregateRecord(0.0, (1, 2), {"avg(rtt)": 1.0})
        assert record.key() == (1, 2)

    def test_values_are_copied(self):
        values = {"avg(rtt)": 1.0}
        record = AggregateRecord(0.0, (), values)
        values["avg(rtt)"] = 99.0
        assert record.values["avg(rtt)"] == 1.0


class TestSizeAndRateHelpers:
    def test_record_size_bytes_sums_sizes(self):
        records = [PingmeshRecord(0.0, 1, 2, 1.0) for _ in range(5)]
        assert record_size_bytes(records) == 5 * 86

    def test_drain_adds_header_overhead(self):
        records = [PingmeshRecord(0.0, 1, 2, 1.0)]
        assert record_size_bytes(records, drain=True) > record_size_bytes(records)

    def test_base_record_defaults(self):
        record = Record(3.0)
        assert record.key() == ()
        assert record.size_bytes > 0
        assert record.as_dict() == {"event_time": 3.0}


class TestIpToTorTable:
    def test_dense_table_covers_all_servers(self):
        table = IpToTorTable.dense(100, servers_per_tor=10)
        assert len(table) == 100
        assert table.lookup(0) == 0
        assert table.lookup(99) == 9
        assert 55 in table

    def test_lookup_missing_ip_returns_none(self):
        table = IpToTorTable.dense(10)
        assert table.lookup(999) is None
        assert 999 not in table

    def test_dense_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            IpToTorTable.dense(-1)
        with pytest.raises(ConfigurationError):
            IpToTorTable.dense(10, servers_per_tor=0)

    def test_custom_mapping(self):
        table = IpToTorTable({7: 3})
        assert table.lookup(7) == 3
        assert len(table) == 1


class TestHalfUp:
    def test_ties_round_up_not_to_even(self):
        # Builtin round() gives 0 and 2 here (half-to-even); the routing
        # arithmetic needs 1 and 2 so throughput does not depend on the
        # parity of the record count.
        assert half_up(0.5) == 1
        assert half_up(1.5) == 2
        assert half_up(2.5) == 3

    def test_matches_round_away_from_ties(self):
        for value in (0.0, 0.49, 0.51, 3.2, 7.8):
            assert half_up(value) == round(value + 1e-12) or half_up(value) == int(value + 0.5)

    def test_route_arithmetic_is_monotone_in_n(self):
        # 0.5 load factor over n records forwards ceil(n/2) for every n.
        for n in range(10):
            assert half_up(0.5 * n) == (n + 1) // 2


class TestBatchedPathErrorsAreProjectErrors:
    """Regression: batched-path validation failures must be catchable via the
    repro.errors hierarchy (they were bare ValueError before simlint SL007)."""

    def test_missing_event_time_column(self):
        with pytest.raises(SimulationError):
            RecordBatch(PingmeshRecord, {"rtt_us": np.ones(1)}, uniform_size_bytes=86)

    def test_ragged_columns(self):
        with pytest.raises(SimulationError):
            RecordBatch(
                PingmeshRecord,
                {"event_time": np.zeros(2), "rtt_us": np.ones(1)},
                uniform_size_bytes=86,
            )

    def test_columns_must_be_one_dimensional_arrays(self):
        """A batch's columns are 1-D numpy arrays: a list, a tuple or a 2-D
        array is refused."""
        for column in ([0.0, 1.0], (0.0, 1.0), np.zeros((2, 1))):
            with pytest.raises(SimulationError):
                RecordBatch(
                    PingmeshRecord, {"event_time": column}, uniform_size_bytes=86
                )
        with pytest.raises(SimulationError):
            RecordBatch(
                PingmeshRecord,
                {"event_time": np.zeros(2), "rtt_us": [1.0, 2.0]},
                uniform_size_bytes=86,
            )

    def test_all_catchable_as_jarvis_error(self):
        with pytest.raises(JarvisError):
            RecordBatch(PingmeshRecord, {"event_time": [0.0]}, uniform_size_bytes=86)
        with pytest.raises(JarvisError):
            IpToTorTable.dense(10, servers_per_tor=0)
