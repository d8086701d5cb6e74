"""Unit tests for the data-synopsis (sampling) comparison components."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.query.records import PingmeshRecord
from repro.synopsis.estimators import (
    alert_analysis,
    estimation_error_cdf,
    evaluate_sampling_accuracy,
)
from repro.synopsis.sampling import WindowSampler, sampled_pair_ranges
from repro.workloads.pingmesh import PingmeshConfig, PingmeshWorkload


def anomaly_records(num=4000, seed=11):
    workload = PingmeshWorkload(
        PingmeshConfig(
            records_per_epoch=num,
            peers=num // 3,
            error_rate=0.0,
            anomaly_peer_fraction=0.03,
            anomaly_probability=0.6,
            seed=seed,
        )
    )
    return workload.records_for_epoch(0)


class TestWindowSampler:
    def test_sampling_rate_validation(self):
        with pytest.raises(WorkloadError):
            WindowSampler(0.0)
        with pytest.raises(WorkloadError):
            WindowSampler(1.2)

    def test_sample_size_close_to_rate(self):
        records = anomaly_records(5000)
        result = WindowSampler(0.4, seed=1).sample_window(records)
        assert result.input_records == 5000
        assert result.sampled_records == pytest.approx(2000, rel=0.1)
        assert result.transfer_fraction == pytest.approx(0.4, abs=0.05)

    def test_full_rate_keeps_everything(self):
        records = anomaly_records(200)
        result = WindowSampler(1.0).sample_window(records)
        assert result.sampled_records == 200
        assert result.transfer_fraction == pytest.approx(1.0)

    def test_network_rate_computation(self):
        records = anomaly_records(1000)
        result = WindowSampler(0.5, seed=2).sample_window(records)
        assert result.network_mbps(10.0) == pytest.approx(
            result.sampled_bytes * 8 / 1e6 / 10.0
        )
        with pytest.raises(WorkloadError):
            result.network_mbps(0.0)

    def test_sampled_pair_ranges_skip_errors(self):
        records = [
            PingmeshRecord(0.0, 1, 2, 1000.0),
            PingmeshRecord(0.0, 1, 2, 3000.0),
            PingmeshRecord(0.0, 1, 2, 9999999.0, err_code=1),
        ]
        ranges = sampled_pair_ranges(records)
        assert ranges[(1, 2)] == (1.0, 3.0)


class TestEstimationAccuracy:
    def test_higher_sampling_rate_is_more_accurate(self):
        records = anomaly_records()
        low = evaluate_sampling_accuracy(records, 0.2, seed=5)
        high = evaluate_sampling_accuracy(records, 0.8, seed=5)
        assert high.fraction_within(1.0) >= low.fraction_within(1.0)
        assert high.transfer_fraction > low.transfer_fraction

    def test_low_sampling_rates_miss_errors_beyond_1ms(self):
        """The paper observes 20-40% of estimation errors exceed 1 ms at low rates."""
        records = anomaly_records()
        result = evaluate_sampling_accuracy(records, 0.2, seed=7)
        assert result.fraction_within(1.0) < 0.95

    def test_error_cdf_is_monotone(self):
        records = anomaly_records()
        result = evaluate_sampling_accuracy(records, 0.4, seed=2)
        cdf = result.error_cdf([0.5, 1.0, 5.0, 50.0])
        assert all(cdf[i] <= cdf[i + 1] for i in range(len(cdf) - 1))
        assert cdf[-1] == pytest.approx(1.0)

    def test_estimation_error_cdf_helper(self):
        cdf = estimation_error_cdf([0.1, 0.5, 2.0, 8.0], [1.0, 10.0])
        assert cdf == [0.5, 1.0]
        assert estimation_error_cdf([], [1.0]) == [1.0]
        with pytest.raises(WorkloadError):
            estimation_error_cdf([1.0], [])

    def test_requires_pingmesh_records(self):
        with pytest.raises(WorkloadError):
            evaluate_sampling_accuracy([], 0.5)


class TestAlertAnalysis:
    def test_sampling_misses_alerts_at_low_rates(self):
        records = anomaly_records()
        low = alert_analysis(records, 0.2, threshold_ms=5.0, seed=3)
        high = alert_analysis(records, 0.9, threshold_ms=5.0, seed=3)
        assert low.true_alerts > 0
        assert low.miss_rate >= high.miss_rate
        assert low.miss_rate > 0.0

    def test_no_alerts_means_zero_miss_rate(self):
        records = [PingmeshRecord(0.0, 1, 2, 100.0) for _ in range(50)]
        analysis = alert_analysis(records, 0.5, threshold_ms=5.0)
        assert analysis.true_alerts == 0
        assert analysis.miss_rate == 0.0

    def test_requires_records(self):
        with pytest.raises(WorkloadError):
            alert_analysis([], 0.5)
