"""Unit tests for configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.config import (
    AdaptationConfig,
    EpochConfig,
    JarvisConfig,
    NetworkConfig,
    ProxyThresholds,
    DEFAULT_CONFIG,
    BASE_BANDWIDTH_MBPS,
)
from repro.errors import ConfigurationError


class TestEpochConfig:
    def test_defaults_match_paper(self):
        cfg = EpochConfig()
        assert cfg.duration_s == 1.0
        assert cfg.detect_epochs == 3
        assert cfg.latency_bound_s == 5.0

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ConfigurationError):
            EpochConfig(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            EpochConfig(duration_s=-1.0)

    def test_rejects_zero_detect_epochs(self):
        with pytest.raises(ConfigurationError):
            EpochConfig(detect_epochs=0)

    def test_rejects_non_positive_latency_bound(self):
        with pytest.raises(ConfigurationError):
            EpochConfig(latency_bound_s=0.0)

    def test_is_frozen(self):
        cfg = EpochConfig()
        with pytest.raises(AttributeError):
            cfg.duration_s = 2.0  # type: ignore[misc]


class TestProxyThresholds:
    def test_defaults_are_fractions(self):
        thr = ProxyThresholds()
        assert 0.0 <= thr.drained_thres <= 1.0
        assert 0.0 <= thr.idle_thres <= 1.0
        assert thr.congestion_pending_records >= 0

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rejects_out_of_range_drained_thres(self, value):
        with pytest.raises(ConfigurationError):
            ProxyThresholds(drained_thres=value)

    @pytest.mark.parametrize("value", [-0.01, 2.0])
    def test_rejects_out_of_range_idle_thres(self, value):
        with pytest.raises(ConfigurationError):
            ProxyThresholds(idle_thres=value)

    def test_rejects_negative_pending_floor(self):
        with pytest.raises(ConfigurationError):
            ProxyThresholds(congestion_pending_records=-1)


class TestAdaptationConfig:
    def test_defaults_enable_both_halves(self):
        cfg = AdaptationConfig()
        assert cfg.use_lp_init is True
        assert cfg.use_finetune is True

    def test_rejects_too_few_load_factor_steps(self):
        with pytest.raises(ConfigurationError):
            AdaptationConfig(load_factor_steps=1)

    def test_rejects_zero_finetune_epochs(self):
        with pytest.raises(ConfigurationError):
            AdaptationConfig(max_finetune_epochs=0)

    def test_rejects_negative_min_profile_records(self):
        with pytest.raises(ConfigurationError):
            AdaptationConfig(min_profile_records=-5)

    def test_rejects_out_of_range_noise(self):
        with pytest.raises(ConfigurationError):
            AdaptationConfig(profile_noise=1.5)

    def test_rejects_out_of_range_headroom(self):
        with pytest.raises(ConfigurationError):
            AdaptationConfig(budget_headroom=-0.2)

    def test_ablation_flags_can_be_disabled(self):
        cfg = AdaptationConfig(use_lp_init=False, use_finetune=False)
        assert cfg.use_lp_init is False
        assert cfg.use_finetune is False


class TestNetworkConfig:
    def test_default_bandwidth_matches_paper_share(self):
        cfg = NetworkConfig()
        assert cfg.bandwidth_mbps == pytest.approx(BASE_BANDWIDTH_MBPS)
        assert cfg.effective_bandwidth_mbps == pytest.approx(BASE_BANDWIDTH_MBPS)

    def test_scaling_applies_to_effective_bandwidth(self):
        cfg = NetworkConfig(bandwidth_mbps=2.0, rate_scale=10.0)
        assert cfg.effective_bandwidth_mbps == pytest.approx(20.0)

    def test_rejects_non_positive_values(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(bandwidth_mbps=0.0)
        with pytest.raises(ConfigurationError):
            NetworkConfig(rate_scale=0.0)


class TestJarvisConfig:
    def test_default_bundle_is_consistent(self):
        cfg = JarvisConfig()
        assert cfg.epoch.duration_s == 1.0
        assert cfg.thresholds.idle_thres > 0
        assert cfg.adaptation.load_factor_steps >= 2
        assert cfg.network.bandwidth_mbps > 0

    def test_with_updates_replaces_only_named_fields(self):
        cfg = JarvisConfig()
        thresholds = ProxyThresholds(idle_thres=0.3)
        updated = cfg.with_updates(thresholds=thresholds)
        assert updated.thresholds == thresholds
        assert updated.epoch == cfg.epoch
        assert cfg.thresholds == ProxyThresholds()  # original untouched

    def test_with_updates_nested_section(self):
        cfg = JarvisConfig()
        updated = cfg.with_updates(epoch=EpochConfig(duration_s=2.0))
        assert updated.epoch.duration_s == 2.0
        assert cfg.epoch.duration_s == 1.0

    def test_module_level_default_exists(self):
        assert isinstance(DEFAULT_CONFIG, JarvisConfig)
