"""Synthetic LogAnalytics workload (Scenario 2 of the paper).

A production log-processing system (Helios) streams unstructured text logs
from analytics clusters; the LogAnalytics query (Listing 3) extracts per-tenant
job latency and resource-utilisation statistics and bucketizes them into
histograms.  The synthetic generator reproduces the statistics that matter to
the query:

* log lines are ``key=value`` strings carrying a tenant name and one of three
  statistics (job running time, CPU utilisation, memory utilisation);
* most lines match the query's search patterns (the paper notes the
  filter-out rate is low, which is why Filter-Src stays network-bound);
* parsing reduces a ~120-byte text line to a ~40-byte structured record, so
  the Map(parse) stage is where most data reduction happens;
* the per-window group cardinality is ``tenants x statistics x buckets``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..errors import WorkloadError, require_finite
from ..query.builder import Query, log_analytics_query
from ..query.records import LogRecord
from ..simulation.cost_model import CostModel, calibrate_cost_model

#: Default simulated lines per one-second epoch at "10x" scaling.
DEFAULT_LINES_PER_EPOCH = 1000

#: CPU fractions of the LogAnalytics operators at the nominal rate.  The whole
#: query uses ~31% of a core at full rate (Section VI-B); the split across
#: operators reflects that text normalisation/parsing dominates.
LOG_CPU_FRACTIONS = {
    "window": 0.0,
    "map": 0.05,        # normalize (trim + lowercase)
    "filter": 0.07,     # substring pattern matching
    "map_1": 0.11,      # key=value parsing into JobStats
    "map_2": 0.02,      # bucketization
    "group_aggregate": 0.06,
}

#: Count-based relay ratios used for calibration: ~10% of lines do not match
#: any pattern and a small fraction fail to parse.
LOG_COUNT_RELAYS = {
    "window": 1.0,
    "map": 1.0,
    "filter": 0.90,
    "map_1": 0.98,
    "map_2": 1.0,
}

_STAT_NAMES = ("job running time", "cpu util", "memory util")


@dataclass(frozen=True)
class LogAnalyticsConfig:
    """Parameters of the synthetic log stream for one data source.

    Attributes:
        lines_per_epoch: Simulated log lines generated per epoch.
        tenants: Number of distinct tenants appearing in the logs.
        noise_fraction: Fraction of lines that match none of the query's
            search patterns (these are filtered out).
        malformed_fraction: Fraction of matching lines that fail to parse.
        seed: RNG seed.
    """

    lines_per_epoch: int = DEFAULT_LINES_PER_EPOCH
    tenants: int = 50
    noise_fraction: float = 0.10
    malformed_fraction: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lines_per_epoch <= 0:
            raise WorkloadError(
                f"lines_per_epoch must be positive, got {self.lines_per_epoch!r}"
            )
        if self.tenants <= 0:
            raise WorkloadError(f"tenants must be positive, got {self.tenants!r}")
        require_finite(
            "noise_fraction", self.noise_fraction, error=WorkloadError
        )
        require_finite(
            "malformed_fraction", self.malformed_fraction, error=WorkloadError
        )
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise WorkloadError(
                f"noise_fraction must be within [0, 1], got {self.noise_fraction!r}"
            )
        if not 0.0 <= self.malformed_fraction <= 1.0:
            raise WorkloadError(
                "malformed_fraction must be within [0, 1], "
                f"got {self.malformed_fraction!r}"
            )


class LogAnalyticsWorkload:
    """Generates the unstructured log stream observed by one data source."""

    def __init__(self, config: Optional[LogAnalyticsConfig] = None) -> None:
        self.config = config or LogAnalyticsConfig()
        self._rng = random.Random(self.config.seed)

    @property
    def input_rate_mbps(self) -> float:
        """Approximate nominal input rate in Mbps (average line ~120 bytes)."""
        return self.config.lines_per_epoch * 120 * 8.0 / 1e6

    def _log_line(self) -> str:
        cfg = self.config
        if self._rng.random() < cfg.noise_fraction:
            return (
                f"INFO scheduler heartbeat node={self._rng.randint(0, 999):03d} "
                f"queue_depth={self._rng.randint(0, 64)} status=ok padding=xxxxxxxxxx"
            )
        tenant = f"tenant_{self._rng.randint(0, cfg.tenants - 1):03d}"
        stat_name = self._rng.choice(_STAT_NAMES)
        value = round(self._rng.uniform(0.0, 100.0), 2)
        if self._rng.random() < cfg.malformed_fraction:
            # Missing the value field: the parse Map drops these lines.
            return f"Tenant Name={tenant}; {stat_name}"
        return (
            f"Tenant Name={tenant}; job_id=j{self._rng.randint(0, 99999):05d}; "
            f"cluster=cosmos-east; {stat_name}={value}"
        )

    def records_for_epoch(self, epoch: int) -> List[LogRecord]:
        """Log records arriving during ``epoch`` (epoch duration = 1 s)."""
        cfg = self.config
        records: List[LogRecord] = []
        for i in range(cfg.lines_per_epoch):
            event_time = float(epoch) + i / max(1, cfg.lines_per_epoch)
            records.append(LogRecord(event_time, self._log_line()))
        return records


def log_analytics_cost_model(
    query: Optional[Query] = None,
    reference_records_per_second: float = DEFAULT_LINES_PER_EPOCH,
) -> CostModel:
    """Cost model for the LogAnalytics query calibrated to the paper."""
    query = query or log_analytics_query()
    operators = query.operators
    return calibrate_cost_model(
        operators,
        cpu_fractions=LOG_CPU_FRACTIONS,
        input_records_per_second=reference_records_per_second,
        count_relay_ratios=LOG_COUNT_RELAYS,
    )
