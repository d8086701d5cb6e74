"""Window-based sampling protocol (WSP).

A simplified implementation of continuous sampling from distributed streams
(Cormode et al.), as used by the paper's Section VI-D comparison: within each
window, every record is retained independently with probability equal to the
sampling rate, and only the retained records are shipped to the stream
processor.  The query is then evaluated over the sample, so per-group
statistics (min/avg/max RTT) are estimates rather than exact values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..errors import WorkloadError
from ..query.records import PingmeshRecord, Record, record_size_bytes


@dataclass
class SamplingResult:
    """Outcome of sampling one stream of records.

    Attributes:
        sampling_rate: Probability with which each record was retained.
        input_records: Number of records offered to the sampler.
        sampled_records: Number of records retained.
        input_bytes: Total size of the offered records.
        sampled_bytes: Total size of the retained records.
        samples: The retained records themselves.
    """

    sampling_rate: float
    input_records: int = 0
    sampled_records: int = 0
    input_bytes: float = 0.0
    sampled_bytes: float = 0.0
    samples: List[Record] = field(default_factory=list)

    @property
    def transfer_fraction(self) -> float:
        """Fraction of input bytes that crosses the network."""
        if self.input_bytes <= 0:
            return 0.0
        return self.sampled_bytes / self.input_bytes

    def network_mbps(self, duration_s: float) -> float:
        """Average network rate needed to ship the sample, in Mbps."""
        if duration_s <= 0:
            raise WorkloadError(f"duration_s must be positive, got {duration_s!r}")
        return self.sampled_bytes * 8.0 / 1e6 / duration_s


class WindowSampler:
    """Bernoulli per-window sampler over a record stream."""

    def __init__(self, sampling_rate: float, seed: int = 0) -> None:
        if not 0.0 < sampling_rate <= 1.0:
            raise WorkloadError(
                f"sampling_rate must be within (0, 1], got {sampling_rate!r}"
            )
        self.sampling_rate = float(sampling_rate)
        self._rng = random.Random(seed)

    def sample_window(self, records: Sequence[Record]) -> SamplingResult:
        """Sample one window's worth of records."""
        result = SamplingResult(sampling_rate=self.sampling_rate)
        result.input_records = len(records)
        result.input_bytes = float(record_size_bytes(records))
        for record in records:
            if self._rng.random() <= self.sampling_rate:
                result.samples.append(record)
        result.sampled_records = len(result.samples)
        result.sampled_bytes = float(record_size_bytes(result.samples))
        return result


def sampled_pair_ranges(
    samples: Sequence[Record],
) -> Dict[Tuple[int, int], Tuple[float, float]]:
    """Per-pair (min, max) RTT estimated from a sample of Pingmesh records."""
    ranges: Dict[Tuple[int, int], Tuple[float, float]] = {}
    for record in samples:
        if not isinstance(record, PingmeshRecord) or record.err_code != 0:
            continue
        key = (record.src_ip, record.dst_ip)
        rtt = record.rtt_ms
        if key not in ranges:
            ranges[key] = (rtt, rtt)
        else:
            low, high = ranges[key]
            ranges[key] = (min(low, rtt), max(high, rtt))
    return ranges
