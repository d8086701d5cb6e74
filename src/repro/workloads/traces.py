"""Trace capture, replay, and statistics.

The paper analyses its workloads offline (filter-out rates, rate variability
across sources, sparsity of high-latency probes).  These utilities let tests
and experiments do the same against the synthetic generators: capture a trace
once, compute its statistics, and replay it deterministically so two
strategies see byte-identical input.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import WorkloadError
from ..query.records import PingmeshRecord, Record, record_size_bytes


@dataclass
class Trace:
    """A captured workload trace: one list of records per epoch."""

    epochs: List[List[Record]] = field(default_factory=list)

    def append_epoch(self, records: Sequence[Record]) -> None:
        self.epochs.append(list(records))

    def __len__(self) -> int:
        return len(self.epochs)

    def total_records(self) -> int:
        return sum(len(epoch) for epoch in self.epochs)

    def total_bytes(self) -> int:
        return sum(record_size_bytes(epoch) for epoch in self.epochs)

    def all_records(self) -> List[Record]:
        """All records across epochs, in arrival order."""
        out: List[Record] = []
        for epoch in self.epochs:
            out.extend(epoch)
        return out


class _TraceReplay:
    """Workload-source adapter replaying a captured trace."""

    def __init__(self, trace: Trace, loop: bool = False) -> None:
        if not trace.epochs:
            raise WorkloadError("cannot replay an empty trace")
        self._trace = trace
        self._loop = loop

    def records_for_epoch(self, epoch: int) -> List[Record]:
        if epoch < len(self._trace.epochs):
            return list(self._trace.epochs[epoch])
        if self._loop:
            return list(self._trace.epochs[epoch % len(self._trace.epochs)])
        return []


def record_trace(workload, num_epochs: int) -> Trace:
    """Capture ``num_epochs`` epochs from a workload generator."""
    if num_epochs <= 0:
        raise WorkloadError(f"num_epochs must be positive, got {num_epochs!r}")
    trace = Trace()
    for epoch in range(num_epochs):
        trace.append_epoch(workload.records_for_epoch(epoch))
    return trace


def replay_trace(trace: Trace, loop: bool = False) -> _TraceReplay:
    """Create a workload source that replays ``trace`` deterministically."""
    return _TraceReplay(trace, loop=loop)


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a Pingmesh-style trace."""

    total_records: int
    total_bytes: int
    mean_records_per_epoch: float
    error_rate: float
    distinct_pairs: int
    high_latency_fraction: float
    max_rtt_ms: float

    @property
    def mean_rate_mbps(self) -> float:
        if self.mean_records_per_epoch <= 0:
            return 0.0
        return self.mean_records_per_epoch * 86 * 8.0 / 1e6


def pingmesh_trace_stats(trace: Trace, high_latency_ms: float = 5.0) -> TraceStats:
    """Compute the statistics the paper reports for its Pingmesh trace."""
    records = [r for r in trace.all_records() if isinstance(r, PingmeshRecord)]
    if not records:
        raise WorkloadError("trace contains no Pingmesh records")
    errors = sum(1 for r in records if r.err_code != 0)
    pairs = {(r.src_ip, r.dst_ip) for r in records}
    high = sum(1 for r in records if r.rtt_ms >= high_latency_ms)
    return TraceStats(
        total_records=len(records),
        total_bytes=trace.total_bytes(),
        mean_records_per_epoch=len(records) / max(1, len(trace)),
        error_rate=errors / len(records),
        distinct_pairs=len(pairs),
        high_latency_fraction=high / len(records),
        max_rtt_ms=max(r.rtt_ms for r in records),
    )


def per_pair_latency_ranges(
    records: Iterable[PingmeshRecord],
) -> Dict[Tuple[int, int], Tuple[float, float]]:
    """Ground-truth (min, max) RTT in milliseconds per server pair.

    Used by the data-synopsis comparison (Figure 9): the estimation error of a
    sampling scheme is measured against these ranges.
    """
    ranges: Dict[Tuple[int, int], Tuple[float, float]] = {}
    for record in records:
        if record.err_code != 0:
            continue
        key = (record.src_ip, record.dst_ip)
        rtt = record.rtt_ms
        if key not in ranges:
            ranges[key] = (rtt, rtt)
        else:
            low, high = ranges[key]
            ranges[key] = (min(low, rtt), max(high, rtt))
    return ranges


def rate_variability_across_sources(
    records_per_source: Sequence[int],
) -> Dict[str, float]:
    """Summarize rate variability across data sources (Section II-B).

    Returns the fraction of sources generating at most half the maximum rate
    (the paper reports 58%) plus basic dispersion statistics.
    """
    if not records_per_source:
        raise WorkloadError("need at least one source")
    peak = max(records_per_source)
    if peak <= 0:
        raise WorkloadError("peak rate must be positive")
    below_half = sum(1 for rate in records_per_source if rate <= 0.5 * peak)
    return {
        "fraction_at_or_below_half_peak": below_half / len(records_per_source),
        "mean_rate": float(statistics.fmean(records_per_source)),
        "stdev_rate": float(
            statistics.pstdev(records_per_source) if len(records_per_source) > 1 else 0.0
        ),
        "peak_rate": float(peak),
    }
