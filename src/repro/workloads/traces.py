"""Trace capture and per-pair ground truth.

The paper analyses its Pingmesh trace offline (Figure 9).  These utilities
let experiments do the same against the synthetic generator: capture a trace
once and compute each server pair's true latency range from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import WorkloadError
from ..query.records import PingmeshRecord, Record


@dataclass
class Trace:
    """A captured workload trace: one list of records per epoch."""

    epochs: List[List[Record]] = field(default_factory=list)

    def append_epoch(self, records: Sequence[Record]) -> None:
        self.epochs.append(list(records))

    def all_records(self) -> List[Record]:
        """All records across epochs, in arrival order."""
        out: List[Record] = []
        for epoch in self.epochs:
            out.extend(epoch)
        return out


def record_trace(workload, num_epochs: int) -> Trace:
    """Capture ``num_epochs`` epochs from a workload generator."""
    if num_epochs <= 0:
        raise WorkloadError(f"num_epochs must be positive, got {num_epochs!r}")
    trace = Trace()
    for epoch in range(num_epochs):
        trace.append_epoch(workload.records_for_epoch(epoch))
    return trace


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
