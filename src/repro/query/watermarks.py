"""Watermark tracking and merging.

Section V of the paper ("Accurate query processing") requires that when a
stream is split between the data source and the drain path, the stream
processor advances its event time based on the *minimum* watermark across all
of its input streams, and that control proxies replicate incoming watermarks
onto the drain path so time progress is never lost.

This module provides a small, engine-agnostic implementation of that
behaviour, used by the simulator's stream-processor side and by tests that
check ordering guarantees.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from ..errors import SimulationError


class WatermarkTracker:
    """Tracks per-input watermarks and exposes the merged (minimum) watermark.

    Each upstream channel — the forwarded stream from a data source, or a
    proxy's drain stream — is registered under a name; the merged watermark is
    the minimum over all registered channels that have reported at least once.
    Channels that have never reported hold the merged watermark at ``-inf`` so
    downstream windows never close prematurely.

    The merged value is cached together with how many channels sit at it, so
    an advance costs O(1) except when the last channel at the minimum moves
    on; then one rescan finds the new minimum.  A stream processor advancing
    every one of its channels once per epoch pays O(channels) per epoch, not
    O(channels²).
    """

    def __init__(self, channels: Optional[Iterable[str]] = None) -> None:
        self._watermarks: Dict[str, float] = {}
        self._merged = -math.inf
        #: Channels whose watermark equals ``_merged``.
        self._at_merged = 0
        for channel in channels or ():
            self.register(channel)

    def register(self, channel: str) -> None:
        """Register a new upstream channel.

        Registering an already-known channel is a no-op so callers can be
        idempotent when topologies are rebuilt.
        """
        if channel in self._watermarks:
            return
        self._watermarks[channel] = -math.inf
        if self._merged > -math.inf:
            self._merged = -math.inf
            self._at_merged = 1
        else:
            self._at_merged += 1

    def channels(self) -> List[str]:
        """Names of all registered channels."""
        return sorted(self._watermarks)

    def advance(self, channel: str, watermark: float) -> float:
        """Advance ``channel`` to ``watermark`` and return the merged watermark.

        Watermarks are monotone: attempts to move a channel backwards raise
        :class:`SimulationError`, because a regressing watermark means records
        were emitted out of order past a closed window.  NaN is rejected too:
        it is not ordered, so no minimum could be kept over it.
        """
        if channel not in self._watermarks:
            raise SimulationError(f"unknown watermark channel {channel!r}")
        current = self._watermarks[channel]
        if math.isnan(watermark) or watermark < current:
            raise SimulationError(
                f"watermark for channel {channel!r} regressed from "
                f"{current!r} to {watermark!r}"
            )
        self._watermarks[channel] = watermark
        if current == self._merged and watermark > current:
            self._at_merged -= 1
            if self._at_merged == 0:
                values = self._watermarks.values()
                self._merged = min(values)
                self._at_merged = sum(1 for value in values if value == self._merged)
        return self._merged

    def merged(self) -> float:
        """The minimum watermark across registered channels (−inf if none)."""
        return self._merged

    def window_closed(self, window_end: float) -> bool:
        """Whether a window ending at ``window_end`` can be finalized."""
        return self.merged() >= window_end


def replicate_watermark(watermark: float, fan_out: int) -> List[float]:
    """Replicate an incoming watermark onto ``fan_out`` output channels.

    Control proxies generate one extra stream (the drain path) per proxy, and
    each copy must carry the same watermark so the downstream merge remains
    correct (Section V).
    """
    if fan_out < 1:
        raise SimulationError(f"fan_out must be >= 1, got {fan_out}")
    return [watermark] * fan_out
