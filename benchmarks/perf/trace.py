"""Per-layer tracing from outside the simulator.

:func:`install` wraps public callables of the simulator's layers (engine,
pipelines, operators, strategies, network helpers, the sharded and parallel
executors) with span recorders and :func:`restore` puts the originals back.
No file under ``src/`` knows about it: the wrappers live on the classes and
modules only while a traced repeat runs, and they record host time only, so
the simulated metrics (and their digests) are unchanged.

A span is ``[layer, start, end, parent]`` kept in memory; ``parent`` is the
index of the enclosing span or ``-1``.  Worker processes of a
:class:`~repro.simulation.parallel.ParallelBlockController` inherit the
wrappers and the collector through the fork; an at-fork hook marks where the
inherited spans end, and :func:`worker_spans` (run through the public
``map_blocks``) ships back only the spans the worker recorded itself.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Span = List  # [layer, start_s, end_s, parent_index]


class Collector:
    """The spans of one process, plus the patches that feed them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.patches: List[Tuple[object, str, object]] = []
        #: Index of the first span recorded after a fork (0 on the main process).
        self.fork_mark = 0
        self.shipped = False

    def open(self, layer: str) -> Span:
        span = [layer, perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span[2] = perf_counter()
        self.stack.pop()

    def local_spans(self) -> List[Span]:
        """Spans recorded by this process since its fork, parents rebased."""
        mark = self.fork_mark
        return [
            [layer, start, end, parent - mark if parent >= mark else -1]
            for layer, start, end, parent in self.spans[mark:]
        ]


#: The active collector.  Module-level on purpose: forked workers inherit it,
#: and the wrappers installed on library classes must find it from any frame.
_ACTIVE: Optional[Collector] = None
_FORK_HOOK = False


def _after_fork_in_child() -> None:
    collector = _ACTIVE
    if collector is not None:
        collector.fork_mark = len(collector.spans)
        collector.stack = []
        collector.shipped = False


def _wrap(fn, layer: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        collector = _ACTIVE
        if collector is None:
            return fn(*args, **kwargs)
        span = collector.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            collector.close(span)

    return traced


@contextmanager
def span(layer: str) -> Iterator[None]:
    """Record a span around benchmark code (a no-op when tracing is off)."""
    collector = _ACTIVE
    if collector is None:
        yield
        return
    opened = collector.open(layer)
    try:
        yield
    finally:
        collector.close(opened)


def _targets() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every wrapped callable."""
    from repro import baselines
    from repro.query import operators
    from repro.simulation import (
        engine,
        metrics,
        multisource,
        network,
        parallel,
        pipeline,
        sharding,
    )
    from repro.workloads import dynamics, pingmesh

    targets: List[Tuple[object, str, str]] = [
        (engine.EpochEngine, "step_sources", "engine.step"),
        (engine.EpochAccountant, "finish_source_epoch", "engine.finish"),
        (pingmesh.PingmeshWorkload, "fill_arena", "workloads.fill"),
        (pingmesh.PingmeshWorkload, "batch_for_epoch", "workloads.batch"),
        (dynamics.WorkloadBurst, "batch_for_epoch", "workloads.batch"),
        (pipeline.SourcePipeline, "run_epoch", "pipeline.source"),
        (pipeline.StreamProcessorPipeline, "process_arrivals", "pipeline.sp"),
        (pipeline.StreamProcessorPipeline, "advance_epoch", "pipeline.sp"),
        (multisource.MultiSourceExecutor, "__init__", "multisource.build"),
        (multisource.MultiSourceExecutor, "run_epoch", "multisource.epoch"),
        (multisource.MultiSourceExecutor, "run", "multisource.run"),
        (multisource.MultiSourceExecutor, "detach_source", "multisource.handoff"),
        (multisource.MultiSourceExecutor, "attach_source", "multisource.handoff"),
        # Looked up by name in multisource's namespace, so patched there.
        (multisource, "max_min_fair_share", "network.fair_share"),
        (multisource, "plan_fifo_transfer", "network.fifo_plan"),
        (network.NetworkLink, "transmit_epoch", "network.transmit"),
        (sharding.ShardedClusterExecutor, "__init__", "sharding.build"),
        (sharding.SaturationMigrationPolicy, "decide", "sharding.decide"),
        (parallel.ParallelBlockController, "__init__", "parallel.start"),
        (parallel.ParallelBlockController, "run_epoch", "parallel.epoch"),
        (parallel.ParallelBlockController, "run", "parallel.run"),
        (parallel.ParallelBlockController, "migrate", "parallel.migrate"),
        (parallel.ParallelBlockController, "map_blocks", "parallel.map"),
        (parallel.ParallelBlockController, "close", "parallel.close"),
        (metrics.ClusterMetrics, "merged", "metrics.merge"),
        (metrics.ClusterEpochMetrics, "merge", "metrics.merge"),
    ]
    for cls in vars(operators).values():
        if isinstance(cls, type) and issubclass(cls, operators.Operator):
            for attr in ("process", "process_batch"):
                if attr in vars(cls):
                    targets.append((cls, attr, "query.op"))
            for attr in (
                "take_partial_state",
                "merge_partial",
                "flush",
                "flush_bytes",
                "discard_window",
            ):
                if attr in vars(cls):
                    targets.append((cls, attr, "query.window_flush"))
    for cls in vars(baselines).values():
        if isinstance(cls, type) and "on_epoch_end" in vars(cls):
            targets.append((cls, "on_epoch_end", "core.strategy"))
    return targets


def install() -> Collector:
    """Start tracing in this process: wrap every target, return the collector."""
    global _ACTIVE, _FORK_HOOK
    if _ACTIVE is not None:
        raise RuntimeError("tracing is already installed")
    if not _FORK_HOOK:
        os.register_at_fork(after_in_child=_after_fork_in_child)
        _FORK_HOOK = True
    collector = Collector()
    for owner, attr, layer in _targets():
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(raw.__func__, layer))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(_wrap(raw.__func__, layer))
        else:
            wrapped = _wrap(raw, layer)
        collector.patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
    _ACTIVE = collector
    return collector


def restore() -> None:
    """Stop tracing: put every original callable back."""
    global _ACTIVE
    collector = _ACTIVE
    _ACTIVE = None
    if collector is None:
        return
    for owner, attr, raw in reversed(collector.patches):
        setattr(owner, attr, raw)
    collector.patches.clear()


def worker_spans(index: int, block: object) -> Optional[List[Span]]:
    """``map_blocks`` callback: this worker's own spans, shipped once.

    Every block of a worker maps to the same process, so only the first
    call per worker returns the spans; the rest return ``None``.
    """
    collector = _ACTIVE
    if collector is None or collector.shipped:
        return None
    collector.shipped = True
    return collector.local_spans()


# ---------------------------------------------------------------------------
# Analysis.
# ---------------------------------------------------------------------------

#: Query-operator spans split by the pipeline that called them.
_PIPELINE_SIDE = {"pipeline.source": "query.source_op", "pipeline.sp": "query.sp_op"}


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Busy time, self time and calls per layer.

    Busy time counts a layer's outermost spans only (a subclass method
    calling its base is one call of the layer); self time is a span's
    duration minus its children's, so self times over a process add up to
    its root spans' duration.  ``query.op`` spans are split into
    ``query.source_op`` / ``query.sp_op`` by their nearest pipeline span;
    query spans outside any pipeline count as ``query.other``.
    """
    count = len(spans)
    child_s = [0.0] * count
    side: List[Optional[str]] = [None] * count
    keys: List[str] = [""] * count
    for index, (layer, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
        inherited = side[parent] if parent >= 0 else None
        side[index] = _PIPELINE_SIDE.get(layer, inherited)
        if layer.startswith("query.") and inherited is None:
            keys[index] = "query.other"  # e.g. make_setup's relay measurement
        elif layer == "query.op":
            keys[index] = inherited
        else:
            keys[index] = layer
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0}
    )
    for index, (layer, start, end, parent) in enumerate(spans):
        key = keys[index]
        entry = totals[key]
        entry["self_s"] += (end - start) - child_s[index]
        ancestor = parent
        while ancestor >= 0 and keys[ancestor] != key:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_s"] += end - start
            entry["calls"] += 1
    return dict(totals)


def root_busy_s(spans: Sequence[Span]) -> float:
    """Total duration of a process's root spans (its traced busy time)."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def merge_totals(parts: Sequence[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for key, entry in part.items():
            into = merged.setdefault(key, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            for field, value in entry.items():
                into[field] += value
    return merged
