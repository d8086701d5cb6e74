"""Process-parallel lockstep execution of sharded fleets.

The K blocks of a :class:`~repro.simulation.sharding.ShardedClusterExecutor`
are independent within an epoch — they interact only through migration
handoffs at epoch boundaries — yet the serial executor steps them one after
another in a single Python process.  :class:`ParallelBlockController` is a
subclass that steps the same blocks across a persistent pool of worker
processes instead.  The run and lockstep loops, migration policy,
placement bookkeeping and metric assembly are inherited; the controller
overrides only the two primitives through which that code reaches live
block state, ``_blockwise`` and ``_handoff``.

Design notes, in the order they matter:

* **Workers own blocks for the whole run.**  Block state (pipeline operator
  queues, strategies, carryover FIFOs) is large and mutable, so it must not
  be shipped per epoch.  The controller builds its blocks in-process (the
  inherited constructor), publishes itself through a module global, and
  forks one single-process ``concurrent.futures.ProcessPoolExecutor`` per
  worker — each worker claims its blocks from the fork snapshot, so no
  workload or strategy is ever pickled.  Block ``i`` is owned by worker
  ``i % workers`` for the lifetime of the controller.  The main process
  keeps its own copies of the blocks unstepped: the inherited code reads
  only construction-time fields from them (link capacity, run collectors).
* **Per-epoch traffic is compact.**  ``_blockwise`` ships a module-level
  step function from :mod:`~repro.simulation.sharding` to every worker,
  which applies it to its blocks and returns only frozen
  :class:`~repro.simulation.metrics.EpochMetrics` structs and the per-block
  :class:`~repro.simulation.metrics.ClusterEpochMetrics`;
  group/window partial state never crosses back — it lives in the worker,
  and in arena mode its consolidated ``(keys, counts, sums, maxs, mins)``
  arrays travel inside the usual columnar ship path within the block.
* **Arena columns live in shared memory.**  In ``record_mode="arena"`` the
  main process creates one ``multiprocessing.shared_memory`` segment per
  block and each worker installs a bump allocator
  (:meth:`~repro.query.records.FleetArena.set_buffer_allocator`) so the
  block's recycled column buffers are carved from that segment instead of
  the private heap.  Allocation failure (segment exhausted) silently falls
  back to heap buffers — correctness never depends on segment capacity.
  Segments are owned (created *and* unlinked) by the main process, so a
  crashed worker cannot leak ``/dev/shm`` blocks.
* **Migration is the only cross-block sync point.**  The inherited
  ``run_epoch`` gathers end-of-epoch pressure signals and runs the
  :class:`~repro.simulation.sharding.MigrationPolicy` on the main process;
  ``_handoff`` executes each move by detaching in the owning worker,
  pickling the :class:`~repro.simulation.multisource.SourceMigrationState`,
  and attaching in the destination worker before the next epoch.
* **Bit-identity over speed.**  Blocks are stepped by the same code on
  forked copies of the same state, results are reassembled in block order,
  and one implementation builds the policy inputs and the metrics — so a
  parallel run is bit-identical to serial lockstep per epoch per source in
  both record modes, including under migration schedules
  (test-enforced).
* **A dead worker is a project error.**  A worker process that dies
  (killed, out of memory) breaks its pool; the next dispatch to it raises
  :class:`~repro.errors.SimulationError` chained to the pool error, after
  the same teardown as a failing task, so no ``/dev/shm`` segment
  outlives it.

This module is the *only* place in the source tree allowed to import
``multiprocessing`` / ``concurrent.futures`` (simlint rule SL011): process
parallelism anywhere else would let scheduling nondeterminism leak into the
simulation.
"""

from __future__ import annotations

import concurrent.futures
import gc
import itertools
import os
from multiprocessing import get_context, shared_memory
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..errors import SimulationError
from ..query.physical_plan import PhysicalPlan
from .cost_model import CostModel
from .metrics import ClusterMetrics, EpochMetrics
from .multisource import (
    MultiSourceConfig,
    MultiSourceExecutor,
    SourceMigrationState,
    SourceSpec,
)
from .sharding import (
    MigrationEvent,
    MigrationPolicy,
    PlacementLike,
    ShardedClusterExecutor,
)

T = TypeVar("T")

#: Shared-memory segment size per block (bytes).  Segments are sparse until
#: written, so a generous size costs only touched pages.
_SHM_BYTES_PER_BLOCK = 1 << 24

#: How long the controller waits for a worker's teardown task before
#: abandoning it to the pool shutdown (seconds).
_CLOSE_TIMEOUT_S = 30.0

_SEGMENT_IDS = itertools.count()

# Main-process side: the controller, its blocks freshly built, is published
# here for the duration of the forks, so worker processes inherit the block
# objects through the fork snapshot instead of pickling them.
_FORK_CONTEXT: Optional["ParallelBlockController"] = None

# Worker-process side: the harness owning this worker's blocks.
_WORKER: Optional["_WorkerHarness"] = None


def _segment_name() -> str:
    return f"repro_par_{os.getpid()}_{next(_SEGMENT_IDS)}"


class _ShmBumpAllocator:
    """Bump allocator carving dtype-aligned arrays out of one shm segment.

    Bump-only on purpose: the arena's growth policy doubles rarely and
    recycles buffers every epoch, so reclaiming superseded buffers is not
    worth offset bookkeeping.  Returns ``None`` when the segment is
    exhausted, which makes the arena fall back to private heap buffers.
    """

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self._shm = shm
        self._offset = 0

    def __call__(self, count: int, dtype: Any) -> Optional[np.ndarray]:
        dtype = np.dtype(dtype)
        itemsize = int(dtype.itemsize)
        start = -(-self._offset // itemsize) * itemsize
        nbytes = int(count) * itemsize
        if start + nbytes > self._shm.size:
            return None
        self._offset = start + nbytes
        return np.frombuffer(self._shm.buf, dtype=dtype, count=int(count), offset=start)


class _WorkerHarness:
    """Everything one worker process owns: its blocks and shm attachments."""

    def __init__(
        self,
        blocks: Dict[int, MultiSourceExecutor],
        segments: Dict[int, shared_memory.SharedMemory],
    ) -> None:
        self.blocks = blocks
        self.segments = segments


def _require_worker() -> _WorkerHarness:
    if _WORKER is None:
        raise SimulationError("worker process has not adopted its blocks")
    return _WORKER


# ---------------------------------------------------------------------------
# Worker-side task functions.  Must stay module-level (picklable by
# reference); each runs inside the single-process pool that owns a slice of
# the blocks.
# ---------------------------------------------------------------------------


def _worker_adopt(
    block_indices: Sequence[int], segment_names: Sequence[Optional[str]]
) -> List[int]:
    """First task in every worker: claim blocks from the fork snapshot.

    Runs after the fork, so ``_FORK_CONTEXT`` is this worker's private copy
    of the freshly constructed controller.  In arena mode each claimed
    block's arena is rebased onto the main-created shared-memory segment;
    segment lifetime stays with the main process (see the attach comment
    below for the resource-tracker subtlety).
    """
    global _WORKER, _FORK_CONTEXT
    snapshot = _FORK_CONTEXT
    if snapshot is None:
        raise SimulationError("fork context missing; controller misuse")
    _FORK_CONTEXT = None
    blocks = {int(index): snapshot.blocks[index] for index in block_indices}
    # The fork keeps the controller's constructor frames alive on this
    # process's stack, and they reference the snapshot controller — emptying
    # its block list here is what lets _worker_close actually free block
    # state (and with it every numpy view into the shm segments).
    snapshot.blocks = []
    segments: Dict[int, shared_memory.SharedMemory] = {}
    for index, name in zip(block_indices, segment_names):
        if name is None:
            continue
        # Attaching registers the segment with the (fork-shared) resource
        # tracker a second time; the tracker's cache is a set, so the extra
        # registration collapses and the main process's unlink() both
        # removes the file and clears the single cache entry.  No
        # deregistration here — it would cancel the owner's registration.
        shm = shared_memory.SharedMemory(name=name)
        segments[int(index)] = shm
        arena = blocks[int(index)].epoch_engine.arena
        if arena is not None:
            arena.set_buffer_allocator(_ShmBumpAllocator(shm))
    _WORKER = _WorkerHarness(blocks, segments)
    return sorted(blocks)


def _worker_detach(block_index: int, source_name: str) -> SourceMigrationState:
    """Detach a migrating source; its state pickles back to the controller."""
    harness = _require_worker()
    return harness.blocks[block_index].detach_source(source_name)


def _worker_attach(block_index: int, state: SourceMigrationState) -> int:
    """Attach a migrated source shipped over from another worker."""
    harness = _require_worker()
    harness.blocks[block_index].attach_source(state)
    return block_index


def _worker_map(fn: Callable[[int, MultiSourceExecutor], T]) -> List[Tuple[int, T]]:
    """Apply ``fn(block_index, block)`` to every owned block, in index order."""
    harness = _require_worker()
    return [(index, fn(index, block)) for index, block in sorted(harness.blocks.items())]


def _worker_close() -> bool:
    """Tear down this worker: drop block state, detach shm segments."""
    global _WORKER
    harness = _WORKER
    _WORKER = None
    if harness is None:
        return False
    for block in harness.blocks.values():
        arena = block.epoch_engine.arena
        if arena is not None:
            arena.set_buffer_allocator(None)
    # Arena column buffers are numpy views into the segments; they must be
    # garbage-collected before close() or the mmap refuses to unmap.
    harness.blocks.clear()
    gc.collect()
    for shm in harness.segments.values():
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a view outlived the blocks
            pass
    harness.segments.clear()
    return True


# ---------------------------------------------------------------------------
# The controller.
# ---------------------------------------------------------------------------


class ParallelBlockController(ShardedClusterExecutor):
    """Run a sharded fleet's K blocks across a persistent worker pool.

    A :class:`~repro.simulation.sharding.ShardedClusterExecutor` whose
    blocks live in worker processes: same constructor plus a ``workers``
    count, and the inherited ``run`` / ``run_epoch`` / ``migrate`` /
    introspection, so metrics are bit-identical to the serial executor
    (test-enforced per epoch per source in both record modes, including
    under migration schedules).  Only ``_blockwise`` and ``_handoff`` are
    overridden, to dispatch to the worker owning each block.  The serial
    executor remains the default and the reference.

    The controller owns OS resources (worker processes, shared-memory
    segments): call :meth:`close` when done, or use it as a context
    manager.  Any error escaping a worker task, or a worker process dying,
    cancels the sibling futures, shuts the pools down, and unlinks every
    segment before the error propagates.
    """

    def __init__(
        self,
        plan: PhysicalPlan,
        cost_model: CostModel,
        sources: Sequence[SourceSpec],
        num_blocks: int,
        placement: PlacementLike = "round_robin",
        cluster_config: Optional[MultiSourceConfig] = None,
        migration: Optional[MigrationPolicy] = None,
        workers: int = 2,
    ) -> None:
        if workers <= 0:
            raise SimulationError(f"workers must be positive, got {workers!r}")
        super().__init__(
            plan=plan,
            cost_model=cost_model,
            sources=sources,
            num_blocks=num_blocks,
            placement=placement,
            cluster_config=cluster_config,
            migration=migration,
        )
        self._num_workers = min(int(workers), self.num_blocks)
        self._worker_of = {
            index: index % self._num_workers for index in range(self.num_blocks)
        }
        self._pools: List[concurrent.futures.ProcessPoolExecutor] = []
        self._segments: List[shared_memory.SharedMemory] = []
        self._closed = False
        try:
            self._start_workers()
        except BaseException:
            self.close()
            raise

    def _start_workers(self) -> None:
        global _FORK_CONTEXT
        segment_names: List[Optional[str]] = [None] * self.num_blocks
        if self.cluster_config.record_mode == "arena":
            for index in range(self.num_blocks):
                shm = shared_memory.SharedMemory(
                    name=_segment_name(), create=True, size=_SHM_BYTES_PER_BLOCK
                )
                self._segments.append(shm)
                segment_names[index] = shm.name
        context = get_context("fork")
        _FORK_CONTEXT = self
        try:
            futures = []
            for worker in range(self._num_workers):
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=1, mp_context=context
                )
                self._pools.append(pool)
                indices = [
                    index
                    for index in range(self.num_blocks)
                    if self._worker_of[index] == worker
                ]
                # The first submit forks the worker, snapshotting the
                # unstepped blocks while _FORK_CONTEXT is published.
                futures.append(
                    pool.submit(
                        _worker_adopt,
                        indices,
                        [segment_names[index] for index in indices],
                    )
                )
            for future in futures:
                future.result()
        finally:
            _FORK_CONTEXT = None

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pools and unlink every shm segment.

        Idempotent; safe to call after a worker error (broken pools are
        skipped).  Segment unlinking happens on the main process — the
        owner — so no ``/dev/shm`` block outlives the controller even when
        a worker died mid-epoch.
        """
        if self._closed:
            return
        self._closed = True
        for pool in self._pools:
            try:
                pool.submit(_worker_close).result(timeout=_CLOSE_TIMEOUT_S)
            except Exception:
                pass
        for pool in self._pools:
            pool.shutdown(wait=True, cancel_futures=True)
        self._pools.clear()
        for shm in self._segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - defensive
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()

    def __enter__(self) -> "ParallelBlockController":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[object],
    ) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SimulationError("parallel controller has been closed")

    def shared_segment_names(self) -> List[str]:
        """Names of the shm segments backing block arenas (arena mode only)."""
        return [shm.name for shm in self._segments]

    # -- dispatch -----------------------------------------------------------------

    def _gather(
        self, calls: Sequence[Tuple[int, Callable[..., Any], Tuple[Any, ...]]]
    ) -> List[Any]:
        """Submit ``(worker, fn, args)`` calls and resolve them in order.

        A block raising :class:`SimulationError` mid-epoch must not leave
        sibling workers running or shm segments linked: pending futures are
        cancelled, the pools shut down, and every segment unlinked before
        the error propagates.  A dead worker breaks its pool, at submit or at
        result time; it gets the same teardown and surfaces as a
        :class:`SimulationError` chained to the pool error.
        """
        self._ensure_open()
        futures: List[concurrent.futures.Future] = []
        try:
            for worker, fn, args in calls:
                futures.append(self._pools[worker].submit(fn, *args))
            return [future.result() for future in futures]
        except BaseException as error:
            for future in futures:
                future.cancel()
            self.close()
            if isinstance(error, concurrent.futures.BrokenExecutor):
                raise SimulationError(
                    "a parallel worker process died; the controller is closed"
                ) from error
            raise

    def _call_worker(self, worker: int, fn: Callable[..., T], *args: Any) -> T:
        return self._gather([(worker, fn, args)])[0]

    def _blockwise(self, fn: Callable[[int, MultiSourceExecutor], T]) -> List[T]:
        """Run ``fn`` inside the worker owning each block, all workers at once."""
        results = self._gather(
            [(worker, _worker_map, (fn,)) for worker in range(len(self._pools))]
        )
        by_index: Dict[int, T] = dict(
            pair for worker_result in results for pair in worker_result
        )
        return [by_index[index] for index in range(self.num_blocks)]

    def _handoff(
        self, source_name: str, from_block: int, to_block: int
    ) -> SourceMigrationState:
        """Detach in the donor's worker, attach in the recipient's worker."""
        state = self._call_worker(
            self._worker_of[from_block], _worker_detach, from_block, source_name
        )
        self._call_worker(self._worker_of[to_block], _worker_attach, to_block, state)
        return state

    def map_blocks(self, fn: Callable[[int, MultiSourceExecutor], T]) -> Dict[int, T]:
        """Apply a picklable ``fn(block_index, block)`` inside each worker.

        The introspection escape hatch: ``fn`` runs in the process that owns
        each block's live state and its return value pickles back, so callers
        can probe worker-side state (e.g. per-source RNG states) without
        shipping whole blocks.
        """
        return dict(enumerate(self._blockwise(fn)))

    # -- execution: inherited, refused once the pool is closed --------------------

    def migrate(
        self, source_name: str, to_block: int, reason: str = ""
    ) -> MigrationEvent:
        self._ensure_open()
        return super().migrate(source_name, to_block, reason=reason)

    def run_epoch(self) -> Dict[str, EpochMetrics]:
        self._ensure_open()
        return super().run_epoch()

    def run(
        self, num_epochs: int, warmup_epochs: Optional[int] = None
    ) -> ClusterMetrics:
        self._ensure_open()
        return super().run(num_epochs, warmup_epochs=warmup_epochs)
