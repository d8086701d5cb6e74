"""Execution substrate: an epoch-driven simulator of the paper's deployment.

The paper evaluates Jarvis on an EC2 testbed (t2.micro data sources, an
m5a.16xlarge stream processor, and a 10 Gbps shared link).  This subpackage
replaces that testbed with a discrete-time simulator that accounts for
per-operator CPU cost, per-epoch CPU budgets on the data source, a
bandwidth-limited uplink, and stream-processor-side processing of drained
records.  All evaluation figures are regenerated on top of it.

The simulator is layered as **one shared per-epoch engine under several
thin executors**:

* :mod:`repro.simulation.engine` — the accounting engine every executor is
  built on.  :class:`EpochEngine` owns source stepping (record fetching,
  pipeline execution, strategy observation/feedback, record-conservation
  counters, warmup/run-loop scaffolding); :class:`EpochAccountant` owns the
  goodput/latency arithmetic and :class:`EpochMetrics` assembly.  Accounting
  fixes land here exactly once.  A block epoch's control plane and
  accounting are array passes over the block's sources: one per stage for
  every source's routing, budget, relief, backpressure and proxy state
  (:func:`~repro.simulation.pipeline.stage_counts`), one per block for the
  conservation counters and for goodput, latency and query state
  (:meth:`EpochAccountant.finish_block_epoch`); only strategy feedback,
  container cuts and the returned objects run per source.
* Executors contribute only their network/SP arbitration terms:

  - :class:`BuildingBlockExecutor` — one data source and its parent stream
    processor over a private :class:`NetworkLink` (the single-source
    experiments, Figures 3/7/8/9/11);
  - :class:`MultiSourceExecutor` — one *core building block*: N concurrently
    stepped sources, per-source carryover queues, max-min fair arbitration of
    one shared ingress :class:`NetworkLink` (:func:`max_min_fair_share`,
    count-based FIFO transfer arithmetic, :func:`plan_fifo_transfer`), and a
    compute-capped stream processor (Figure 10, §VI-E);
  - :class:`CoLocatedBlockExecutor` — several independent queries
    (:class:`QuerySpec`) sharing ONE stream-processor node, the link split
    hierarchically (weighted max-min across queries, max-min across each
    query's sources) and SP compute split by ``sp_compute_share``, with
    compute one query leaves idle water-filled into its backlogged
    neighbours (Figure 11 at cluster scale);
  - :class:`ShardedClusterExecutor` — the one sharded executor: a fleet
    tiled across K :class:`MultiSourceExecutor` building blocks by a
    :class:`PlacementPolicy` (Figure 4b), every block built from the one
    ``cluster_config`` template, so each has the same
    :class:`StreamProcessorNode` capacity.  Blocks without sources are
    legitimate idle blocks (they step zero-byte epochs with their capacity
    still counted).

**Dynamic re-placement** reacts to measured load instead of freezing the
placement at construction: a :class:`MigrationPolicy` (the bundled
:class:`SaturationMigrationPolicy` watches per-block link pressure and SP
backlog with hysteresis, per-source cooldowns, and EWMA-smoothed measured
rates) decides between epochs which sources move, and
:meth:`ShardedClusterExecutor.migrate` executes each move as a live
handoff — :meth:`MultiSourceExecutor.detach_source` /
:meth:`~MultiSourceExecutor.attach_source` transfer the source's engine
state, carryover queue (in-flight partial-transfer progress included), and
SP backlog items, withdrawing its queued bytes from the old block's
ingress :class:`NetworkLink` and re-offering them on the new one.  Record
conservation and per-source metric timelines stay continuous across every
move (property-tested over random migration schedules in every record
mode), runs record migration events and per-epoch placement snapshots in
their metadata, and a run without a policy is bit-identical to the frozen
placement (test-enforced).

Every executor runs in one of two **record modes** (the ``record_mode``
knob on :class:`ExecutorConfig` / :class:`MultiSourceConfig`): ``"object"``
flows one Python object per record and is the reference; ``"arena"`` is the
one columnar path.  It stacks *every source in a block* into one
:class:`~repro.query.records.FleetArena` — the schema's
:class:`~repro.query.records.RecordBatch` columns (1-D numpy arrays of one
fixed-size record type) and nothing else, plus a per-source row-span index.
A workload without a columnar form — the variable-size LogAnalytics log
lines — hands its record objects to the pipeline, which runs them on the
object path in both modes.  In the
fill phase each workload reserves its rows (the arena checks a schema once,
then admits equal ones unchecked) and its generation kernel writes the
epoch — one random draw, a handful of array writes — straight into the
reserved slices; the engine hands each pipeline a zero-copy slice view and
recycles the same buffers every epoch (allocation-free steady state).
Operator queues are detached through
:meth:`~repro.query.records.FleetArena.own` right after their source steps;
drained and emitted views may wait in the executor's carryover and SP
backlog for the rest of the block epoch, whose last phase owns whatever is
still queued — only this epoch's items, at each FIFO's tail — so between
epochs no executor-held batch aliases an arena, and the conservation check
reports one that does.  Routing, queueing, draining and shipping are count
arithmetic on those views, decided for every source of a block at once.  Group aggregation of the
bundled probe queries stays columnar on the source and SP pipelines: each
batch is stored as a raw run of packed int64 keys and float values,
distinct-group counts sort keys only, and values fold
(``np.add.reduceat`` over the sorted keys) only when a reader needs them —
the scale executors discard window outputs, so they never fold.  Any
operator without a columnar implementation materializes the batch and runs
its object path.  Both modes produce bit-identical metrics — an
equivalence the test suite enforces per epoch, per source, on the Figure 10
and Figure 11 configurations and under random migration schedules.

**Process-parallel execution** puts the sharded lockstep on real cores:
:class:`~repro.simulation.parallel.ParallelBlockController`
(:mod:`repro.simulation.parallel`) is a :class:`ShardedClusterExecutor`
whose K blocks step across a persistent pool of forked worker processes
instead of a serial loop.  Both run the same code: the executor reaches
live block state only through two private primitives (apply a function to
every block; hand one source from a block to another), and the controller
overrides just those two, so the run and lockstep loops, the
:class:`MigrationPolicy` in the loop, placement bookkeeping, and metric
assembly are the serial executor's own code.  Workers adopt their blocks
once, at construction, from a fork snapshot of the unstepped controller; in
arena mode each block's :class:`~repro.query.records.FleetArena` column
buffers live in ``multiprocessing.shared_memory`` segments (created, owned,
and unlinked by the parent), and per-epoch results return as compact metric
structs.  Migration handoffs are the single cross-block synchronization
point: a :class:`SourceMigrationState` detaches in one worker and attaches
in another.  The serial executor stays the default and the reference (the
scenario harness builds the controller only for ``tiling.workers > 1``),
and parallel runs are bit-identical to it per epoch per source in both
record modes, including under random live-migration schedules
(test-enforced).

**Static contracts.** The invariants above are also enforced *statically* by
``simlint`` (``tools/simlint/``, run as ``python -m simlint src/`` with
``tools`` on ``PYTHONPATH``), an AST checker wired into CI alongside a
strict-mypy ratchet over this subpackage's accounting core:

* accounting arithmetic is single-homed in :mod:`repro.simulation.engine`
  (SL001) and record-conservation counters are only mutated by the engine,
  the pipeline, and the migration handoff (SL002);
* simulations stay deterministic — no unseeded RNGs or wall-clock reads
  (SL003) — and numerically disciplined: no banker's-rounding ``round()``
  (use :func:`repro.query.records.half_up`, SL004), no ``==`` on floats
  (SL005), and every float knob on the config dataclasses is validated with
  :func:`repro.errors.require_finite` (SL008);
* operators that define ``process`` also define ``process_batch`` or
  explicitly opt into the object-path fallback (SL006), and raised errors
  are project exception types, never bare ``ValueError``/``RuntimeError``
  (SL007);
* nothing reads the process environment — knobs live in scenario
  configs and ``--set`` overrides (SL009) — and
  ``copy.deepcopy`` is banned from the epoch hot path — window-boundary
  handoffs transfer ownership or shallow-copy instead (SL010);
* process-level parallelism is single-homed in
  :mod:`repro.simulation.parallel` — ``multiprocessing`` /
  ``concurrent.futures`` imports and ``os.fork`` calls anywhere else are
  banned (SL011), so the controller's fork-snapshot, shared-memory
  ownership, and teardown protocol is the one audited implementation.

Three of those contracts are *flow-checked* — simlint runs an
intraprocedural dataflow analysis over the accounting core rather than
matching patterns:

* **Units (SL012).** The suffix convention (``_bytes``, ``_mbps``,
  ``_s``, ``_share``, ``n_``/``_records`` counts, ``X_per_Y`` rates) is
  load-bearing: units are inferred from names, propagated through
  assignment and arithmetic, and mixed-unit ``+``/``-``/comparisons or
  unconverted rate-times-time expressions are build failures.  The byte
  accounting bugs of PRs 1–5 were all violations of this algebra.
* **Arena escape (SL013).** A :class:`FleetArena` view
  (``arena.view(...)`` or a slice of one) and the writable slices
  ``arena.reserve(...)`` hands a workload alias buffers the arena
  recycles at the next ``begin_epoch``; such a value may not be stored on
  ``self``, pushed into attribute-reachable containers, or returned —
  i.e. may not outlive the epoch — without being materialized through
  ``own()``.  Same-epoch handoff through local containers stays free, and
  so does an executor queue that holds a drained view until
  ``MultiSourceExecutor._finish_epoch``, which owns what remains; the
  conservation check catches a queued view that outlives the epoch.
* **Worker purity (SL014).** Code reachable from the worker-side entry
  points of :mod:`repro.simulation.parallel` may not write module globals
  beyond the worker-owned ``_WORKER``/``_FORK_CONTEXT``, may not create
  or unlink shared-memory segments (the main process owns segment
  lifetime), and may not touch the ``resource_tracker`` registry; worker
  results travel through return values only.

Each rule is documented, with the historical bug that motivated it, in
``tools/simlint/README.md``; suppress a deliberate exception with a
``# simlint: disable=RULE`` comment on the offending line (unused
suppressions are themselves flagged, SL015), or assert a value's unit
with ``# simlint: unit[bytes]``.
"""

from .cost_model import CostModel, OperatorCostSpec
from .engine import (
    BlockStep,
    EpochAccountant,
    EpochEngine,
    RECORD_MODES,
    SourceState,
    validate_record_mode,
)
from .network import (
    NetworkLink,
    TransferPlan,
    TransmitResult,
    max_min_fair_share,
    plan_fifo_transfer,
    weighted_max_min_fair_share,
)
from .node import StreamProcessorNode, BudgetSchedule
from .pipeline import (
    BlockEpoch,
    RecordContainer,
    SourcePipeline,
    SourceEpochResult,
    StreamProcessorPipeline,
)
from .executor import BuildingBlockExecutor, ExecutorConfig
from .metrics import (
    ClusterEpochMetrics,
    ClusterMetrics,
    EpochMetrics,
    MultiQueryMetrics,
    RunMetrics,
)
from .cluster import ClusterModel, ClusterResult
from .multisource import (
    MultiSourceConfig,
    MultiSourceExecutor,
    SourceMigrationState,
    SourceSpec,
    homogeneous_sources,
)
from .multiquery import CoLocatedBlockExecutor, QuerySpec
from .parallel import ParallelBlockController
from .sharding import (
    ByteRateBalancedPlacement,
    MigrationDecision,
    MigrationEvent,
    MigrationPolicy,
    NeverMigrate,
    PlacementPolicy,
    RoundRobinPlacement,
    SaturationMigrationPolicy,
    ShardedClusterExecutor,
    StaticPlacement,
    make_placement,
)

__all__ = [
    "CostModel",
    "OperatorCostSpec",
    "BlockStep",
    "EpochAccountant",
    "EpochEngine",
    "RECORD_MODES",
    "SourceState",
    "validate_record_mode",
    "NetworkLink",
    "TransferPlan",
    "TransmitResult",
    "plan_fifo_transfer",
    "StreamProcessorNode",
    "BudgetSchedule",
    "BlockEpoch",
    "RecordContainer",
    "SourcePipeline",
    "SourceEpochResult",
    "StreamProcessorPipeline",
    "BuildingBlockExecutor",
    "ExecutorConfig",
    "EpochMetrics",
    "RunMetrics",
    "ClusterEpochMetrics",
    "ClusterMetrics",
    "ClusterModel",
    "ClusterResult",
    "MultiQueryMetrics",
    "MultiSourceConfig",
    "MultiSourceExecutor",
    "SourceMigrationState",
    "SourceSpec",
    "homogeneous_sources",
    "CoLocatedBlockExecutor",
    "QuerySpec",
    "ParallelBlockController",
    "max_min_fair_share",
    "weighted_max_min_fair_share",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "ByteRateBalancedPlacement",
    "StaticPlacement",
    "make_placement",
    "MigrationDecision",
    "MigrationEvent",
    "MigrationPolicy",
    "NeverMigrate",
    "SaturationMigrationPolicy",
    "ShardedClusterExecutor",
]
