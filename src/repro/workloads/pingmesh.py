"""Synthetic Pingmesh workload (Scenario 1 of the paper).

Pingmesh agents on every server probe a configured set of peer servers every
few seconds and record the round-trip time plus an error code; each probe
record is 86 bytes (Section II-B).  The relevant statistics reproduced here:

* **filter selectivity** — the S2SProbe filter keeps records with
  ``err_code == 0``; the paper reports a 14% filter-out rate;
* **grouping cardinality** — each (src, dst) server pair appears roughly
  twice per 10-second window (one probe every 5 seconds), so the number of
  groups per window is close to the number of probed peers;
* **sparse anomalies** — network issues produce rare high-RTT probes
  concentrated on a few problem destinations; these drive the data-synopsis
  comparison of Figure 9 (sampling misses them);
* **per-source rate variability** — a subset of servers probes a larger peer
  set on behalf of their rack, producing heterogeneous rates across sources.

The module also provides cost models for the two Pingmesh queries, calibrated
to the CPU fractions reported in the paper (Figure 3 and Section VI-B).
"""

from __future__ import annotations

import random

import numpy as np
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..errors import WorkloadError, require_finite
from ..query.builder import Query, s2s_probe_query, t2t_probe_query
from ..query.records import (
    PINGMESH_RECORD_BYTES,
    ArenaColumns,
    FleetArena,
    IpToTorTable,
    PingmeshRecord,
    RecordBatch,
    half_up,
)
from ..simulation.cost_model import CostModel, calibrate_cost_model

#: Default number of simulated records per one-second epoch at "10x" scaling.
DEFAULT_RECORDS_PER_EPOCH = 1000

#: CPU fractions of the S2SProbe operators at the nominal (10x) input rate,
#: from Figure 3: the filter needs ~13% of a core and the fused G+R needs
#: ~80% of a core to process all of the filter's output.
S2S_CPU_FRACTIONS = {"window": 0.0, "filter": 0.13, "group_aggregate": 0.80}

#: Count-based relay ratios used for calibration (the filter drops 14%).
S2S_COUNT_RELAYS = {"window": 1.0, "filter": 0.86}

#: CPU fractions for T2TProbe: each IP-to-ToR join is expensive enough that
#: Best-OP cannot place it at the source even with 100% of a core
#: (Section VI-B), and the final G+R works on already-enriched records.
T2T_CPU_FRACTIONS = {
    "window": 0.0,
    "filter": 0.13,
    "join": 0.95,
    "join_1": 0.95,
    "group_aggregate": 0.40,
}

T2T_COUNT_RELAYS = {"window": 1.0, "filter": 0.86, "join": 1.0, "join_1": 1.0}

#: Column dtypes of a Pingmesh batch, in column order.
_COLUMN_DTYPES = {
    "event_time": np.float64,
    "src_ip": np.int64,
    "dst_ip": np.int64,
    "rtt_us": np.float64,
    "err_code": np.int64,
}

#: Rows the generation kernel writes per chunk (:func:`fill_units`): every
#: column operation but the draw and the peer cursor runs once per chunk.
#: Measured on a 2-vCPU host, in µs per source epoch with 128 sources of a
#: run, one kernel call per source against 16,384-row chunks: 2,500 rows
#: 69 → 62, 600 rows 26.5 → 16.3, 400 rows 22.3 → 11.9, 100 rows 16.1 →
#: 5.6.  At 32 600-row sources per block (eight blocks), chunks of 4,096
#: rows took 5.3-5.6 ms per fleet epoch, 8,192 4.8-5.1, 16,384 4.8 and
#: 32,768 4.7 with a wider spread; at 2,500 rows 16,384 was fastest.
ARENA_CHUNK_ROWS = 16384


@dataclass(frozen=True)
class PingmeshConfig:
    """Parameters of the synthetic Pingmesh stream for one data source.

    Attributes:
        records_per_epoch: Simulated probe records generated per epoch.
        peers: Number of distinct destination servers probed (grouping-key
            cardinality per source; each pair appears ~twice per 10 s window).
        error_rate: Fraction of probes with a non-zero error code (filtered
            out by the S2SProbe/T2TProbe filter); the paper reports 14%.
        base_rtt_ms: Typical healthy round-trip time in milliseconds.
        rtt_jitter_ms: Uniform jitter added to healthy probes.
        tail_probability: Probability that a healthy probe sees a moderately
            elevated RTT (cross-pod hops, transient queueing); this produces
            the wide per-pair latency ranges that make sampling inaccurate in
            Figure 9 without triggering the 5 ms alert threshold.
        tail_rtt_ms: (low, high) range of those moderately elevated RTTs.
        anomaly_peer_fraction: Fraction of destinations experiencing a
            network issue (their probes may show high RTT).
        anomaly_probability: Probability that a probe to an anomalous
            destination actually records a high RTT.
        anomaly_rtt_ms: (low, high) range of anomalous RTTs in milliseconds.
        seed: RNG seed for reproducibility.
    """

    records_per_epoch: int = DEFAULT_RECORDS_PER_EPOCH
    peers: int = 5000
    error_rate: float = 0.14
    base_rtt_ms: float = 0.4
    rtt_jitter_ms: float = 0.4
    tail_probability: float = 0.15
    tail_rtt_ms: tuple = (1.0, 4.5)
    anomaly_peer_fraction: float = 0.02
    anomaly_probability: float = 0.25
    anomaly_rtt_ms: tuple = (5.0, 20.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.records_per_epoch <= 0:
            raise WorkloadError(
                f"records_per_epoch must be positive, got {self.records_per_epoch!r}"
            )
        if self.peers <= 0:
            raise WorkloadError(f"peers must be positive, got {self.peers!r}")
        require_finite("error_rate", self.error_rate, error=WorkloadError)
        require_finite(
            "base_rtt_ms", self.base_rtt_ms, non_negative=True, error=WorkloadError
        )
        require_finite(
            "rtt_jitter_ms", self.rtt_jitter_ms, non_negative=True,
            error=WorkloadError,
        )
        require_finite(
            "tail_probability", self.tail_probability, error=WorkloadError
        )
        require_finite(
            "anomaly_peer_fraction", self.anomaly_peer_fraction,
            error=WorkloadError,
        )
        require_finite(
            "anomaly_probability", self.anomaly_probability, error=WorkloadError
        )
        if not 0.0 <= self.error_rate <= 1.0:
            raise WorkloadError(
                f"error_rate must be within [0, 1], got {self.error_rate!r}"
            )
        if not 0.0 <= self.anomaly_peer_fraction <= 1.0:
            raise WorkloadError(
                "anomaly_peer_fraction must be within [0, 1], "
                f"got {self.anomaly_peer_fraction!r}"
            )
        if not 0.0 <= self.tail_probability <= 1.0:
            raise WorkloadError(
                f"tail_probability must be within [0, 1], got {self.tail_probability!r}"
            )


class PingmeshWorkload:
    """Generates the probe stream observed by one data source node.

    Generation is columnar, through one kernel (:func:`fill_units`): an
    epoch's five probe columns are written into arrays the caller provides
    — fresh ones for :meth:`batch_for_epoch`, a reserved fleet-arena slice
    for :meth:`fill_arena`, or a block's reserved rows when the engine fills
    many sources at once (:meth:`arena_units`) — from one
    ``Generator.random`` draw per epoch of this workload's own generator, so
    every path produces the same columns bit for bit.
    :meth:`records_for_epoch` materializes record objects from the same
    batch, so every execution mode consumes *identical* data by construction.
    """

    def __init__(self, config: Optional[PingmeshConfig] = None, src_ip: int = 1) -> None:
        self.config = config or PingmeshConfig()
        self.src_ip = int(src_ip)
        self._rng = random.Random(self.config.seed)
        anomaly_count = max(
            0, half_up(self.config.peers * self.config.anomaly_peer_fraction)
        )
        # Destination IPs are 1000..1000+peers; the anomalous subset is a
        # uniform random sample (seed-dependent), drawn directly instead of
        # shuffling the whole peer list — fleet construction is O(sample),
        # which matters when benchmarks build hundreds of sources.  A range
        # samples exactly as the equal list would (``sample`` only indexes
        # its population) without holding one Python int per peer.
        self._peers = range(1000, 1000 + self.config.peers)
        anomalous = self._rng.sample(self._peers, anomaly_count)
        self._peers_np = np.arange(1000, 1000 + self.config.peers, dtype=np.int64)
        #: Whether each peer (``dst_ip - 1000``) is configured to experience
        #: network issues.
        self._anomalous_np = np.zeros(len(self._peers), dtype=bool)
        self._anomalous_np[np.asarray(anomalous, dtype=np.int64) - 1000] = True
        self._np_rng = np.random.default_rng(self.config.seed)
        self._next_peer_index = 0
        # RTT = (base + scale * value) * 1000 per row, with (base, scale)
        # picked by the row's branch: 0 healthy, 1 tail, 2 anomaly.
        cfg = self.config
        tail_low, tail_high = cfg.tail_rtt_ms
        anomaly_low, anomaly_high = cfg.anomaly_rtt_ms
        self._rtt_base = np.array(
            [cfg.base_rtt_ms, tail_low, anomaly_low], dtype=np.float64
        )
        self._rtt_scale = np.array(
            [cfg.rtt_jitter_ms, tail_high - tail_low, anomaly_high - anomaly_low],
            dtype=np.float64,
        )
        #: Within-epoch event-time offsets; an epoch's times are epoch + ramp.
        self._ramp = np.arange(cfg.records_per_epoch) / cfg.records_per_epoch
        #: What the kernel reads off a chunk's first unit for all of them:
        #: workloads of equal shape generate together (the RTT tables as
        #: bytes, so a signed zero never joins its twin).
        self.generation_shape = (
            cfg.records_per_epoch, cfg.error_rate, cfg.anomaly_probability,
            cfg.tail_probability, self._rtt_base.tobytes(), self._rtt_scale.tobytes(),
        )

    @property
    def input_rate_mbps(self) -> float:
        """Nominal input rate implied by the configuration, in Mbps."""
        return self.config.records_per_epoch * 86 * 8.0 / 1e6

    def records_for_epoch(self, epoch: int) -> List[PingmeshRecord]:
        """Probe records arriving during ``epoch`` (epoch duration = 1 s)."""
        return self.batch_for_epoch(epoch).to_records()

    def batch_for_epoch(self, epoch: int) -> RecordBatch:
        """One epoch's probe stream as a columnar batch of fresh arrays.

        Columns stay numpy arrays end-to-end: slicing, filtering, and
        concatenation on the arena path are then C operations.
        """
        return ArenaUnits(self).batch(epoch)

    def arena_units(self, epoch: int) -> "ArenaUnits":
        """The block-fill entry: ``epoch`` is one unit of this workload.

        The engine looks this up on the workload's type, reserves the rows
        of every source that has it, and fills each run of consecutive
        same-shape sources with one :func:`fill_units` call.
        """
        return ArenaUnits(self)

    def fill_arena(self, epoch: int, arena: FleetArena, source_id: int) -> bool:
        """Generate one epoch's probes straight into a fleet arena's rows.

        The one-source form of the engine's block fill: the same kernel
        writes the columns into a reserved block-buffer slice instead of
        fresh arrays, so the generated columns are bit-identical while epoch
        stepping reuses the block's memory.  Returns False (without consuming
        any randomness) when the arena refuses the reservation; the engine
        then falls back to :meth:`batch_for_epoch`.
        """
        out = arena.reserve(
            source_id,
            self.config.records_per_epoch,
            PingmeshRecord,
            _COLUMN_DTYPES,
            PINGMESH_RECORD_BYTES,
        )
        if out is None:
            return False
        fill_units([ArenaUnits(self)], epoch, out)
        return True

    def _next_peers(self, dst_ips: np.ndarray, anomalous: np.ndarray) -> None:
        """Write the next ``len(dst_ips)`` destinations and their flags.

        Destinations cycle through the sorted peer list from a cursor, copied
        as contiguous slices that restart at peer 0 on a wrap; ``anomalous``
        gets each row's anomalous-destination flag.
        """
        num_peers = len(self._peers_np)
        count = len(dst_ips)
        start = self._next_peer_index
        row = 0
        while row < count:
            take = min(count - row, num_peers - start)
            dst_ips[row : row + take] = self._peers_np[start : start + take]
            anomalous[row : row + take] = self._anomalous_np[start : start + take]
            row += take
            start = (start + take) % num_peers
        self._next_peer_index = start

    def tor_table(self, servers_per_tor: int = 40) -> IpToTorTable:
        """Static IP-to-ToR table covering this workload's destinations."""
        mapping: Dict[int, int] = {
            ip: ip // servers_per_tor for ip in self._peers
        }
        mapping[self.src_ip] = self.src_ip // servers_per_tor
        return IpToTorTable(mapping)


def fill_units(units: Sequence[ArenaUnits], epoch: int, out: ArenaColumns) -> None:
    """The generation kernel: write ``units``' epochs, in order, into ``out``.

    Every unit's generator has one :attr:`ArenaUnits.shape` — records per
    epoch, the error, anomaly and tail probabilities, the RTT base and
    scale — and ``out``'s columns hold exactly their rows.  Each unit draws
    ``Generator.random(4 * count)`` from its own generator, in unit order,
    read as four consecutive blocks of ``count`` uniforms — error, anomaly,
    tail, value.  That is the stream, in the same order, that four
    ``random(count)`` draws would consume, so generation is deterministic
    per seed regardless of which branches records fall into, and of which
    units share a call.  Whole units are generated in chunks of at most
    :data:`ARENA_CHUNK_ROWS` rows, every column operation but the draw and
    the peer cursor running once per chunk; a fractional round ends its
    chunk, so its full draw follows the same generator's whole ones.
    """
    count = units[0].generator.config.records_per_epoch
    per_chunk = max(1, ARENA_CHUNK_ROWS // count)
    chunk: List[PingmeshWorkload] = []
    row = 0
    for unit in units:
        for _ in range(unit.rounds):
            chunk.append(unit.generator)
            if len(chunk) == per_chunk:
                row = _fill_chunk(chunk, epoch, out, row)
                chunk = []
        if unit.prefix is not None:
            row = _fill_chunk(chunk, epoch, out, row)
            chunk = []
            partial = unit.generator.batch_for_epoch(epoch)
            stop = row + unit.prefix
            for name, column in partial.columns.items():
                out[name][row:stop] = column[: unit.prefix]
            row = stop
    _fill_chunk(chunk, epoch, out, row)


def _fill_chunk(
    generators: List[PingmeshWorkload], epoch: int, out: ArenaColumns, row: int
) -> int:
    """Write one whole epoch of each generator from ``row`` on; the next row."""
    if not generators:
        return row
    first = generators[0]
    cfg = first.config
    count = cfg.records_per_epoch
    units = len(generators)
    stop = row + units * count
    rows = {
        name: column[row:stop].reshape(units, count) for name, column in out.items()
    }
    draws = np.empty((units, 4, count))
    anomalous = np.empty((units, count), dtype=bool)
    dst_ips = rows["dst_ip"]
    for unit, generator in enumerate(generators):
        generator._np_rng.random(out=draws[unit])
        generator._next_peers(dst_ips[unit], anomalous[unit])
    np.less(draws[:, 0], cfg.error_rate, out=rows["err_code"])
    anomalous &= draws[:, 1] < cfg.anomaly_probability
    branch = np.empty((units, count), dtype=np.intp)
    np.less(draws[:, 2], cfg.tail_probability, out=branch)
    branch[anomalous] = 2
    # In place as scale * value + base, then * 1000: IEEE addition and
    # multiplication commute, so this is (base + scale * value) * 1000
    # bit for bit (and ramp + epoch is epoch + ramp).
    rtts = rows["rtt_us"]
    np.take(first._rtt_scale, branch, out=rtts)
    rtts *= draws[:, 3]
    rtts += first._rtt_base.take(branch)
    rtts *= 1000.0
    np.add(first._ramp, float(epoch), out=rows["event_time"])
    rows["src_ip"][:] = np.array(
        [generator.src_ip for generator in generators], dtype=np.int64
    )[:, None]
    return stop


class ArenaUnits(NamedTuple):
    """One source's epoch as units of the generation kernel.

    A unit is one ``records_per_epoch``-row draw of ``generator``.  The
    source's epoch is ``rounds`` whole units, then, when ``prefix`` is not
    None, one more draw of which only the first ``prefix`` rows are kept (a
    fractional burst round, generated as a full epoch).
    """

    generator: PingmeshWorkload
    rounds: int = 1
    prefix: Optional[int] = None

    @property
    def rows(self) -> int:
        """Rows the source's epoch holds."""
        count = self.generator.config.records_per_epoch
        return self.rounds * count + (self.prefix or 0)

    @property
    def shape(self) -> tuple:
        """Sources of equal shape fill together (:func:`fill_units`)."""
        return self.generator.generation_shape

    def reserve(self, arena: FleetArena, source_id: int) -> Optional[int]:
        """Reserve the source's rows; the first row, or None if refused."""
        return arena.reserve_rows(
            source_id, self.rows, PingmeshRecord, _COLUMN_DTYPES, PINGMESH_RECORD_BYTES
        )

    def batch(self, epoch: int) -> RecordBatch:
        """The source's epoch as a batch of fresh columns."""
        rows = self.rows
        columns = {
            name: np.empty(rows, dtype=dtype) for name, dtype in _COLUMN_DTYPES.items()
        }
        fill_units([self], epoch, columns)
        return RecordBatch(
            record_class=PingmeshRecord,
            columns=columns,
            uniform_size_bytes=PINGMESH_RECORD_BYTES,
        )

    #: The generation kernel, for a caller that holds units but does not
    #: import this module (the engine's block fill).
    fill = staticmethod(fill_units)


def s2s_cost_model(
    query: Optional[Query] = None,
    reference_records_per_second: float = DEFAULT_RECORDS_PER_EPOCH,
) -> CostModel:
    """Cost model for the S2SProbe query calibrated to the paper's numbers."""
    query = query or s2s_probe_query()
    operators = query.operators
    return calibrate_cost_model(
        operators,
        cpu_fractions=S2S_CPU_FRACTIONS,
        input_records_per_second=reference_records_per_second,
        count_relay_ratios=S2S_COUNT_RELAYS,
    )


def t2t_cost_model(
    query: Optional[Query] = None,
    reference_records_per_second: float = DEFAULT_RECORDS_PER_EPOCH,
    table: Optional[IpToTorTable] = None,
) -> CostModel:
    """Cost model for the T2TProbe query calibrated to the paper's numbers.

    The join cost additionally scales with the static-table size relative to
    the size used at calibration time (the paper increases the table by 10x
    mid-run in Figure 8b to congest the join operator).
    """
    query = query or t2t_probe_query(table=table)
    operators = query.operators
    return calibrate_cost_model(
        operators,
        cpu_fractions=T2T_CPU_FRACTIONS,
        input_records_per_second=reference_records_per_second,
        count_relay_ratios=T2T_COUNT_RELAYS,
        table_scale_exp=0.2,
    )
