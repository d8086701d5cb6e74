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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import WorkloadError, require_finite
from ..query.builder import Query, s2s_probe_query, t2t_probe_query
from ..query.records import (
    PINGMESH_RECORD_BYTES,
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

    def scaled(self, factor: float) -> "PingmeshConfig":
        """Return a copy with the input rate scaled by ``factor``.

        Mirrors the paper's 10x / 5x / 1x input-rate settings: the number of
        records per epoch scales while per-record costs stay constant.
        """
        if factor <= 0:
            raise WorkloadError(f"scale factor must be positive, got {factor!r}")
        return PingmeshConfig(
            records_per_epoch=max(1, half_up(self.records_per_epoch * factor)),
            peers=max(1, half_up(self.peers * factor)),
            error_rate=self.error_rate,
            base_rtt_ms=self.base_rtt_ms,
            rtt_jitter_ms=self.rtt_jitter_ms,
            tail_probability=self.tail_probability,
            tail_rtt_ms=self.tail_rtt_ms,
            anomaly_peer_fraction=self.anomaly_peer_fraction,
            anomaly_probability=self.anomaly_probability,
            anomaly_rtt_ms=self.anomaly_rtt_ms,
            seed=self.seed,
        )


class PingmeshWorkload:
    """Generates the probe stream observed by one data source node.

    Generation is columnar, through one kernel: each epoch's five probe
    columns are written into arrays the caller provides — fresh ones for
    :meth:`batch_for_epoch`, reserved fleet-arena slices for
    :meth:`fill_arena` — from one ``Generator.random`` draw per epoch, so
    both paths produce the same columns bit for bit.
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
        self._anomalous = frozenset(self._rng.sample(self._peers, anomaly_count))
        self._peers_np = np.arange(1000, 1000 + self.config.peers, dtype=np.int64)
        anomalous_np = np.zeros(len(self._peers), dtype=bool)
        if self._anomalous:
            anomalous_np[np.asarray(sorted(self._anomalous)) - 1000] = True
        self._anomalous_np = anomalous_np
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

    @property
    def input_rate_mbps(self) -> float:
        """Nominal input rate implied by the configuration, in Mbps."""
        return self.config.records_per_epoch * 86 * 8.0 / 1e6

    @property
    def anomalous_peers(self) -> frozenset:
        """Destination IPs configured to experience network issues."""
        return self._anomalous

    def _rtt_for(self, dst_ip: int) -> float:
        """Scalar RTT draw (kept for tests/tools that probe single records)."""
        cfg = self.config
        if dst_ip in self._anomalous and self._rng.random() < cfg.anomaly_probability:
            low, high = cfg.anomaly_rtt_ms
            return self._rng.uniform(low, high) * 1000.0  # milliseconds -> us
        if self._rng.random() < cfg.tail_probability:
            low, high = cfg.tail_rtt_ms
            return self._rng.uniform(low, high) * 1000.0
        jitter = self._rng.uniform(0.0, cfg.rtt_jitter_ms)
        return (cfg.base_rtt_ms + jitter) * 1000.0

    def records_for_epoch(self, epoch: int) -> List[PingmeshRecord]:
        """Probe records arriving during ``epoch`` (epoch duration = 1 s)."""
        return self.batch_for_epoch(epoch).to_records()

    def batch_for_epoch(self, epoch: int) -> RecordBatch:
        """One epoch's probe stream as a columnar batch of fresh arrays.

        Columns stay numpy arrays end-to-end: slicing, filtering, and
        concatenation on the arena path are then C operations.
        """
        count = self.config.records_per_epoch
        columns = {
            name: np.empty(count, dtype=dtype)
            for name, dtype in _COLUMN_DTYPES.items()
        }
        self._generate(epoch, columns)
        return RecordBatch(
            record_class=PingmeshRecord,
            columns=columns,
            uniform_size_bytes=PINGMESH_RECORD_BYTES,
        )

    def fill_arena(self, epoch: int, arena: object, source_id: int) -> bool:
        """Generate one epoch's probes straight into a fleet arena's rows.

        Arena-mode equivalent of :meth:`batch_for_epoch`: the same kernel
        writes the columns into reserved block-buffer slices instead of fresh
        arrays, so the generated columns are bit-identical while epoch
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
        self._generate(epoch, out)
        return True

    def _generate(self, epoch: int, out: Dict[str, np.ndarray]) -> None:
        """The generation kernel: write one epoch into ``out``'s columns.

        All randomness is one ``Generator.random(4 * count)`` draw, read as
        four consecutive blocks of ``count`` uniforms — error, anomaly, tail,
        value.  That is the stream, in the same order, that four
        ``random(count)`` draws would consume, so generation is deterministic
        per seed regardless of which branches records fall into.
        """
        cfg = self.config
        count = cfg.records_per_epoch
        draws = self._np_rng.random(4 * count)
        anomalous = self._next_peers(count, out["dst_ip"])
        np.less(draws[:count], cfg.error_rate, out=out["err_code"])
        is_anomaly = anomalous & (draws[count : 2 * count] < cfg.anomaly_probability)
        branch = (draws[2 * count : 3 * count] < cfg.tail_probability).astype(np.intp)
        branch[is_anomaly] = 2
        # In place as scale * value + base, then * 1000: IEEE addition and
        # multiplication commute, so this is (base + scale * value) * 1000
        # bit for bit (and ramp + epoch is epoch + ramp).
        rtts = out["rtt_us"]
        np.take(self._rtt_scale, branch, out=rtts)
        rtts *= draws[3 * count :]
        rtts += self._rtt_base.take(branch)
        rtts *= 1000.0
        np.add(self._ramp, float(epoch), out=out["event_time"])
        out["src_ip"].fill(self.src_ip)

    def _next_peers(self, count: int, dst_ips: np.ndarray) -> np.ndarray:
        """Write the next ``count`` destinations into ``dst_ips``.

        Destinations cycle through the sorted peer list from a cursor, copied
        as contiguous slices that restart at peer 0 on a wrap.  Returns the
        rows' anomalous-destination flags.
        """
        num_peers = len(self._peers_np)
        start = self._next_peer_index
        flags = []
        row = 0
        while row < count:
            take = min(count - row, num_peers - start)
            dst_ips[row : row + take] = self._peers_np[start : start + take]
            flags.append(self._anomalous_np[start : start + take])
            row += take
            start = (start + take) % num_peers
        self._next_peer_index = start
        return flags[0] if len(flags) == 1 else np.concatenate(flags)

    def tor_table(self, servers_per_tor: int = 40) -> IpToTorTable:
        """Static IP-to-ToR table covering this workload's destinations."""
        mapping: Dict[int, int] = {
            ip: ip // servers_per_tor for ip in self._peers
        }
        mapping[self.src_ip] = self.src_ip // servers_per_tor
        return IpToTorTable(mapping)


def s2s_cost_model(
    query: Optional[Query] = None,
    reference_records_per_second: float = DEFAULT_RECORDS_PER_EPOCH,
) -> CostModel:
    """Cost model for the S2SProbe query calibrated to the paper's numbers."""
    query = query or s2s_probe_query()
    operators = query.logical_plan().operators
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
    operators = query.logical_plan().operators
    return calibrate_cost_model(
        operators,
        cpu_fractions=T2T_CPU_FRACTIONS,
        input_records_per_second=reference_records_per_second,
        count_relay_ratios=T2T_COUNT_RELAYS,
        table_scale_exp=0.2,
    )
