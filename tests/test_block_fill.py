"""The engine's block fill writes each source's epoch as its own
``batch_for_epoch`` would.

Arena mode fills a block's input in runs of consecutive same-shape sources,
chunk by chunk (``EpochEngine._fill_arena``, ``pingmesh.fill_units``).
Whatever runs and chunks the sources fall into, every column must equal an
identically seeded twin's ``batch_for_epoch`` byte for byte, and every
generator and peer cursor must end each epoch where the twin's does.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import make_setup
from repro.baselines import AllSPStrategy
from repro.query.records import RecordBatch
from repro.simulation.engine import EpochEngine
from repro.workloads import pingmesh
from repro.workloads.dynamics import BurstSpec, WorkloadBurst
from repro.workloads.pingmesh import PingmeshConfig, PingmeshWorkload

#: (records per epoch, peers): the peer cursor wraps mid-epoch, an epoch
#: covers every peer and wraps, and the records divide the peers.
SHAPES = [(7, 20), (30, 20), (100, 500)]
#: Two generation shapes: sources of another error rate split a run.
ERROR_RATES = (0.14, 0.3)
MULTIPLIERS = (2.0, 3.0, 1.5)
EPOCHS = 6
#: Kinds of source; "wrapped" has no block entry on its type, and a burst
#: over it joins its base's batches, as a burst over a bursting burst does.
KINDS = ("plain", "burst", "wrapped", "burst_over_wrapped", "burst_over_burst", "idle")

#: (kind, error-rate index, extra peers, multiplier, burst start, burst length)
SourcePlan = Tuple[str, int, int, float, int, int]


class _Forwarding:
    """A wrapper without the block entry on its type: the per-source path."""

    def __init__(self, inner: PingmeshWorkload) -> None:
        self.inner = inner

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


class _Idle:
    """A source with nothing to send."""

    def records_for_epoch(self, epoch: int) -> list:
        return []


@pytest.fixture(scope="module")
def setup() -> Any:
    return make_setup("s2s_probe", records_per_epoch=100)


def build(plan: SourcePlan, shape: Tuple[int, int], seed: int) -> Any:
    kind, rate, extra_peers, multiplier, start, length = plan
    if kind == "idle":
        return _Idle()
    records, peers = shape
    config = PingmeshConfig(
        records_per_epoch=records,
        peers=peers + extra_peers,
        error_rate=ERROR_RATES[rate],
        seed=seed,
    )
    workload: Any = PingmeshWorkload(config, src_ip=seed)
    if kind in ("wrapped", "burst_over_wrapped"):
        workload = _Forwarding(workload)
    if kind in ("burst", "burst_over_wrapped", "burst_over_burst"):
        workload = WorkloadBurst(
            workload, [BurstSpec(start, start + length, multiplier)]
        )
    if kind == "burst_over_burst":
        workload = WorkloadBurst(workload, [BurstSpec(1, 3, 1.5)])
    return workload


def generator_of(workload: Any) -> Optional[PingmeshWorkload]:
    while not isinstance(workload, PingmeshWorkload):
        if isinstance(workload, _Idle):
            return None
        workload = getattr(workload, "_base", None) or workload.inner
    return workload


def check_block_fill(
    setup: Any, shape: Tuple[int, int], plans: List[SourcePlan], chunk_rows: int
) -> None:
    engine = EpochEngine(setup.cost_model, setup.config, record_mode="arena")
    twins = []
    for index, plan in enumerate(plans):
        engine.add_source(
            f"s{index}", build(plan, shape, index), AllSPStrategy(), 1.0, setup.plan
        )
        twins.append(build(plan, shape, index))
    default_rows = pingmesh.ARENA_CHUNK_ROWS
    pingmesh.ARENA_CHUNK_ROWS = chunk_rows
    try:
        for epoch in range(EPOCHS):
            inputs = engine._fill_arena(epoch)
            for index, (state, twin) in enumerate(zip(engine.sources, twins)):
                where = (epoch, index, plans[index])
                generator = generator_of(twin)
                if generator is None:
                    assert inputs[index] == [], where
                    continue
                expected = twin.batch_for_epoch(epoch)
                filled = inputs[index]
                assert isinstance(filled, RecordBatch), where
                assert list(filled.columns) == list(expected.columns), where
                for name, column in expected.columns.items():
                    written = filled.columns[name]
                    assert written.dtype == column.dtype, (where, name)
                    assert written.tobytes() == column.tobytes(), (where, name)
                mine = generator_of(state.workload)
                assert (
                    mine._np_rng.bit_generator.state
                    == generator._np_rng.bit_generator.state
                ), where
                assert mine._next_peer_index == generator._next_peer_index, where
    finally:
        pingmesh.ARENA_CHUNK_ROWS = default_rows


source_plans = st.tuples(
    st.sampled_from(KINDS),
    st.integers(min_value=0, max_value=1),
    st.sampled_from([0, 3]),
    st.sampled_from(MULTIPLIERS),
    st.integers(min_value=0, max_value=EPOCHS - 2),
    st.integers(min_value=1, max_value=3),
)


class TestBlockFillMatchesPerSourceFill:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        plans=st.lists(source_plans, min_size=1, max_size=7),
        chunk_rows=st.sampled_from([16384, 64, 30, 1]),
    )
    def test_block_fill_equals_twins_batches(
        self,
        setup: Any,
        shape: Tuple[int, int],
        plans: List[SourcePlan],
        chunk_rows: int,
    ) -> None:
        check_block_fill(setup, shape, plans, chunk_rows)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("chunk_rows", [16384, 64])
    def test_every_path_in_one_block(
        self, setup: Any, shape: Tuple[int, int], chunk_rows: int
    ) -> None:
        # Runs split by a second shape, a per-source wrapper between two
        # runs, bursts turning on and off, an idle source, and a burst over
        # a wrapper, which joins its base's batches.
        plans: List[SourcePlan] = [
            ("plain", 0, 0, 2.0, 0, 1),
            ("plain", 0, 3, 2.0, 0, 1),
            ("wrapped", 0, 0, 2.0, 0, 1),
            ("burst", 0, 0, 2.0, 1, 2),
            ("burst", 0, 3, 1.5, 2, 3),
            ("idle", 0, 0, 2.0, 0, 1),
            ("plain", 1, 0, 2.0, 0, 1),
            ("burst", 1, 0, 3.0, 0, 4),
            ("burst_over_wrapped", 0, 0, 1.5, 1, 3),
            ("burst_over_burst", 0, 0, 2.0, 2, 2),
            ("plain", 0, 0, 2.0, 0, 1),
        ]
        check_block_fill(setup, shape, plans, chunk_rows)

    def test_chunks_cover_a_run_exactly(self) -> None:
        # A run longer than a chunk, cut at every unit count.
        configs = [
            PingmeshConfig(records_per_epoch=30, peers=20 + seed, seed=seed)
            for seed in range(9)
        ]
        expected = [PingmeshWorkload(c).batch_for_epoch(0) for c in configs]
        default_rows = pingmesh.ARENA_CHUNK_ROWS
        try:
            for chunk_rows in (1, 30, 60, 89, 90, 16384):
                pingmesh.ARENA_CHUNK_ROWS = chunk_rows
                units = [PingmeshWorkload(c).arena_units(0) for c in configs]
                out = {
                    name: np.empty(30 * len(units), dtype=column.dtype)
                    for name, column in expected[0].columns.items()
                }
                pingmesh.fill_units(units, 0, out)
                for name, column in out.items():
                    joined = np.concatenate([b.columns[name] for b in expected])
                    assert column.tobytes() == joined.tobytes(), (chunk_rows, name)
        finally:
            pingmesh.ARENA_CHUNK_ROWS = default_rows
