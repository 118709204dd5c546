"""Equivalence suite for the vectorized trace-replay engine.

The engine (:mod:`repro.replay`) must reproduce, from a fresh machine, the
scalar simulator's block store and counters **bit-exactly**: every
component model (L2, MDC, DRAM) is checked against its scalar oracle on
targeted patterns and random streams, the full engine is property-tested
against the scalar reference loop on random traces (including tiny caches
that force evictions and the MDC slow path), and whole simulations are
compared result-for-result over the paper's workload x backend x MAG grid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import Job
from repro.campaign.worker import simulate_job
from repro.core.config import SLCConfig, SLCVariant
from repro.core.metadata_cache import MetadataCache
from repro.core.slc import SLCCompressor
from repro.gpu.backends import NoCompressionBackend, SLCBackend, StoredBatch
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.dram import DRAMChannel, GDDR5Timing
from repro.gpu.memory_controller import BlockStore, MemoryController
from repro.gpu.trace import AccessType, MemoryTrace
from repro.obs import metrics
from repro.replay import replay_trace, replay_trace_scalar
from repro.replay.dram import apply_rows, scan_rows
from repro.replay.l2 import resolve_l2
from repro.replay.plan import ReplayCache, _plan_mdc
from repro.utils.blocks import array_to_rows
from repro.workloads.base import Region
from repro.workloads.registry import PAPER_WORKLOAD_ORDER

SCALE = 1.0 / 1024.0


# --------------------------------------------------------------------- #
# L2: array model vs. the scalar SetAssociativeCache oracle, from empty


def _assert_l2_equivalent(addresses, is_write, *, sets=4, ways=2):
    size = sets * ways * 128
    oracle = SetAssociativeCache(size, line_bytes=128, ways=ways)
    oracle_miss = [
        not oracle.access(address, is_write=write)
        for address, write in zip(addresses, is_write)
    ]
    vector = SetAssociativeCache(size, line_bytes=128, ways=ways)
    vector_miss, outcome = resolve_l2(
        vector,
        np.asarray(addresses, dtype=np.int64),
        np.asarray(is_write, dtype=np.bool_),
    )
    assert vector_miss.tolist() == oracle_miss
    outcome.apply(vector)
    assert vars(vector.stats) == vars(oracle.stats)
    return oracle.stats


def test_l2_streaming_and_reuse():
    addresses = list(range(16)) + list(range(16))  # sweep twice
    _assert_l2_equivalent(addresses, [False] * 32, sets=4, ways=2)


def test_l2_dirty_evictions_and_writebacks():
    # addresses 0, 4, 8, 12 all land in set 0 of a 4-set cache
    addresses = [0, 4, 0, 8, 12, 4, 0]
    is_write = [True, False, True, True, False, True, False]
    _assert_l2_equivalent(addresses, is_write, sets=4, ways=2)


def test_l2_repeat_counts_are_hits():
    """An address repeated back to back misses at most once."""
    stats = _assert_l2_equivalent(
        [3] * 4 + [3] * 2 + [7] * 3, [False] * 4 + [True] * 2 + [False] * 3
    )
    assert (stats.hits, stats.misses) == (7, 2)


@given(
    accesses=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.booleans(),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=80,
    ),
    ways=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_l2_property_random_streams(accesses, ways):
    # each entry is one address accessed ``count`` times back to back
    addresses = [a for a, _, count in accesses for _ in range(count)]
    is_write = [w for _, w, count in accesses for _ in range(count)]
    _assert_l2_equivalent(addresses, is_write, sets=2, ways=ways)


def test_l2_rejects_negative_addresses():
    with pytest.raises(ValueError):
        resolve_l2(SetAssociativeCache(1024), np.array([-1]), np.array([False]))


# --------------------------------------------------------------------- #
# MDC: a controller's planned pass vs. the scalar MetadataCache oracle,
# from empty, host fills first


def _assert_mdc_equivalent(events, *, capacity, fills=()) -> str:
    """Compare ``_plan_mdc`` with the oracle; returns the regime it took.

    The oracle stores each event's burst count; the plan stores none, as
    stored values never change a hit.
    """
    oracle = MetadataCache(capacity_entries=capacity)
    for address in fills:
        oracle.update(address, 1)
    oracle_hits = []
    for address, lookup, value in events:
        oracle_hits.append(lookup and oracle.lookup(address) is not None)
        oracle.update(address, value)
    metrics.disable()
    metrics.clear()
    metrics.enable()
    try:
        hits, stats = _plan_mdc(
            capacity,
            np.array(fills, dtype=np.int64),
            np.array([a for a, _, _ in events], dtype=np.int64),
            np.array([lookup for _, lookup, _ in events], dtype=np.bool_),
        )
        counters = metrics.snapshot()["counters"]
    finally:
        metrics.disable()
        metrics.clear()
    assert hits.tolist() == oracle_hits
    expected = oracle.stats
    assert stats == (expected.hits, expected.misses, expected.evictions, expected.updates)
    (regime,) = counters  # one pass per controller
    assert counters[regime] == 1
    return regime


def test_mdc_fast_path_no_evictions():
    events = [(1, True, 2), (2, False, 3), (1, True, 2), (3, True, 4), (2, True, 3)]
    assert _assert_mdc_equivalent(events, capacity=8, fills=[3, 5]) == "mdc.fast_path"


def test_mdc_slow_path_evictions():
    # capacity 2 with 5 distinct addresses: forces LRU evictions
    events = [(1, True, 1), (2, False, 2), (3, True, 3), (1, True, 1), (4, True, 4)]
    assert _assert_mdc_equivalent(events, capacity=2, fills=[9]) == "mdc.fallback"


@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.booleans(),
            st.integers(min_value=1, max_value=4),
        ),
        max_size=60,
    ),
    fills=st.lists(st.integers(min_value=0, max_value=12), unique=True, max_size=6),
    capacity=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_mdc_property_random_streams(events, fills, capacity):
    regime = _assert_mdc_equivalent(events, capacity=capacity, fills=sorted(fills))
    distinct = len({a for a, _, _ in events} | set(fills))
    assert regime == ("mdc.fallback" if distinct > capacity else "mdc.fast_path")


# --------------------------------------------------------------------- #
# DRAM: batched row scan vs. per-request service() on a precharged channel
# (bank-conflict row thrash is the edge case the scan must honor)


def _assert_dram_equivalent(byte_addresses, bursts, *, timing=None):
    oracle = DRAMChannel(timing=timing)
    for address, burst in zip(byte_addresses, bursts):
        oracle.service(address, burst)
    vector = DRAMChannel(timing=timing)
    scan = scan_rows(vector.timing, np.asarray(byte_addresses))
    apply_rows(vector, scan, int(sum(bursts)))
    assert vars(vector.stats) == vars(oracle.stats)


def test_dram_streaming_row_hits():
    addresses = [i * 128 for i in range(64)]
    _assert_dram_equivalent(addresses, [4] * 64)


def test_dram_bank_conflict_row_thrash():
    # Alternate between two rows that map to the same bank: every request
    # closes the other one's row, so the scan must count all misses and
    # charge precharge + activate on each.
    timing = GDDR5Timing()
    stride = timing.row_bytes * timing.num_banks  # same bank, next row
    addresses = [0, stride] * 32
    _assert_dram_equivalent(addresses, [2] * 64, timing=timing)


def test_dram_rejects_zero_bursts():
    """A block stored with 0 bursts fails both engines before any channel use."""

    class ZeroBurstBackend(NoCompressionBackend):
        def store(self, block, approximable=True):
            return type(super().store(block))(bursts=0, stored_bits=0, data=block)

        def store_batch(self, rows, approximable=True):
            n = rows.shape[0]
            return StoredBatch(
                bursts=np.zeros(n, dtype=np.int64),
                stored_bits=np.zeros(n, dtype=np.int64),
                lossy=np.zeros(n, dtype=np.bool_),
                data=rows,
            )

    region = Region(name="r", array=np.zeros(32, dtype=np.float32))
    rows = np.zeros((1, 128), np.uint8)
    trace = MemoryTrace()
    trace.add_blocks("r", [0], AccessType.WRITE)
    for engine, options in [
        (replay_trace_scalar, {}),
        (replay_trace, {"cache": ReplayCache(trace, rows, np.zeros(1, dtype=bool))}),
    ]:
        controllers = [MemoryController(0, ZeroBurstBackend())]
        with pytest.raises(ValueError, match="burst"):
            engine(
                trace, all_regions={"r": region}, rows=rows, base_addresses={"r": 0},
                l2=SetAssociativeCache(2 * 2 * 128, line_bytes=128, ways=2),
                controllers=controllers, interleave_blocks=16, **options,
            )
        assert controllers[0].channel.stats.requests == 0


@given(
    requests=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=4),
        ),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_dram_property_random_streams(requests):
    timing = GDDR5Timing(num_banks=2, row_bytes=256)
    addresses = [a * 128 for a, _ in requests]
    bursts = [b for _, b in requests]
    _assert_dram_equivalent(addresses, bursts, timing=timing)


# --------------------------------------------------------------------- #
# MDC-miss accounting on the controller miss path


def test_mdc_miss_fetches_worst_case_and_counts_extra_bursts():
    backend = NoCompressionBackend()

    class OneBurstBackend(NoCompressionBackend):
        def store(self, block, approximable=True):
            stored = super().store(block, approximable=approximable)
            return type(stored)(
                bursts=1, stored_bits=stored.stored_bits, data=stored.data
            )

    controller = MemoryController(0, OneBurstBackend(), mdc_entries=1)
    controller.store_block(0, bytes(128), count_traffic=False)
    controller.store_block(1, bytes(128), count_traffic=False)  # evicts 0's entry
    controller.read_block(0)  # MDC miss: fetch worst case (4), actual is 1
    assert controller.stats.read_bursts == 4
    assert controller.stats.mdc_extra_bursts == 3
    controller.read_block(0)  # entry refilled: fetch the actual single burst
    assert controller.stats.read_bursts == 5
    assert controller.stats.mdc_extra_bursts == 3


# --------------------------------------------------------------------- #
# full engine vs. the scalar reference loop (random traces, tiny caches)


def _make_state(seed: int, backend_kind: str, mdc_entries: int):
    """One fresh replay context: regions, trained backend, controllers.

    The input region's host copy is in the shared store, unbooked, as the
    simulator's batched host-to-device copy leaves it.
    """
    rng = np.random.default_rng(seed)
    arrays = {
        "inp": (rng.random(160) * 40).astype(np.float32),
        "out": np.zeros(96, dtype=np.float32),
    }
    regions = {
        "inp": Region(name="inp", array=arrays["inp"], approximable=True),
        "out": Region(name="out", array=arrays["out"], approximable=False, is_output=True),
    }
    region_rows = {name: array_to_rows(r.array, 128) for name, r in regions.items()}
    rows = np.concatenate(list(region_rows.values()))
    base_addresses, base = {}, 0
    for name in regions:
        base_addresses[name] = base
        base += len(region_rows[name])

    if backend_kind == "slc":
        backend = SLCBackend(SLCCompressor(SLCConfig(variant=SLCVariant.OPT)))
        backend.train([row.tobytes() for row in region_rows["inp"]])
    else:
        backend = NoCompressionBackend()
    store = BlockStore(128, n_blocks=len(rows))
    host = slice(base_addresses["inp"], base_addresses["inp"] + len(region_rows["inp"]))
    store.write(host, backend.store_batch(region_rows["inp"], approximable=True))
    controllers = [
        MemoryController(i, backend, mdc_entries=mdc_entries, store=store)
        for i in range(2)
    ]
    l2 = SetAssociativeCache(2 * 2 * 128, line_bytes=128, ways=2)  # 2 sets, 2 ways
    return regions, rows, base_addresses, l2, controllers


def _store_state(store: BlockStore):
    return {
        a: (int(store.bursts[a]), int(store.stored_bits[a]), store.data[a].tobytes(),
            bool(store.lossy[a]))
        for a in np.nonzero(store.bursts)[0].tolist()
    }


def _run_both(trace: MemoryTrace, *, backend_kind: str, seed: int, mdc_entries: int):
    """Replay ``trace`` on a fresh state through each engine.

    Asserts both engines end with the same counters and block store, and
    returns them.
    """
    results = []
    for engine in (replay_trace_scalar, replay_trace):
        regions, rows, bases, l2, controllers = _make_state(
            seed, backend_kind, mdc_entries
        )
        flags = np.concatenate([
            np.full(len(array_to_rows(region.array, 128)), region.approximable)
            for region in regions.values()
        ])
        options = {"cache": ReplayCache(trace, rows, flags)} if engine is replay_trace else {}
        engine(
            trace,
            all_regions=regions,
            rows=rows,
            base_addresses=bases,
            l2=l2,
            controllers=controllers,
            interleave_blocks=2,
            **options,
        )
        results.append((
            vars(l2.stats).copy(),
            [
                (vars(c.stats).copy(), vars(c.mdc.stats).copy(),
                 vars(c.channel.stats).copy())
                for c in controllers
            ],
            _store_state(controllers[0].store),
        ))
    scalar_state, vector_state = results
    assert vector_state == scalar_state
    return scalar_state


trace_entries = st.lists(
    st.tuples(
        st.sampled_from(["inp", "out"]),
        st.integers(min_value=0, max_value=2),
        st.booleans(),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=40,
)


def _trace_of(entries) -> MemoryTrace:
    """Each entry is one block accessed ``count`` times back to back."""
    trace = MemoryTrace()
    for region, block, write, count in entries:
        trace.add_blocks(
            region, [block] * count, AccessType.WRITE if write else AccessType.READ
        )
    return trace


@given(entries=trace_entries, backend_kind=st.sampled_from(["none", "slc"]))
@settings(max_examples=40, deadline=None)
def test_engine_property_random_traces(entries, backend_kind):
    # mdc_entries=4 forces the exact slow path + LRU evictions in the MDC
    _run_both(_trace_of(entries), backend_kind=backend_kind, seed=11, mdc_entries=4)


def test_engine_streamed_trace_matches_scalar():
    trace = MemoryTrace()
    trace.add_stream("inp", 3, AccessType.READ, passes=2)
    trace.add_stream("out", 2, AccessType.WRITE)
    trace.add_stream("inp", 3, AccessType.READ, stride=2)
    _run_both(trace, backend_kind="slc", seed=3, mdc_entries=8192)


def test_engine_empty_trace_is_a_no_op():
    _run_both(MemoryTrace(), backend_kind="none", seed=5, mdc_entries=8)


# --------------------------------------------------------------------- #
# whole-simulation equivalence over the paper grid


def _paired_results(job: Job):
    scalar = simulate_job(job, replay_mode="scalar")
    vector = simulate_job(job, replay_mode="vectorized")
    return scalar.to_dict(), vector.to_dict()


@pytest.mark.parametrize("workload", PAPER_WORKLOAD_ORDER)
@pytest.mark.parametrize("mag", [16, 32, 64])
@pytest.mark.parametrize("scheme", ["E2MC", "TSLC-OPT"])
def test_simulation_equivalence_grid(workload, mag, scheme):
    job = Job(
        workload=workload,
        scheme=scheme,
        scale=SCALE,
        seed=2019,
        mag_bytes=mag,
        lossy_threshold_bytes=max(1, mag // 2),
        compute_error=False,
    )
    scalar, vector = _paired_results(job)
    assert vector == scalar


@pytest.mark.parametrize("scheme", ["TSLC-SIMP", "TSLC-PRED"])
def test_simulation_equivalence_other_variants(scheme):
    job = Job(workload="FWT", scheme=scheme, scale=SCALE, seed=2019, compute_error=False)
    scalar, vector = _paired_results(job)
    assert vector == scalar


@pytest.mark.parametrize("workload", ["NN", "TP"])
def test_simulation_equivalence_with_error(workload):
    """Degraded inputs (and therefore the application error) match too."""
    job = Job(workload=workload, scheme="TSLC-OPT", scale=SCALE, seed=2019)
    scalar, vector = _paired_results(job)
    assert vector == scalar
    assert vector["error_percent"] == scalar["error_percent"]


def test_simulation_equivalence_uncompressed_backend():
    from repro.gpu.simulator import GPUSimulator
    from repro.workloads.registry import get_workload

    results = {}
    for mode in ("scalar", "vectorized"):
        simulator = GPUSimulator(replay_mode=mode)
        results[mode] = simulator.run(
            get_workload("TP", scale=SCALE), NoCompressionBackend(), compute_error=False
        )
    assert results["vectorized"].to_dict() == results["scalar"].to_dict()


def test_replay_mode_validation():
    from repro.gpu.simulator import GPUSimulator

    with pytest.raises(ValueError):
        GPUSimulator(replay_mode="turbo")
