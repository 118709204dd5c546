"""Equivalence suite for array-native block storage.

Blocks travel as ``(n_blocks, block_size)`` uint8 row matrices: a prepared
input holds one row matrix over the run's address space, ``store_batch``
returns a struct-of-arrays :class:`~repro.gpu.backends.StoredBatch`, and a
run keeps what it stores in one address-indexed
:class:`~repro.gpu.memory_controller.BlockStore` shared by its controllers.
The per-block paths — ``backend.store``, ``MemoryController.store_block`` /
``read_block``, ``replay_mode="scalar"``, ``batch_store=False`` — remain
the n = 1 oracles, and every scheme (plus the uncompressed baseline) must
match them exactly: per stored batch, per final block store, and per
degraded input.  The backends bound a store's temporaries by slicing its
rows (``SLC_SLICE_ROWS``, ``LOSSLESS_SLICE_ROWS``); results must not see
the slice boundaries, and the peak memory of a store over eight slices
must stay within twice that of one slice.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.campaign.spec import KNOWN_SCHEMES, LOSSLESS_SCHEMES, Job
from repro.campaign.worker import build_backend, simulate_job
from repro.compression import get_compressor
from repro.compression.base import BlockCompressor, CompressedBlock
from repro.compression.e2mc import E2MCCompressor
from repro.core.config import SLCConfig
from repro.core.slc import SLCCompressor
from repro.gpu import backends
from repro.gpu.backends import (
    LosslessBackend,
    NoCompressionBackend,
    SLCBackend,
    StoredBatch,
)
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.gpu.memory_controller import BlockStore, MemoryController
from repro.gpu.simulator import GPUSimulator
from repro.gpu.trace import AccessType, MemoryAccess, MemoryTrace
from repro.obs import metrics
from repro.obs.metrics import measure_peak_mib
from repro.replay import replay_trace, replay_trace_scalar
from repro.utils.blocks import array_to_blocks, as_block_rows, blocks_to_array
from repro.workloads.base import Region
from repro.workloads.registry import get_workload

from tests.conftest import make_float_blocks, make_mixed_blocks

SCALE = 1.0 / 1024.0
CONFIG = GPUConfig()
BACKENDS = (*KNOWN_SCHEMES, "uncompressed")


def _backend(name: str):
    if name == "uncompressed":
        return NoCompressionBackend(CONFIG.block_size_bytes, CONFIG.mag_bytes)
    return build_backend(name, CONFIG)


@pytest.fixture(params=BACKENDS, ids=BACKENDS)
def backend_name(request: pytest.FixtureRequest) -> str:
    """Every scheme a job may carry, plus the uncompressed baseline."""
    return request.param


def _trained_pair(name: str, samples):
    """Two identically trained backends: one batched, one scalar oracle."""
    batched, scalar = _backend(name), _backend(name)
    batched.train(samples)
    scalar.train(samples)
    return batched, scalar


def _scalar_batch(backend, rows: np.ndarray, approximable: bool) -> StoredBatch:
    return StoredBatch.from_blocks(
        [backend.store(row.tobytes(), approximable=approximable) for row in rows],
        rows.shape[1],
    )


# --------------------------------------------------------------------- #
# store_batch(rows) == stacked store(row.tobytes())


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=hnp.arrays(
        np.uint8,
        st.tuples(st.integers(0, 12), st.just(128)),
        elements=st.sampled_from([0, 1, 2, 3, 0x40, 0x80, 0xFF]),
    ),
    approximable=st.booleans(),
)
def test_store_batch_matches_scalar_random_rows(backend_name, rows, approximable):
    batched, scalar = _trained_pair(backend_name, make_float_blocks() + make_mixed_blocks())
    assert batched.store_batch(rows, approximable=approximable) == _scalar_batch(
        scalar, rows, approximable
    )


@pytest.mark.parametrize("workload", ["NN", "SRAD1"])
def test_store_batch_matches_scalar_real_regions(backend_name, workload):
    prepared = GPUSimulator(config=CONFIG).prepare(get_workload(workload, scale=SCALE))
    batched, scalar = _trained_pair(backend_name, prepared.train_samples)
    for name, region in prepared.input_regions.items():
        rows = prepared.rows[prepared.region_slice(name)]
        batch = batched.store_batch(rows, approximable=region.approximable)
        assert batch == _scalar_batch(scalar, rows, region.approximable)
    if isinstance(batched, SLCBackend):
        assert (batched.total_blocks, batched.lossy_blocks, batched.total_overshoot_bits) == (
            scalar.total_blocks, scalar.lossy_blocks, scalar.total_overshoot_bits
        )


def test_lossless_rows_are_stored_without_copy():
    rows = as_block_rows(make_float_blocks())
    for backend in (LosslessBackend(get_compressor("bdi")), NoCompressionBackend()):
        assert backend.store_batch(rows).data is rows


def test_slc_copies_only_when_a_row_is_lossy():
    backend = _backend("TSLC-OPT")
    backend.train(make_float_blocks())
    rows = as_block_rows(make_float_blocks())
    exact = backend.store_batch(rows, approximable=False)
    assert exact.data is rows and not exact.lossy.any()
    lossy = backend.store_batch(rows, approximable=True)
    assert lossy.lossy.any()
    assert not np.shares_memory(lossy.data, rows)
    np.testing.assert_array_equal(lossy.data[~lossy.lossy], rows[~lossy.lossy])


# --------------------------------------------------------------------- #
# the backends slice large stores: same results, bounded memory


@pytest.fixture
def small_slices(monkeypatch: pytest.MonkeyPatch) -> None:
    """Slices of a few rows, so a short batch crosses many slice boundaries."""
    monkeypatch.setattr(backends, "SLC_SLICE_ROWS", 7)
    monkeypatch.setattr(backends, "LOSSLESS_SLICE_ROWS", 5)


@pytest.mark.parametrize("approximable", [False, True], ids=["exact", "approximable"])
def test_sliced_store_batch_matches_scalar(small_slices, backend_name, approximable):
    samples = make_float_blocks() + make_mixed_blocks()
    rows = as_block_rows(samples)
    batched, scalar = _trained_pair(backend_name, samples)
    batch = batched.store_batch(rows, approximable=approximable)
    assert batch == _scalar_batch(scalar, rows, approximable)
    # the rows come back uncopied unless a row is lossy
    assert (batch.data is rows) == (not batch.lossy.any())
    if isinstance(batched, SLCBackend):
        assert batch.lossy.any() == approximable
        counters = ("total_blocks", "lossy_blocks", "total_overshoot_bits")
        assert [getattr(batched, c) for c in counters] == [
            getattr(scalar, c) for c in counters
        ]


def _tiled_rows(n: int) -> np.ndarray:
    base = as_block_rows(make_float_blocks() + make_mixed_blocks())
    return np.ascontiguousarray(np.resize(base, (n, base.shape[1])))


def _peak_growth(call, slice_rows: int) -> float:
    """Peak memory of ``call`` over eight slices' rows, over one slice's."""
    rows = _tiled_rows(8 * slice_rows)
    call(rows[:16])  # lazily built tables are not a store's temporaries
    _, one = measure_peak_mib(call, rows[:slice_rows])
    _, eight = measure_peak_mib(call, rows)
    return eight / one


def test_slc_store_batch_memory_is_bounded_by_one_slice():
    backend = _backend("TSLC-OPT")
    backend.train(make_float_blocks() + make_mixed_blocks())
    # exact rows: a batch with lossy rows returns a copy of them all
    growth = _peak_growth(
        lambda rows: backend.store_batch(rows, approximable=False),
        backends.SLC_SLICE_ROWS,
    )
    assert growth < 2


@pytest.mark.parametrize("scheme", ["E2MC", *LOSSLESS_SCHEMES])
def test_lossless_size_bits_memory_is_bounded_by_one_slice(scheme):
    backend = _backend(scheme)
    backend.train(make_float_blocks() + make_mixed_blocks())
    assert _peak_growth(backend.size_bits, backends.LOSSLESS_SLICE_ROWS) < 2


# --------------------------------------------------------------------- #
# the block store after h2d + replay == the scalar pipeline's


class _CapturingSimulator(GPUSimulator):
    """Keeps the last run's block store and degraded inputs for inspection."""

    def _region_fidelity(self, degraded, exact_sides):
        self.degraded = degraded
        return GPUSimulator._region_fidelity(degraded, exact_sides)

    def _assemble_result(self, workload, backend, all_regions, controllers, store,
                         *args, **kwargs):
        self.store = store
        return super()._assemble_result(
            workload, backend, all_regions, controllers, store, *args, **kwargs
        )


def _store_fields(store: BlockStore) -> tuple:
    return store.bursts, store.stored_bits, store.lossy, store.data


def _final_store(prepared, backend_name: str, **simulator_options):
    simulator = _CapturingSimulator(config=CONFIG, payload_digest=True,
                                    **simulator_options)
    result = simulator.run_prepared(prepared, _backend(backend_name), compute_error=False)
    return simulator.store, result.to_dict()


@pytest.mark.parametrize("workload", ["NN", "TP"])
def test_block_store_matches_scalar_pipeline(backend_name, workload):
    prepared = GPUSimulator(config=CONFIG).prepare(get_workload(workload, scale=SCALE))
    oracle_store, oracle_result = _final_store(
        prepared, backend_name, batch_store=False, replay_mode="scalar"
    )
    assert oracle_store.stored_blocks > 0
    store, result = _final_store(prepared, backend_name)
    for got, want in zip(_store_fields(store), _store_fields(oracle_store)):
        np.testing.assert_array_equal(got, want)
    assert result == oracle_result


@pytest.mark.parametrize("workload", ["NN", "SRAD1"])
def test_degraded_inputs_match_per_block_reassembly(workload):
    prepared = GPUSimulator(config=CONFIG).prepare(get_workload(workload, scale=SCALE))
    simulator = _CapturingSimulator(config=CONFIG)
    result = simulator.run_prepared(prepared, _backend("TSLC-OPT"), compute_error=True)
    assert result.lossy_blocks > 0
    store = simulator.store
    for name, region in prepared.input_regions.items():
        base = prepared.base_addresses[name]
        blocks = []
        for index, original in enumerate(array_to_blocks(region.array)):
            stored = store.get(base + index)
            blocks.append(stored.data if stored is not None else original)
        expected = blocks_to_array(blocks, region.array.dtype, region.array.shape)
        got = simulator.degraded[name]
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_payload_digest_byte_format():
    store = BlockStore(4)
    store.write(slice(1, 3), StoredBatch(
        bursts=np.array([1, 2]), stored_bits=np.array([9, 30]),
        lossy=np.array([False, True]),
        data=np.array([[1, 2, 3, 4], [5, 6, 7, 8]], dtype=np.uint8),
    ))
    expected = hashlib.sha256(
        b"1:1:9:0:" + bytes([1, 2, 3, 4]) + b"2:2:30:1:" + bytes([5, 6, 7, 8])
    ).hexdigest()
    assert store.digest() == expected
    assert store.stored_blocks == 2 and store.total_stored_bits == 39


def test_block_store_grows_and_reads_unknown_as_never_stored():
    store = BlockStore(128)
    assert store.get(0) is None
    assert store.bursts_at(np.array([0, 5])).tolist() == [0, 0]
    controller = MemoryController(0, NoCompressionBackend(), store=store)
    controller.store_block(40, bytes(range(128)), count_traffic=False)
    assert len(store) >= 41
    assert store.get(40).data == bytes(range(128))
    assert store.bursts_at(np.array([40, 41, 10_000])).tolist() == [4, 0, 0]


def test_replay_requires_one_shared_store():
    backend = NoCompressionBackend()
    controllers = [MemoryController(i, backend) for i in range(2)]
    trace = MemoryTrace([MemoryAccess("r", 0, AccessType.READ)])
    region = Region(name="r", array=np.zeros(32, dtype=np.float32))
    with pytest.raises(ValueError, match="share one BlockStore"):
        replay_trace(
            trace, all_regions={"r": region}, rows=np.zeros((1, 128), np.uint8),
            base_addresses={"r": 0}, l2=SetAssociativeCache(2 * 2 * 128, line_bytes=128, ways=2),
            controllers=controllers, interleave_blocks=16,
        )


@pytest.mark.parametrize("engine, access", [
    pytest.param(replay_trace, AccessType.WRITE, id="replay_trace"),
    pytest.param(replay_trace_scalar, AccessType.WRITE, id="replay_trace_scalar"),
    pytest.param(replay_trace, AccessType.READ, id="replay_trace-read"),
    pytest.param(replay_trace_scalar, AccessType.READ, id="replay_trace_scalar-read"),
])
def test_write_past_region_end_fails_loudly(engine, access):
    regions = {
        "a": Region(name="a", array=np.zeros(32, dtype=np.float32)),
        "b": Region(name="b", array=np.zeros(32, dtype=np.float32)),
    }
    store = BlockStore(128, n_blocks=2)
    controllers = [MemoryController(0, NoCompressionBackend(), store=store)]
    trace = MemoryTrace([MemoryAccess("a", 1, access)])
    verb = "write to" if access is AccessType.WRITE else "read of"
    with pytest.raises(IndexError, match=f"{verb} block 1 of region 'a', which has 1 blocks"):
        engine(
            trace, all_regions=regions, rows=np.zeros((2, 128), np.uint8),
            base_addresses={"a": 0, "b": 1}, l2=SetAssociativeCache(2 * 2 * 128, line_bytes=128, ways=2),
            controllers=controllers, interleave_blocks=16,
        )


# --------------------------------------------------------------------- #
# store-path fallbacks are counted


@pytest.fixture
def metrics_on():
    metrics.disable()
    metrics.clear()
    metrics.enable()
    yield
    metrics.disable()
    metrics.clear()


@pytest.mark.parametrize("scheme", KNOWN_SCHEMES)
def test_registry_schemes_take_no_scalar_store_rows(metrics_on, scheme):
    job = Job(workload="NN", scheme=scheme, scale=SCALE, seed=2019, compute_error=False)
    simulate_job(job)
    counters = metrics.snapshot()["counters"]
    assert counters["backend.blocks_compressed"] > 0
    assert counters.get("backend.scalar_store_rows", 0) == 0
    assert counters["backend.stored_bits"] > 0
    assert ("backend.slc_store_s" in counters) == scheme.startswith("TSLC")
    assert not [name for name in counters if name.startswith("codec.")]


class _HalfCompressor(BlockCompressor):
    """A compressor without batched analysis: half of every block."""

    name = "half"

    def compress(self, block: bytes) -> CompressedBlock:
        self._check_block(block)
        return CompressedBlock(
            algorithm=self.name,
            original_size_bits=self.block_size_bits,
            compressed_size_bits=self.block_size_bits // 2,
            payload=block,
        )

    def decompress(self, compressed: CompressedBlock) -> bytes:
        return bytes(compressed.payload)


@pytest.mark.parametrize(
    "make_backend, block_size",
    [
        (lambda: LosslessBackend(_HalfCompressor()), 128),
        (lambda: LosslessBackend(E2MCCompressor(symbol_bytes=4)), 128),
        (lambda: LosslessBackend(get_compressor("bpc", block_size_bytes=512)), 512),
        (lambda: SLCBackend(SLCCompressor(SLCConfig(symbol_bytes=4, element_bytes=4))), 128),
    ],
    ids=["scalar-only-compressor", "e2mc-4B-symbols", "bpc-512B", "slc-4B-symbols"],
)
def test_scalar_store_rows_count_every_looped_row(metrics_on, make_backend, block_size):
    backend = make_backend()
    backend.train(make_float_blocks()[:8])
    rows = np.random.default_rng(1).integers(0, 4, (7, block_size), dtype=np.uint8)
    batch = backend.store_batch(rows)
    assert batch == _scalar_batch(backend, rows, True)
    assert metrics.snapshot()["counters"]["backend.scalar_store_rows"] == 7
