"""Tests for the compression backends and the memory controller."""

import pytest

from repro.compression.bdi import BDICompressor
from repro.core import SLCCompressor, SLCConfig, SLCVariant
from repro.gpu.backends import LosslessBackend, NoCompressionBackend, SLCBackend
from repro.gpu.memory_controller import MemoryController
from tests.conftest import make_float_blocks


@pytest.fixture(scope="module")
def blocks():
    return make_float_blocks(seed=21, count=64)


@pytest.fixture()
def slc_backend(blocks):
    backend = SLCBackend(SLCCompressor(SLCConfig(variant=SLCVariant.OPT)))
    backend.train(blocks)
    return backend


def test_no_compression_backend_always_full_bursts(blocks):
    backend = NoCompressionBackend()
    stored = backend.store(blocks[0])
    assert stored.bursts == 4
    assert stored.stored_bits == 1024
    assert stored.data == blocks[0]
    assert not stored.lossy
    assert backend.compress_latency_cycles == 0


def test_lossless_backend_reduces_bursts():
    backend = LosslessBackend(BDICompressor())
    zero_block = bytes(128)
    stored = backend.store(zero_block)
    assert stored.bursts == 1
    assert stored.data == zero_block
    assert not stored.lossy
    # latencies come from the registry now: a simple BDI pipeline, not the
    # Huffman coder's 46/20
    assert backend.compress_latency_cycles == 2
    assert backend.decompress_latency_cycles == 1


def test_lossless_backend_never_exceeds_max_bursts(blocks):
    backend = LosslessBackend(BDICompressor())
    for block in blocks:
        assert 1 <= backend.store(block).bursts <= 4


def test_slc_backend_counts_lossy_blocks(slc_backend, blocks):
    stored = [slc_backend.store(block, approximable=True) for block in blocks]
    assert 0 < sum(block.lossy for block in stored) <= len(blocks)
    assert slc_backend.compress_latency_cycles == 60


def test_slc_backend_not_approximable_is_lossless(slc_backend, blocks):
    for block in blocks:
        stored = slc_backend.store(block, approximable=False)
        assert not stored.lossy
        assert stored.data == block


def test_slc_backend_bursts_never_above_lossless(blocks):
    lossless = LosslessBackend(
        SLCCompressor(SLCConfig()).baseline, compress_cycles=46, decompress_cycles=20
    )
    slc = SLCBackend(SLCCompressor(SLCConfig()))
    lossless.train(blocks)
    slc.train(blocks)
    for block in blocks:
        assert slc.store(block).bursts <= lossless.store(block).bursts


# --------------------------------------------------------------------- #
# memory controller


def make_controller(backend=None):
    return MemoryController(0, backend or NoCompressionBackend(), mdc_entries=64)


def test_store_then_read_returns_stored_data(slc_backend, blocks):
    controller = make_controller(slc_backend)
    controller.store_block(7, blocks[0], count_traffic=False)
    data = controller.read_block(7)
    assert len(data) == 128
    assert controller.stats.reads == 1
    assert controller.stats.writes == 0
    assert controller.store.stored_blocks == 1


def test_store_counts_write_traffic_when_requested(blocks):
    controller = make_controller()
    controller.store_block(1, blocks[0], count_traffic=True)
    assert controller.stats.writes == 1
    assert controller.stats.write_bursts == 4
    controller.store_block(2, blocks[1], count_traffic=False)
    assert controller.stats.writes == 1


def test_read_unknown_block_is_conservative():
    controller = make_controller()
    data = controller.read_block(99)
    assert data == bytes(128)
    assert controller.stats.read_bursts == 4


def test_mdc_miss_fetches_worst_case(slc_backend, blocks):
    controller = MemoryController(0, slc_backend, mdc_entries=1)
    # Store two blocks; the 1-entry MDC can only remember the second.
    first = controller.store_block(10, blocks[0], count_traffic=False)
    controller.store_block(11, blocks[1], count_traffic=False)
    controller.read_block(10)
    # The MDC entry for block 10 was evicted, so the controller fetched the
    # worst case (4 bursts) even if the block is stored smaller.
    assert controller.stats.read_bursts == 4
    assert controller.stats.mdc_extra_bursts == 4 - first.bursts


def test_read_after_store_uses_recorded_bursts(slc_backend, blocks):
    controller = make_controller(slc_backend)
    stored = controller.store_block(3, blocks[0], count_traffic=False)
    controller.read_block(3)
    assert controller.stats.read_bursts == stored.bursts


@pytest.mark.parametrize("mag", [16, 32, 64])
def test_controller_tracks_dram_busy_cycles(blocks, mag):
    controller = MemoryController(
        0, NoCompressionBackend(mag_bytes=mag), mag_bytes=mag, mdc_entries=64
    )
    controller.store_block(0, blocks[0], count_traffic=True)
    controller.read_block(0)
    bursts_per_block = 128 // mag
    assert controller.busy_memory_cycles > 0
    assert controller.stats.total_bursts == 2 * bursts_per_block
    # one 128 B block written and read back: 256 B at every MAG
    assert controller.bytes_transferred == 256
    assert controller.channel.bytes_transferred == 256


def test_stored_data_accessor(blocks):
    controller = make_controller()
    assert controller.store.get(5) is None
    controller.store_block(5, blocks[0], count_traffic=False)
    assert controller.store.get(5).data == blocks[0]
