"""Scalar-vs-batch equivalence for the promoted lossless schemes.

PR 2–4 promoted E2MC and SLC to vectorized kernels with the scalar paths as
n=1 oracles; this suite pins the same contract for BDI, FPC, C-Pack and BPC
(:mod:`repro.kernels.lossless`): the batched size analysis must reproduce
per-block :meth:`compress` bit-exactly on random bytes, structured blocks
and real workload regions, and the backend/registry wiring on top of it
(protocol dispatch, per-scheme latencies, duplicate rejection, copy-free
stores) must behave as documented.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.spec import LOSSLESS_SCHEMES
from repro.campaign.worker import build_backend
from repro.compression import available_compressors, get_compressor, scheme_latency
from repro.compression.base import BlockCompressor, CompressedBlock
from repro.compression.registry import register_compressor
from repro.gpu.backends import LosslessBackend, NoCompressionBackend, StoredBatch
from repro.gpu.config import GPUConfig
from repro.utils.blocks import array_to_blocks, as_block_rows
from repro.workloads.registry import get_workload

from tests.conftest import make_float_blocks, make_mixed_blocks

BATCHED_SCHEMES = ("bdi", "fpc", "cpack", "bpc")


def _structured_blocks(seed: int = 3, count: int = 48) -> list[bytes]:
    """Blocks hitting every encoder branch: zeros, repeats, deltas, noise."""
    rng = np.random.default_rng(seed)
    blocks: list[bytes] = []
    for index in range(count):
        kind = index % 6
        if kind == 0:
            blocks.append(bytes(128))
        elif kind == 1:
            blocks.append(rng.integers(0, 1 << 32, dtype=np.uint64).tobytes() * 16)
        elif kind == 2:
            base = rng.integers(0, 1 << 30, dtype=np.uint32)
            blocks.append((base + np.arange(32, dtype=np.uint32)).tobytes())
        elif kind == 3:
            blocks.append(rng.integers(0, 256, size=32, dtype=np.uint32).tobytes())
        elif kind == 4:
            words = np.repeat(rng.integers(0, 1 << 32, size=4, dtype=np.uint32), 8)
            blocks.append(words.tobytes())
        else:
            blocks.append(rng.bytes(128))
    return blocks


def _scalar_sizes(compressor, blocks: list[bytes]) -> list[int]:
    return [compressor.compress(block).compressed_size_bits for block in blocks]


# --------------------------------------------------------------------- #
# kernel vs. scalar oracle


@pytest.mark.parametrize("scheme", BATCHED_SCHEMES)
def test_batch_sizes_match_scalar_structured(scheme):
    compressor = get_compressor(scheme)
    assert compressor.batched_analysis
    blocks = _structured_blocks() + make_float_blocks() + make_mixed_blocks()
    assert compressor.compressed_size_bits_batch(blocks).tolist() == _scalar_sizes(
        compressor, blocks
    )


@pytest.mark.parametrize("scheme", BATCHED_SCHEMES)
@settings(max_examples=30, deadline=None)
@given(data=st.binary(min_size=128 * 4, max_size=128 * 4))
def test_batch_sizes_match_scalar_random(scheme, data):
    compressor = get_compressor(scheme)
    blocks = [data[i : i + 128] for i in range(0, len(data), 128)]
    assert compressor.compressed_size_bits_batch(blocks).tolist() == _scalar_sizes(
        compressor, blocks
    )


@pytest.mark.parametrize("scheme", BATCHED_SCHEMES)
@pytest.mark.parametrize("block_size", [16, 32, 64, 256])
def test_batch_sizes_match_scalar_other_block_sizes(scheme, block_size):
    compressor = get_compressor(scheme, block_size_bytes=block_size)
    rng = np.random.default_rng(block_size)
    blocks = [
        bytes(block_size),
        rng.integers(0, 200, size=block_size // 4, dtype=np.uint32).tobytes(),
        rng.bytes(block_size),
    ]
    assert compressor.compressed_size_bits_batch(blocks).tolist() == _scalar_sizes(
        compressor, blocks
    )


@pytest.mark.parametrize("scheme", BATCHED_SCHEMES)
def test_batch_sizes_match_scalar_real_regions(scheme):
    workload = get_workload("SRAD1", scale=1.0 / 1024.0, seed=5)
    compressor = get_compressor(scheme)
    for region in workload.generate().values():
        blocks = array_to_blocks(region.array)
        assert compressor.compressed_size_bits_batch(blocks).tolist() == (
            _scalar_sizes(compressor, blocks)
        )


@pytest.mark.parametrize("scheme", BATCHED_SCHEMES)
def test_batch_empty_and_bad_geometry(scheme):
    compressor = get_compressor(scheme)
    assert compressor.compressed_size_bits_batch([]).tolist() == []
    with pytest.raises(Exception):
        compressor.compressed_size_bits_batch([bytes(64), bytes(128)])


def test_unaligned_block_size_falls_back_to_scalar():
    """Word-based kernels refuse odd geometries; the default loop covers them."""
    compressor = get_compressor("fpc", block_size_bytes=12)
    blocks = [bytes(12), b"\x01\x02\x03" * 4]
    assert compressor.compressed_size_bits_batch(blocks).tolist() == _scalar_sizes(
        compressor, blocks
    )


def test_bpc_large_block_falls_back_to_scalar():
    compressor = get_compressor("bpc", block_size_bytes=512)
    rng = np.random.default_rng(0)
    blocks = [bytes(512), rng.bytes(512)]
    assert compressor.compressed_size_bits_batch(blocks).tolist() == _scalar_sizes(
        compressor, blocks
    )


# --------------------------------------------------------------------- #
# backend protocol dispatch


@pytest.mark.parametrize("scheme", BATCHED_SCHEMES)
def test_backend_store_batch_matches_scalar_store(scheme):
    blocks = _structured_blocks(seed=9) + make_float_blocks(seed=13)
    backend = LosslessBackend(get_compressor(scheme))
    assert backend.store_batch(as_block_rows(blocks)) == StoredBatch.from_blocks(
        [backend.store(b) for b in blocks], 128
    )


def test_backend_dispatches_scalar_compressors_too():
    """A compressor without kernels still works through the one protocol."""

    class HalfCompressor(BlockCompressor):
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

    backend = LosslessBackend(HalfCompressor())
    blocks = [bytes(128), bytes(range(128))]
    stored = backend.store_batch(as_block_rows(blocks))
    assert stored == StoredBatch.from_blocks([backend.store(b) for b in blocks], 128)
    assert (stored.stored_bits == 512).all()
    # unregistered name: the E2MC fallback latencies apply
    assert backend.compress_latency_cycles == 46
    assert backend.decompress_latency_cycles == 20


# --------------------------------------------------------------------- #
# registry latencies


def test_registry_latencies_reach_backends():
    for scheme in BATCHED_SCHEMES + ("e2mc",):
        compress_cycles, decompress_cycles = scheme_latency(scheme)
        backend = LosslessBackend(get_compressor(scheme))
        assert backend.compress_latency_cycles == compress_cycles
        assert backend.decompress_latency_cycles == decompress_cycles


def test_explicit_latency_overrides_registry():
    backend = LosslessBackend(get_compressor("bdi"), compress_cycles=99)
    assert backend.compress_latency_cycles == 99
    assert backend.decompress_latency_cycles == scheme_latency("bdi")[1]


def test_scheme_latency_unknown_name():
    with pytest.raises(KeyError):
        scheme_latency("gzip")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_compressor(
            "BDI", lambda **kw: None, compress_cycles=1, decompress_cycles=1
        )
    # the registry is untouched by the failed attempt
    assert "bdi" in available_compressors()
    assert get_compressor("bdi").name == "bdi"


# --------------------------------------------------------------------- #
# campaign wiring


@pytest.mark.parametrize("scheme", LOSSLESS_SCHEMES)
def test_build_backend_lossless_schemes(scheme):
    backend = build_backend(scheme, GPUConfig(), mag_bytes=32)
    assert isinstance(backend, LosslessBackend)
    assert backend.name == scheme.lower()
    assert (backend.compress_latency_cycles, backend.decompress_latency_cycles) == (
        scheme_latency(scheme)
    )


# --------------------------------------------------------------------- #
# copy-free stores


def test_stored_block_keeps_bytes_without_copy():
    block = bytes(range(128))
    rows = as_block_rows([block])
    lossless = LosslessBackend(get_compressor("bdi"))
    assert lossless.store(block).data is block
    assert lossless.store_batch(rows).data is rows
    raw = NoCompressionBackend()
    assert raw.store(block).data is block
    assert raw.store_batch(rows).data is rows


def test_stored_block_copies_non_bytes_input():
    block = bytearray(128)
    stored = NoCompressionBackend().store(block)
    assert isinstance(stored.data, bytes)
    assert stored.data == bytes(block)
