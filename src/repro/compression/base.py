"""Common interfaces and result types for block compressors."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.utils.blocks import iter_blocks


class CompressionError(RuntimeError):
    """Raised when a block cannot be compressed (malformed input)."""


class DecompressionError(RuntimeError):
    """Raised when a compressed payload cannot be decoded back to a block."""


@dataclass(frozen=True)
class CompressedBlock:
    """Result of compressing one memory block.

    Attributes:
        algorithm: name of the compressor that produced this result.
        original_size_bits: size of the uncompressed block in bits.
        compressed_size_bits: size of the compressed representation in bits,
            including any per-block header the scheme requires.  If the
            compressed representation would be larger than the original, the
            compressor stores the block uncompressed and this equals
            ``original_size_bits``.
        payload: algorithm-specific encoded representation sufficient to
            reconstruct the block via ``decompress``.
        lossless: ``True`` for the compressors in this package; the SLC lossy
            path (in :mod:`repro.core`) sets this to ``False``.
        metadata: optional algorithm-specific extras (e.g. per-symbol code
            lengths for E2MC, which SLC's adder tree consumes).
    """

    algorithm: str
    original_size_bits: int
    compressed_size_bits: int
    payload: Any
    lossless: bool = True
    metadata: dict = field(default_factory=dict)

    @property
    def original_size_bytes(self) -> int:
        """Uncompressed block size in whole bytes."""
        return self.original_size_bits // 8

    @property
    def compressed_size_bytes(self) -> int:
        """Compressed size in bytes, rounded up to the next whole byte."""
        return (self.compressed_size_bits + 7) // 8

    @property
    def compression_ratio(self) -> float:
        """Raw (MAG-unaware) compression ratio of this block."""
        if self.compressed_size_bits == 0:
            return float(self.original_size_bits)
        return self.original_size_bits / self.compressed_size_bits

    @property
    def is_compressed(self) -> bool:
        """Whether the block is stored in compressed form at all."""
        return self.compressed_size_bits < self.original_size_bits


class BlockCompressor(ABC):
    """Abstract base class for fixed-size block compressors.

    All compressors operate on ``block_size_bytes`` blocks (128 B by default,
    the cache-line size of current GPUs assumed throughout the paper).
    """

    name: str = "abstract"

    #: True when :meth:`compressed_size_bits_batch` is a vectorized kernel
    #: for this compressor's geometry rather than the scalar fallback loop
    #: (the loop stays available on the base class and is the n = 1 oracle
    #: every kernel is tested against)
    batched_analysis: bool = False

    #: True when a block's size depends on its bytes and ``block_size_bytes``
    #: alone (no trained model, no other parameter)
    sizes_from_block_alone: bool = False

    def __init__(self, block_size_bytes: int = 128) -> None:
        if block_size_bytes <= 0:
            raise ValueError(f"block size must be positive, got {block_size_bytes}")
        self.block_size_bytes = block_size_bytes

    @property
    def block_size_bits(self) -> int:
        """Block size in bits."""
        return self.block_size_bytes * 8

    def _check_block(self, block: bytes) -> None:
        if len(block) != self.block_size_bytes:
            raise CompressionError(
                f"{self.name}: expected a {self.block_size_bytes}-byte block, "
                f"got {len(block)} bytes"
            )

    @abstractmethod
    def compress(self, block: bytes) -> CompressedBlock:
        """Compress one block and return the result descriptor."""

    @abstractmethod
    def decompress(self, compressed: CompressedBlock) -> bytes:
        """Reconstruct the original block from a ``CompressedBlock``."""

    def compressed_size_bits(self, block: bytes) -> int:
        """Convenience: compressed size of ``block`` in bits."""
        return self.compress(block).compressed_size_bits

    def compressed_size_bytes(self, block: bytes) -> int:
        """Convenience: compressed size of ``block`` in bytes (rounded up)."""
        return self.compress(block).compressed_size_bytes

    def roundtrip(self, block: bytes) -> bytes:
        """Compress then decompress a block (used heavily in tests)."""
        return self.decompress(self.compress(block))

    # ------------------------------------------------------------------ #
    # batched protocol (the vectorized store path of LosslessBackend)

    def compressed_size_bits_batch(self, blocks) -> np.ndarray:
        """Compressed sizes of many blocks at once, as an int64 array of bits.

        ``blocks`` is an ``(n, block_size_bytes)`` uint8 row matrix or a
        list of blocks.  The default loops :meth:`compress` per block, so
        *every* compressor supports the batched store path.  Compressors with vectorized
        size-analysis kernels (BDI/FPC/C-Pack/BPC via
        :mod:`repro.kernels.lossless`, E2MC via its LUT kernels) override
        this and set :attr:`batched_analysis`; overrides must stay bit-exact
        against this scalar loop.
        """
        return np.asarray(
            [self.compress(block).compressed_size_bits for block in iter_blocks(blocks)],
            dtype=np.int64,
        )

    @property
    def size_key(self) -> tuple | None:
        """A key naming this compressor's batched block sizes, or ``None``.

        Compressors with equal keys report equal
        :meth:`compressed_size_bits_batch` for every block, so sizes
        computed once over a row matrix serve them all.  ``None`` opts out;
        scalar-loop fallbacks always do, so they stay counted per store.
        """
        if self.sizes_from_block_alone and self.batched_analysis:
            return (type(self), self.block_size_bytes)
        return None

    def analyze_batch(self, blocks) -> np.ndarray:
        """Batched size analysis — the entry point backends dispatch through.

        Alias of :meth:`compressed_size_bits_batch` (compressors override
        only that method); separated so the backend-facing protocol name is
        stable even if size analysis ever grows beyond plain sizes.
        """
        return self.compressed_size_bits_batch(blocks)

    def compress_batch(self, blocks) -> list[CompressedBlock]:
        """Batched :meth:`compress`; the default loops (E2MC vectorizes)."""
        return [self.compress(block) for block in iter_blocks(blocks)]

    def decompress_batch(self, compressed: list[CompressedBlock]) -> list[bytes]:
        """Batched :meth:`decompress`; the default loops (E2MC vectorizes)."""
        return [self.decompress(block) for block in compressed]

    def train(self, blocks: list[bytes]) -> None:  # noqa: B027 - optional hook
        """Optional hook: adapt the compressor's model to sample data.

        Stateless compressors (BDI, FPC, C-PACK, BPC) ignore this; E2MC uses
        it to build its symbol-frequency table (the paper's online sampling
        of 20 M instructions).
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(block_size_bytes={self.block_size_bytes})"


def as_block_bytes(block: bytes) -> bytes:
    """``block`` as :class:`bytes` without copying when it already is one.

    Store paths build millions of block descriptors whose data is the input
    block verbatim; ``bytes(block)`` would copy every one of them.
    """
    return block if isinstance(block, bytes) else bytes(block)


def store_uncompressed(compressor: BlockCompressor, block: bytes) -> CompressedBlock:
    """Build the fallback descriptor for a block stored uncompressed."""
    return CompressedBlock(
        algorithm=compressor.name,
        original_size_bits=compressor.block_size_bits,
        compressed_size_bits=compressor.block_size_bits,
        payload=as_block_bytes(block),
        metadata={"uncompressed": True},
    )
