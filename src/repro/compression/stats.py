"""Raw vs. effective compression-ratio accounting around MAG.

The central observation of the paper (Section I and II-B) is that memory can
only be fetched in multiples of the memory access granularity (MAG, 32 B for
GDDR5), so the *effective* compressed size of a block is its compressed size
rounded up to the next MAG multiple.  These helpers implement that accounting
and the per-benchmark aggregation used in Fig. 1 and Fig. 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_MAG_BYTES = 32
DEFAULT_BLOCK_BYTES = 128


def bursts_for_size(compressed_bytes: float, mag_bytes: int = DEFAULT_MAG_BYTES) -> int:
    """Number of MAG-sized bursts needed to fetch ``compressed_bytes``.

    A block always costs at least one burst: even a fully compressed block
    cannot be fetched with fewer than MAG bytes.
    """
    if mag_bytes <= 0:
        raise ValueError(f"MAG must be positive, got {mag_bytes}")
    if compressed_bytes < 0:
        raise ValueError(f"compressed size must be non-negative, got {compressed_bytes}")
    return max(1, math.ceil(compressed_bytes / mag_bytes))


def effective_compressed_bytes(
    compressed_bytes: float, mag_bytes: int = DEFAULT_MAG_BYTES
) -> int:
    """Compressed size scaled up to the nearest MAG multiple (≥ one MAG)."""
    return bursts_for_size(compressed_bytes, mag_bytes) * mag_bytes


def extra_bytes_above_mag(
    compressed_bytes: float, mag_bytes: int = DEFAULT_MAG_BYTES
) -> int:
    """Bytes above the largest MAG multiple ≤ the compressed size.

    This is the x-axis of the Fig. 2 heat map.  Blocks at or below one MAG are
    binned at 0 (they can never be fetched with less than one burst), and a
    block that is an exact MAG multiple also reports 0.
    """
    if mag_bytes <= 0:
        raise ValueError(f"MAG must be positive, got {mag_bytes}")
    size = math.ceil(compressed_bytes)
    if size <= mag_bytes:
        return 0
    return int(size % mag_bytes)


def raw_compression_ratio(original_bytes: float, compressed_bytes: float) -> float:
    """MAG-unaware compression ratio."""
    if compressed_bytes <= 0:
        raise ValueError(f"compressed size must be positive, got {compressed_bytes}")
    return original_bytes / compressed_bytes


def effective_compression_ratio(
    original_bytes: float,
    compressed_bytes: float,
    mag_bytes: int = DEFAULT_MAG_BYTES,
) -> float:
    """Compression ratio after rounding the compressed size up to MAG."""
    return original_bytes / effective_compressed_bytes(compressed_bytes, mag_bytes)


def geometric_mean(values: list[float]) -> float:
    """Geometric mean, used throughout the paper to aggregate benchmarks."""
    if not values:
        raise ValueError("geometric mean of an empty sequence is undefined")
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric mean requires positive values, got {value}")
    log_sum = sum(math.log(value) for value in values)
    return math.exp(log_sum / len(values))


@dataclass
class CompressionStats:
    """Accumulates per-block compression results for one benchmark.

    Feeding every block of a workload through :meth:`add_block` yields the raw
    and effective compression ratios plotted in Fig. 1 and the distribution of
    compressed sizes above MAG multiples plotted in Fig. 2.
    """

    block_size_bytes: int = DEFAULT_BLOCK_BYTES
    mag_bytes: int = DEFAULT_MAG_BYTES
    total_blocks: int = 0
    total_original_bytes: int = 0
    total_compressed_bytes: float = 0.0
    total_effective_bytes: int = 0
    total_bursts: int = 0
    uncompressed_blocks: int = 0
    extra_byte_histogram: dict[int, int] = field(default_factory=dict)

    def add_block(self, compressed_size_bits: int) -> None:
        """Record one block's lossless compressed size (in bits).

        Burst counting goes through :func:`bursts_for_size` on the (clamped)
        compressed size, so MAGs that do not divide the block size are
        charged correctly: a 128 B block under a 48 B MAG needs 3 bursts
        (144 B fetched), not ``128 // 48 == 2``.
        """
        if compressed_size_bits < 0:
            raise ValueError("compressed size cannot be negative")
        compressed_bytes = compressed_size_bits / 8.0
        compressed_bytes = min(compressed_bytes, float(self.block_size_bytes))
        self.total_blocks += 1
        self.total_original_bytes += self.block_size_bytes
        self.total_compressed_bytes += compressed_bytes
        bursts = bursts_for_size(compressed_bytes, self.mag_bytes)
        self.total_effective_bytes += bursts * self.mag_bytes
        self.total_bursts += bursts
        if compressed_bytes >= self.block_size_bytes:
            self.uncompressed_blocks += 1
            # Uncompressed blocks are binned at exactly one MAG above the
            # previous multiple in the paper's Fig. 2 (the "32B" column).
            bin_key = self.mag_bytes
        else:
            bin_key = extra_bytes_above_mag(compressed_bytes, self.mag_bytes)
        self.extra_byte_histogram[bin_key] = self.extra_byte_histogram.get(bin_key, 0) + 1

    def add_blocks(self, compressed_size_bits) -> None:
        """Record many blocks' compressed sizes (in bits) in one batch.

        Vectorized counterpart of :meth:`add_block` for the batched analysis
        kernels: ``compressed_size_bits`` is any integer array-like (e.g. the
        output of ``E2MCCompressor.compressed_size_bits_batch``).  The
        accumulated statistics are identical to looping ``add_block``.
        """
        sizes = np.atleast_1d(np.asarray(compressed_size_bits))
        if sizes.size == 0:
            return
        if np.any(sizes < 0):
            raise ValueError("compressed size cannot be negative")
        compressed = np.minimum(sizes / 8.0, float(self.block_size_bytes))
        bursts = np.maximum(
            1, np.ceil(compressed / self.mag_bytes).astype(np.int64)
        )
        self.total_blocks += int(sizes.size)
        self.total_original_bytes += self.block_size_bytes * int(sizes.size)
        self.total_compressed_bytes += float(compressed.sum())
        self.total_effective_bytes += int(bursts.sum()) * self.mag_bytes
        self.total_bursts += int(bursts.sum())
        uncompressed = compressed >= self.block_size_bytes
        self.uncompressed_blocks += int(uncompressed.sum())
        size_ceil = np.ceil(compressed).astype(np.int64)
        bins = np.where(size_ceil <= self.mag_bytes, 0, size_ceil % self.mag_bytes)
        bins = np.where(uncompressed, self.mag_bytes, bins)
        for bin_key, count in zip(*np.unique(bins, return_counts=True)):
            key = int(bin_key)
            self.extra_byte_histogram[key] = (
                self.extra_byte_histogram.get(key, 0) + int(count)
            )

    @property
    def raw_ratio(self) -> float:
        """Raw compression ratio over all recorded blocks."""
        if self.total_compressed_bytes == 0:
            return float("nan")
        return self.total_original_bytes / self.total_compressed_bytes

    @property
    def effective_ratio(self) -> float:
        """Effective (MAG-aware) compression ratio over all recorded blocks."""
        if self.total_effective_bytes == 0:
            return float("nan")
        return self.total_original_bytes / self.total_effective_bytes

    def extra_byte_distribution(self) -> dict[int, float]:
        """Histogram of bytes-above-MAG as a fraction of all blocks."""
        if self.total_blocks == 0:
            return {}
        return {
            key: count / self.total_blocks
            for key, count in sorted(self.extra_byte_histogram.items())
        }

    def merge(self, other: "CompressionStats") -> "CompressionStats":
        """Combine statistics from two benchmark runs (same geometry)."""
        if (other.block_size_bytes, other.mag_bytes) != (
            self.block_size_bytes,
            self.mag_bytes,
        ):
            raise ValueError("cannot merge stats with different block/MAG geometry")
        merged = CompressionStats(self.block_size_bytes, self.mag_bytes)
        merged.total_blocks = self.total_blocks + other.total_blocks
        merged.total_original_bytes = self.total_original_bytes + other.total_original_bytes
        merged.total_compressed_bytes = (
            self.total_compressed_bytes + other.total_compressed_bytes
        )
        merged.total_effective_bytes = (
            self.total_effective_bytes + other.total_effective_bytes
        )
        merged.total_bursts = self.total_bursts + other.total_bursts
        merged.uncompressed_blocks = self.uncompressed_blocks + other.uncompressed_blocks
        histogram = dict(self.extra_byte_histogram)
        for key, count in other.extra_byte_histogram.items():
            histogram[key] = histogram.get(key, 0) + count
        merged.extra_byte_histogram = histogram
        return merged
