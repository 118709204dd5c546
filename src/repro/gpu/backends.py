"""Compression backends pluggable into the memory controller.

The memory controller does not care whether blocks are stored raw, losslessly
compressed or selectively-lossily compressed; it only needs, per block, the
number of MAG bursts to fetch, the bits actually stored and the data that a
subsequent read returns.  A :class:`CompressionBackend` provides exactly that
— one block at a time (:meth:`~CompressionBackend.store`, a
:class:`StoredBlock`) or for a whole ``(n_blocks, block_size)`` uint8 row
matrix at once (:meth:`~CompressionBackend.store_batch`, a struct-of-arrays
:class:`StoredBatch`) — for three families:

* :class:`NoCompressionBackend` — the uncompressed baseline,
* :class:`LosslessBackend` — any :class:`~repro.compression.base.BlockCompressor`
  (BDI, FPC, C-PACK, E2MC, BPC) with MAG-aware burst accounting,
* :class:`SLCBackend` — the paper's selective lossy compression.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from repro.compression.base import BlockCompressor, as_block_bytes
from repro.compression.registry import scheme_latency
from repro.compression.stats import bursts_for_size
from repro.core.config import SLCMode
from repro.core.slc import SLCCompressor
from repro.obs import metrics
from repro.utils.blocks import as_block_rows

#: rows per lossless size-kernel call (:meth:`LosslessBackend.size_bits`);
#: bounds the kernels' temporary arrays
LOSSLESS_SLICE_ROWS = 1024
#: rows per SLC decision and reconstruction pass
#: (:meth:`SLCBackend.store_batch`); bounds their temporaries, which run at
#: about 1 KB per row.  Each pass has about 0.5 ms of fixed cost, so much
#: smaller slices slow stores down.
SLC_SLICE_ROWS = 8192


@dataclass(frozen=True)
class StoredBlock:
    """What the memory controller records about one stored block."""

    #: MAG bursts needed to read the block back
    bursts: int
    #: bits actually stored (compressed payload + header)
    stored_bits: int
    #: the data a read of this block returns (may be degraded for lossy blocks)
    data: bytes
    #: whether symbols were approximated
    lossy: bool = False


@dataclass(frozen=True, eq=False)
class StoredBatch:
    """What the memory controller records about a batch of stored blocks.

    The struct-of-arrays form of a list of :class:`StoredBlock`: entry ``i``
    of every field describes block ``i``.  Two batches are equal when every
    field is.
    """

    #: MAG bursts needed to read each block back (int64)
    bursts: np.ndarray
    #: bits actually stored per block (int64)
    stored_bits: np.ndarray
    #: per-block flag: symbols were approximated
    lossy: np.ndarray
    #: ``(n, block_size)`` uint8: what a read of each block returns; rows
    #: that are stored exactly may share memory with the input rows
    data: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StoredBatch):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    __hash__ = None

    def take(self, index: np.ndarray) -> "StoredBatch":
        """The entries at ``index``, as a new batch."""
        return StoredBatch(
            bursts=self.bursts[index],
            stored_bits=self.stored_bits[index],
            lossy=self.lossy[index],
            data=self.data[index],
        )

    @classmethod
    def from_blocks(cls, blocks: list[StoredBlock], block_size_bytes: int) -> "StoredBatch":
        """Stack per-block results (the scalar paths) into one batch."""
        n = len(blocks)
        return cls(
            bursts=np.fromiter((b.bursts for b in blocks), np.int64, n),
            stored_bits=np.fromiter((b.stored_bits for b in blocks), np.int64, n),
            lossy=np.fromiter((b.lossy for b in blocks), np.bool_, n),
            data=as_block_rows([b.data for b in blocks], block_size_bytes),
        )


class CompressionBackend(ABC):
    """Interface between the memory controller and a compression scheme."""

    name: str = "abstract"

    def __init__(self, block_size_bytes: int = 128, mag_bytes: int = 32) -> None:
        self.block_size_bytes = block_size_bytes
        self.mag_bytes = mag_bytes

    @property
    def max_bursts(self) -> int:
        """Bursts for an uncompressed block."""
        return self.block_size_bytes // self.mag_bytes

    def train(self, blocks: list[bytes]) -> None:  # noqa: B027 - optional hook
        """Adapt any probability model to sample data (E2MC / SLC only)."""

    @property
    def size_key(self) -> tuple | None:
        """Key of per-row stored bits computed once per row matrix, or ``None``.

        A backend with a key stores a row from its size alone
        (:meth:`LosslessBackend.from_sizes`), so one input's sizes serve
        every MAG; ``None`` (the default) stores through
        :meth:`store_batch`.
        """
        return None

    @abstractmethod
    def store(self, block: bytes, approximable: bool = True) -> StoredBlock:
        """Decide how a block is stored and what a read of it returns."""

    def store_batch(self, rows, approximable: bool = True) -> StoredBatch:
        """Batched :meth:`store` over all blocks of a region.

        Args:
            rows: the blocks as an ``(n, block_size_bytes)`` uint8 matrix
                (a list of ``block_size_bytes`` chunks is accepted too).
            approximable: whether the blocks' region is safe to approximate.

        The default loops :meth:`store` per row; backends with vectorized
        analysis override it.  Results are identical to calling
        :meth:`store` per block, in order.
        """
        return self._store_rows(as_block_rows(rows, self.block_size_bytes), approximable)

    def _store_rows(self, rows: np.ndarray, approximable: bool) -> StoredBatch:
        """The per-block loop, counted as ``backend.scalar_store_rows``."""
        if metrics.enabled():
            metrics.inc("backend.scalar_store_rows", rows.shape[0])
        return StoredBatch.from_blocks(
            [self.store(row.tobytes(), approximable=approximable) for row in rows],
            self.block_size_bytes,
        )

    @property
    def compress_latency_cycles(self) -> int:
        """Compression latency in memory-controller cycles."""
        return 0

    @property
    def decompress_latency_cycles(self) -> int:
        """Decompression latency in memory-controller cycles."""
        return 0


class NoCompressionBackend(CompressionBackend):
    """Baseline: every block is stored raw and costs the full burst count."""

    name = "uncompressed"

    def store(self, block: bytes, approximable: bool = True) -> StoredBlock:
        return StoredBlock(
            bursts=self.max_bursts,
            stored_bits=self.block_size_bytes * 8,
            data=as_block_bytes(block),
            lossy=False,
        )

    def store_batch(self, rows, approximable: bool = True) -> StoredBatch:
        rows = as_block_rows(rows, self.block_size_bytes)
        n = rows.shape[0]
        return StoredBatch(
            bursts=np.full(n, self.max_bursts, dtype=np.int64),
            stored_bits=np.full(n, self.block_size_bytes * 8, dtype=np.int64),
            lossy=np.zeros(n, dtype=np.bool_),
            data=rows,
        )


#: latency fallback for compressors that are not in the registry (custom /
#: test compressors): the E2MC figures this class used to hard-code
_FALLBACK_LATENCY = (46, 20)


class LosslessBackend(CompressionBackend):
    """MAG-aware storage through any lossless block compressor.

    Latencies default to the per-scheme figures the compression registry
    carries (:func:`repro.compression.registry.scheme_latency`); explicit
    ``compress_cycles``/``decompress_cycles`` arguments override them.
    """

    def __init__(
        self,
        compressor: BlockCompressor,
        mag_bytes: int = 32,
        compress_cycles: int | None = None,
        decompress_cycles: int | None = None,
    ) -> None:
        super().__init__(compressor.block_size_bytes, mag_bytes)
        self.compressor = compressor
        self.name = compressor.name
        if compress_cycles is None or decompress_cycles is None:
            try:
                default_compress, default_decompress = scheme_latency(compressor.name)
            except KeyError:
                default_compress, default_decompress = _FALLBACK_LATENCY
            if compress_cycles is None:
                compress_cycles = default_compress
            if decompress_cycles is None:
                decompress_cycles = default_decompress
        self._compress_cycles = int(compress_cycles)
        self._decompress_cycles = int(decompress_cycles)

    def train(self, blocks: list[bytes]) -> None:
        self.compressor.train(blocks)

    def store(self, block: bytes, approximable: bool = True) -> StoredBlock:
        size_bits = self.compressor.compress(block).compressed_size_bits
        stored_bytes = min((size_bits + 7) // 8, self.block_size_bytes)
        bursts = min(self.max_bursts, bursts_for_size(stored_bytes, self.mag_bytes))
        if metrics.enabled():
            metrics.inc("backend.blocks_compressed")
            metrics.inc("backend.stored_bits", size_bits)
        return StoredBlock(
            bursts=bursts,
            stored_bits=size_bits,
            data=as_block_bytes(block),
            lossy=False,
        )

    @property
    def size_key(self) -> tuple | None:
        """The compressor's size key: stored bits depend on the row alone."""
        return self.compressor.size_key

    def store_batch(self, rows, approximable: bool = True) -> StoredBatch:
        """Batched stores through the compressor's batched size analysis.

        Every :class:`~repro.compression.base.BlockCompressor` provides
        ``compressed_size_bits_batch`` — vectorized kernels for the registry
        schemes (E2MC's LUT gather, :mod:`repro.kernels.lossless` for BDI,
        FPC, C-Pack and BPC), the bit-exact scalar loop for anything else
        (counted as ``backend.scalar_store_rows``) — and the MAG burst
        rounding of :meth:`store` is array arithmetic, so the result matches
        :meth:`store` exactly.  The rows are stored as they are.
        """
        rows = as_block_rows(rows, self.block_size_bytes)
        return self.from_sizes(self.size_bits(rows), rows)

    def size_bits(self, rows: np.ndarray) -> np.ndarray:
        """Stored bits of each row of an ``(n, block_size_bytes)`` matrix.

        The compressor analyzes :data:`LOSSLESS_SLICE_ROWS` rows per call,
        so its temporaries stay bounded however many rows there are.
        """
        if metrics.enabled() and not self.compressor.batched_analysis:
            metrics.inc("backend.scalar_store_rows", rows.shape[0])
        sizes = np.empty(rows.shape[0], dtype=np.int64)
        step = LOSSLESS_SLICE_ROWS
        for start in range(0, rows.shape[0], step):
            sizes[start:start + step] = self.compressor.compressed_size_bits_batch(
                rows[start:start + step]
            )
        return sizes

    def from_sizes(self, sizes: np.ndarray, rows: np.ndarray) -> StoredBatch:
        """Store ``rows`` as they are, given their :meth:`size_bits`.

        The MAG burst rounding of :meth:`store`, in array arithmetic.
        """
        n = rows.shape[0]
        stored_bytes = np.minimum((sizes + 7) // 8, self.block_size_bytes)
        bursts = np.minimum(
            self.max_bursts, np.maximum(1, -(-stored_bytes // self.mag_bytes))
        )
        if metrics.enabled():
            metrics.inc("backend.blocks_compressed", n)
            metrics.inc("backend.stored_bits", int(sizes.sum()))
        return StoredBatch(
            bursts=bursts,
            stored_bits=sizes,
            lossy=np.zeros(n, dtype=np.bool_),
            data=rows,
        )

    @property
    def compress_latency_cycles(self) -> int:
        return self._compress_cycles

    @property
    def decompress_latency_cycles(self) -> int:
        return self._decompress_cycles


class SLCBackend(CompressionBackend):
    """Selective lossy compression (the paper's contribution).

    Batched stores (:meth:`store_batch`) run the vectorized Fig. 4 decision
    and the TSLC reconstruction of the lossy rows in slices of
    :data:`SLC_SLICE_ROWS` rows; per-block :meth:`store` is their oracle.
    No store encodes a Huffman bitstream: the stored bits are the decision's
    sizes, and a read returns the reconstructed bytes.

    Args:
        slc: the configured (and later trained) :class:`SLCCompressor`.
        compress_cycles: compression latency in controller cycles.
        decompress_cycles: decompression latency in controller cycles.
    """

    def __init__(
        self,
        slc: SLCCompressor,
        compress_cycles: int = 60,
        decompress_cycles: int = 20,
    ) -> None:
        super().__init__(slc.config.block_size_bytes, slc.config.mag_bytes)
        self.slc = slc
        self.name = f"slc-{slc.config.variant.value}"
        self._compress_cycles = compress_cycles
        self._decompress_cycles = decompress_cycles
        self.lossy_blocks = 0
        self.total_blocks = 0
        self.total_overshoot_bits = 0

    def train(self, blocks: list[bytes]) -> None:
        self.slc.train(blocks)

    def store(self, block: bytes, approximable: bool = True) -> StoredBlock:
        decision = self.slc.analyze(block, approximable=approximable)
        return self._record(block, decision)

    def store_batch(self, rows, approximable: bool = True) -> StoredBatch:
        """Batched stores: vectorized Fig. 4 decision + batched reconstruction.

        Each slice of :data:`SLC_SLICE_ROWS` rows takes one
        :meth:`SLCCompressor.analyze_batch_arrays` decision and one
        vectorized truncation/prediction pass over its lossy rows
        (:meth:`SLCCompressor.apply_decision_rows`), so no per-block Python
        work remains and the temporaries stay those of one slice.
        The result's data is ``rows`` itself when no row is lossy, else one
        copy with only the lossy rows rewritten.  Per-block results and the
        backend's own counters are identical to calling :meth:`store` per
        block, in order.  Geometries the kernels do not cover take the
        per-block loop, counted as ``backend.scalar_store_rows``.
        """
        rows = as_block_rows(rows, self.block_size_bytes)
        if not self.slc.batch_geometry_supported():
            return self._store_rows(rows, approximable)
        n, step = rows.shape[0], SLC_SLICE_ROWS
        if n <= step:
            return self._store_slice(rows, approximable)
        bursts = np.empty(n, dtype=np.int64)
        stored_bits = np.empty(n, dtype=np.int64)
        lossy = np.empty(n, dtype=np.bool_)
        data = rows
        for start in range(0, n, step):
            part = self._store_slice(rows[start:start + step], approximable)
            bursts[start:start + step] = part.bursts
            stored_bits[start:start + step] = part.stored_bits
            lossy[start:start + step] = part.lossy
            if part.lossy.any():
                if data is rows:
                    data = rows.copy()
                data[start:start + step] = part.data
        return StoredBatch(bursts=bursts, stored_bits=stored_bits, lossy=lossy, data=data)

    def _store_slice(self, rows: np.ndarray, approximable: bool) -> StoredBatch:
        """:meth:`store_batch` of one slice: one decision, one reconstruction."""
        store_start = time.perf_counter() if metrics.enabled() else 0.0
        view = self.slc.symbol_view(rows)
        decisions = self.slc.analyze_batch_arrays(view, approximable=approximable)
        data = self.slc.apply_decision_rows(view, decisions)
        lossy = decisions.lossy_mask
        self.total_blocks += len(decisions)
        self.lossy_blocks += int(lossy.sum())
        overshoot = decisions.bits_removed[lossy] - decisions.extra_bits[lossy]
        self.total_overshoot_bits += int(np.maximum(0, overshoot).sum())
        if metrics.enabled():
            # store bits/s is derivable from the two counters (mean over
            # merged snapshots stays exact: total bits / total seconds)
            metrics.inc("backend.slc_store_s", time.perf_counter() - store_start)
            metrics.inc("backend.stored_bits", int(decisions.stored_size_bits.sum()))
            metrics.inc("backend.blocks_compressed", len(decisions))
            metrics.inc("backend.lossy_blocks", int(lossy.sum()))
        return StoredBatch(
            bursts=np.asarray(decisions.bursts, dtype=np.int64),
            stored_bits=np.asarray(decisions.stored_size_bits, dtype=np.int64),
            lossy=lossy,
            data=data,
        )

    def _record(self, block: bytes, decision) -> StoredBlock:
        data = self.slc.apply_decision(block, decision)
        self.total_blocks += 1
        if metrics.enabled():
            metrics.inc("backend.blocks_compressed")
            if decision.is_lossy:
                metrics.inc("backend.lossy_blocks")
        if decision.mode is SLCMode.LOSSY:
            self.lossy_blocks += 1
            self.total_overshoot_bits += decision.overshoot_bits
        return StoredBlock(
            bursts=decision.bursts,
            stored_bits=decision.stored_size_bits,
            data=data,
            lossy=decision.is_lossy,
        )

    @property
    def lossy_fraction(self) -> float:
        """Fraction of stored blocks that took the lossy path."""
        if not self.total_blocks:
            return 0.0
        return self.lossy_blocks / self.total_blocks

    @property
    def compress_latency_cycles(self) -> int:
        return self._compress_cycles

    @property
    def decompress_latency_cycles(self) -> int:
        return self._decompress_cycles
