"""Compression backends pluggable into the memory controller.

The memory controller does not care whether blocks are stored raw, losslessly
compressed or selectively-lossily compressed; it only needs, per block, the
number of MAG bursts to fetch, the bits actually stored and the data that a
subsequent read returns.  A :class:`CompressionBackend` provides exactly that
— one block at a time (:meth:`~CompressionBackend.store`, a
:class:`StoredBlock`) or for a whole ``(n_blocks, block_size)`` uint8 row
matrix at once (:meth:`~CompressionBackend.store_batch`, a struct-of-arrays
:class:`StoredBatch`, with one approximable flag for all rows or one per
row) — for three families:

* :class:`NoCompressionBackend` — the uncompressed baseline,
* :class:`LosslessBackend` — any :class:`~repro.compression.base.BlockCompressor`
  (BDI, FPC, C-PACK, E2MC, BPC) with MAG-aware burst accounting,
* :class:`SLCBackend` — the paper's selective lossy compression, whose one
  batched store is :meth:`~SLCBackend.decide` followed by
  :meth:`~SLCBackend.from_decisions`, pinned to per-block
  :meth:`~SLCBackend.store`.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from repro.compression.base import BlockCompressor, as_block_bytes
from repro.compression.registry import scheme_latency
from repro.compression.stats import bursts_for_size
from repro.core.header import header_size_bits
from repro.core.slc import SLCCompressor
from repro.obs import metrics
from repro.utils.blocks import as_block_rows

if TYPE_CHECKING:  # the kernels load with the first SLC store, as in core.slc
    from repro.kernels.decision import CompactDecisions

#: rows per lossless size-kernel call (:meth:`LosslessBackend.size_bits`);
#: bounds the kernels' temporary arrays
LOSSLESS_SLICE_ROWS = 1024
#: rows per SLC decision and reconstruction pass
#: (:meth:`SLCBackend.decide`, :meth:`SLCBackend.from_decisions`); bounds
#: their temporaries, which run at about 1 KB per row.  Each pass has about
#: 0.5 ms of fixed cost, so much smaller slices slow stores down.
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

    @property
    def decision_key(self) -> tuple | None:
        """Key of a Fig. 4 decision held per row matrix, or ``None``.

        A backend with a key stores a row matrix from that decision, taken
        with each row's own approximable flag (:meth:`SLCBackend.decide`,
        :meth:`SLCBackend.from_decisions`); ``None`` (the default) stores
        through :meth:`store_batch`.
        """
        return None

    @abstractmethod
    def store(self, block: bytes, approximable: bool = True) -> StoredBlock:
        """Decide how a block is stored and what a read of it returns."""

    def store_batch(self, rows, approximable: "bool | np.ndarray" = True) -> StoredBatch:
        """Batched :meth:`store` over many blocks.

        Args:
            rows: the blocks as an ``(n, block_size_bytes)`` uint8 matrix
                (a list of ``block_size_bytes`` chunks is accepted too).
            approximable: whether the blocks are safe to approximate: one
                flag for all, or an ``(n,)`` bool array, one per block.

        The default loops :meth:`store` per row; backends with vectorized
        analysis override it.  Results are identical to calling
        :meth:`store` per block, in order, with each block's flag.
        """
        return self._store_rows(as_block_rows(rows, self.block_size_bytes), approximable)

    def _store_rows(self, rows: np.ndarray, approximable: "bool | np.ndarray") -> StoredBatch:
        """The per-block loop, counted as ``backend.scalar_store_rows``."""
        if metrics.enabled():
            metrics.inc("backend.scalar_store_rows", rows.shape[0])
        flags = np.broadcast_to(approximable, rows.shape[:1]).tolist()
        return StoredBatch.from_blocks(
            [self.store(row.tobytes(), approximable=flag) for row, flag in zip(rows, flags)],
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

    def store_batch(self, rows, approximable: "bool | np.ndarray" = True) -> StoredBatch:
        rows = as_block_rows(rows, self.block_size_bytes)
        n = rows.shape[0]
        return StoredBatch(
            bursts=np.full(n, self.max_bursts, dtype=np.int64),
            stored_bits=np.full(n, self.block_size_bytes * 8, dtype=np.int64),
            lossy=np.zeros(n, dtype=np.bool_),
            data=rows,
        )


def compressed_sizes(compressor: BlockCompressor, rows: np.ndarray) -> np.ndarray:
    """Stored bits of each row of an ``(n, block_size_bytes)`` matrix.

    The compressor analyzes :data:`LOSSLESS_SLICE_ROWS` rows per call, so
    its temporaries stay bounded however many rows there are.
    """
    if metrics.enabled() and not compressor.batched_analysis:
        metrics.inc("backend.scalar_store_rows", rows.shape[0])
    sizes = np.empty(rows.shape[0], dtype=np.int64)
    step = LOSSLESS_SLICE_ROWS
    for start in range(0, rows.shape[0], step):
        sizes[start:start + step] = compressor.compressed_size_bits_batch(
            rows[start:start + step]
        )
    return sizes


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

    def store_batch(self, rows, approximable: "bool | np.ndarray" = True) -> StoredBatch:
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
        """Stored bits of each row of an ``(n, block_size_bytes)`` matrix
        (:func:`compressed_sizes`)."""
        return compressed_sizes(self.compressor, rows)

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

    Its one batched store is :meth:`decide` — the vectorized Fig. 4
    decision of every row, in slices of :data:`SLC_SLICE_ROWS` rows, held
    compactly — followed by :meth:`from_decisions`, the TSLC
    reconstruction of the lossy rows.  :meth:`store_batch` runs both on the
    LUT payload of the rows it is given; a prepared input's
    :class:`~repro.replay.plan.ReplayCache` runs :meth:`decide` once per
    :attr:`decision_key` on the payloads of the E2MC sizes it holds and
    stores every selection of rows from that decision.  Per-block
    :meth:`store` is the oracle of both.  No store encodes a Huffman
    bitstream: the stored bits are the decision's sizes, and a read returns
    the reconstructed bytes.

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

    def train(self, blocks: list[bytes]) -> None:
        self.slc.train(blocks)

    def store(self, block: bytes, approximable: bool = True) -> StoredBlock:
        decision = self.slc.analyze(block, approximable=approximable)
        if metrics.enabled():
            metrics.inc("backend.blocks_compressed")
            if decision.is_lossy:
                metrics.inc("backend.lossy_blocks")
        return StoredBlock(
            bursts=decision.bursts,
            stored_bits=decision.stored_size_bits,
            data=self.slc.apply_decision(block, decision),
            lossy=decision.is_lossy,
        )

    def store_batch(self, rows, approximable: "bool | np.ndarray" = True) -> StoredBatch:
        """:meth:`decide` on the rows' LUT payload, then :meth:`from_decisions`.

        The result's data is ``rows`` itself when no row is lossy, else one
        copy with only the lossy rows rewritten.  Per-block results are
        identical to calling :meth:`store` per block with its flag.
        Geometries the kernels do not cover take the per-block loop,
        counted as ``backend.scalar_store_rows``.
        """
        rows = as_block_rows(rows, self.block_size_bytes)
        if not self.slc.batch_geometry_supported():
            return self._store_rows(rows, approximable)
        payload, decisions = self.decide(rows, approximable)
        return self.from_decisions(rows, payload, decisions)

    # ------------------------------------------------------------------ #
    # the batched decision and the stores from it

    @property
    def decision_key(self) -> tuple | None:
        """Everything :meth:`decide` reads besides the rows and their
        approximable flags, or ``None``.

        That is the baseline's size key (its model, by identity, and
        geometry), the header layout, the MAG, the threshold and the adder
        tree's layout — not the variant, so TSLC-SIMP and TSLC-PRED share
        one decision.  ``None`` where the baseline has no size key
        (untrained or unbatched), the kernels do not cover the geometry, or
        a raw E2MC row would not be raw for SLC (a lossless SLC header
        smaller than E2MC's).
        """
        baseline = self.slc.baseline
        size_key = baseline.size_key
        config = self.slc.config
        if (
            size_key is None
            or not self.slc.batch_geometry_supported()
            or header_size_bits(False, config.block_size_bytes, config.num_pdw)
            < baseline.header_bits
        ):
            return None
        extra_nodes = (
            tuple(sorted(config.opt_extra_nodes.items()))
            if config.uses_optimized_tree
            else None
        )
        return (
            size_key, config.num_pdw, config.mag_bytes, config.lossy_threshold_bytes,
            extra_nodes, config.max_approx_symbols,
        )

    def payload_bits(self, sizes: np.ndarray) -> np.ndarray:
        """Payload bits of rows whose baseline (E2MC) stored bits are ``sizes``.

        A compressed row's payload is its size minus E2MC's header; a raw
        row gets the block size, which SLC stores raw too (valid wherever
        :meth:`decision_key` is not ``None``).
        """
        baseline = self.slc.baseline
        block_bits = baseline.block_size_bits
        return np.where(sizes < block_bits, sizes - baseline.header_bits, block_bits)

    def decide(
        self,
        rows: np.ndarray,
        approximable: "bool | np.ndarray" = True,
        payload: np.ndarray | None = None,
    ) -> tuple[np.ndarray, CompactDecisions]:
        """The payload bits and compact decision of every row of ``rows``,
        in slices of :data:`SLC_SLICE_ROWS` rows.

        Args:
            rows: an ``(n, block_size_bytes)`` uint8 matrix.
            approximable: whether the rows are safe to approximate: one flag
                for all, or an ``(n,)`` bool array, one per row.  Only a
                row that is safe to approximate can be lossy.
            payload: the rows' payload bits, when the caller holds them
                (:meth:`payload_bits`); summed from the LUT otherwise.

        Raises:
            ValueError: if the batch kernels do not cover the geometry
                (symbols wider than 2 bytes or a symbol count per block
                that is not a power of two).
        """
        from repro.kernels.decision import CompactDecisions

        if not self.slc.batch_geometry_supported():
            config = self.slc.config
            raise ValueError(
                f"the batched SLC decision needs symbols of at most 2 B and a "
                f"power-of-two symbol count per block, got {config.symbol_bytes} B "
                f"symbols, {config.symbols_per_block} per block"
            )
        store_start = time.perf_counter() if metrics.enabled() else 0.0
        symbols = self.slc.symbol_view(rows).symbols
        flags = np.broadcast_to(approximable, rows.shape[:1])
        step = SLC_SLICE_ROWS
        payloads, parts = zip(*(
            self.slc.decide_symbols(
                symbols[start:start + step],
                flags[start:start + step],
                None if payload is None else payload[start:start + step],
            )
            for start in range(0, max(1, rows.shape[0]), step)
        ))
        if payload is None:
            payload = np.concatenate(payloads)
        decisions = CompactDecisions.stack(list(parts))
        if metrics.enabled():
            metrics.inc("backend.slc_store_s", time.perf_counter() - store_start)
        return payload, decisions

    def from_decisions(
        self,
        rows: np.ndarray,
        payload: np.ndarray,
        decisions: CompactDecisions,
        index: "slice | np.ndarray | None" = None,
    ) -> StoredBatch:
        """Store ``rows[index]`` (all rows by default), whose payload bits
        are ``payload``, as ``decisions`` (which cover every row of
        ``rows``) say.

        Only the lossy rows are rebuilt, :data:`SLC_SLICE_ROWS` at a time,
        in one copy of the selected rows; without a lossy row the data is
        ``rows[index]`` (``rows`` itself by default).

        Raises:
            ValueError: if ``decisions`` cover another number of rows.
        """
        from repro.kernels.decision import stored_sizes

        if len(decisions) != rows.shape[0]:
            raise ValueError(f"got {len(decisions)} decisions for {rows.shape[0]} rows")
        store_start = time.perf_counter() if metrics.enabled() else 0.0
        config = self.slc.config
        if index is None:
            data = rows
            lossy, entries = decisions.lossy, np.arange(decisions.rows.size)
        else:
            data = rows[index]
            lossy, entries = decisions.select(index)
        lossy_at = np.flatnonzero(lossy)
        stored_bits, bursts = stored_sizes(
            config, payload, lossy_at, decisions.bits_removed[entries]
        )
        if lossy_at.size:
            if np.may_share_memory(data, rows):
                data = data.copy()
            symbols = self.slc.symbol_view(data).symbols
            step = SLC_SLICE_ROWS
            for first in range(0, lossy_at.size, step):
                chosen = entries[first:first + step]
                self.slc.refill_rows(
                    symbols, lossy_at[first:first + step],
                    decisions.start[chosen], decisions.count[chosen],
                )
        if metrics.enabled():
            # store bits/s is derivable from the two counters (mean over
            # merged snapshots stays exact: total bits / total seconds)
            metrics.inc("backend.slc_store_s", time.perf_counter() - store_start)
            metrics.inc("backend.stored_bits", int(stored_bits.sum()))
            metrics.inc("backend.blocks_compressed", lossy.size)
            metrics.inc("backend.lossy_blocks", lossy_at.size)
        return StoredBatch(bursts=bursts, stored_bits=stored_bits, lossy=lossy, data=data)

    @property
    def compress_latency_cycles(self) -> int:
        return self._compress_cycles

    @property
    def decompress_latency_cycles(self) -> int:
        return self._decompress_cycles
