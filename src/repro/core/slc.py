"""The SLC compressor: MAG-aware selection between lossless and lossy modes.

This module implements the decision flow of Fig. 4 and the TSLC mechanism of
Section III on top of the E2MC baseline:

1. compute the losslessly compressed size (sum of per-symbol code lengths
   plus the compressed-block header),
2. derive the bit budget (the largest MAG multiple not exceeding the
   compressed size, clamped to [one MAG, block size]),
3. if the size already matches the budget — or the block is incompressible,
   smaller than one MAG, not safe to approximate, or more than ``threshold``
   bits above the budget — store it losslessly,
4. otherwise use the adder tree to pick the smallest sub-block of symbols
   whose summed code lengths cover the extra bits, truncate it, and store the
   block losslessly-coded-minus-that-sub-block so it fits the lower budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import CompressedBlock, CompressionError
from repro.compression.e2mc import E2MCCompressor
from repro.compression.stats import bursts_for_size
from repro.core.config import SLCConfig, SLCMode, SLCVariant
from repro.core.header import header_size_bits
from repro.core.prediction import predict_truncated_symbols
from repro.core.tree import AdderTree
from repro.utils.bitstream import BitReader, BitWriter
from repro.utils.blocks import block_to_symbols, symbols_to_block


@dataclass(frozen=True)
class SLCDecision:
    """Lightweight outcome of the SLC mode decision for one block.

    Produced by :meth:`SLCCompressor.analyze`; carries everything the memory
    controller and the error model need (mode, stored size, burst count and
    the truncated symbol range) without materializing the encoded bitstream,
    which keeps trace-driven simulation fast.
    """

    mode: SLCMode
    comp_size_bits: int
    stored_size_bits: int
    bit_budget_bits: int
    extra_bits: int
    bursts: int
    approx_start: int = 0
    approx_count: int = 0
    bits_removed: int = 0
    used_extra_node: bool = False

    @property
    def is_lossy(self) -> bool:
        """Whether symbols were truncated for this block."""
        return self.mode is SLCMode.LOSSY

    @property
    def overshoot_bits(self) -> int:
        """Bits approximated beyond the strictly required extra bits."""
        if not self.is_lossy:
            return 0
        return max(0, self.bits_removed - self.extra_bits)


@dataclass(frozen=True)
class SLCBlock(CompressedBlock):
    """Result of compressing one block with SLC.

    Extends :class:`CompressedBlock` with the SLC mode decision, the MAG
    accounting and the approximation bookkeeping needed to reconstruct the
    block and to drive the memory-controller model.
    """

    mode: SLCMode = SLCMode.LOSSLESS
    variant: SLCVariant = SLCVariant.OPT
    bit_budget_bits: int = 0
    extra_bits: int = 0
    approx_start: int = 0
    approx_count: int = 0
    bits_removed: int = 0
    bursts: int = 0
    mag_bytes: int = 32

    @property
    def stored_size_bits(self) -> int:
        """Bits actually stored for this block (header + payload)."""
        return self.compressed_size_bits

    @property
    def is_lossy(self) -> bool:
        """Whether symbols were truncated."""
        return self.mode is SLCMode.LOSSY

    @property
    def overshoot_bits(self) -> int:
        """Bits approximated beyond the strictly required extra bits."""
        if not self.is_lossy:
            return 0
        return max(0, self.bits_removed - self.extra_bits)


class SLCCompressor:
    """Selective lossy compressor built on an E2MC lossless baseline.

    Args:
        config: SLC parameters (MAG, threshold, variant, ...).
        baseline: an optional pre-configured/pre-trained :class:`E2MCCompressor`.
            When omitted, one matching ``config`` is created; call
            :meth:`train` before compressing.
    """

    name = "slc"

    def __init__(self, config: SLCConfig | None = None, baseline: E2MCCompressor | None = None) -> None:
        self.config = config or SLCConfig()
        if baseline is None:
            baseline = E2MCCompressor(
                block_size_bytes=self.config.block_size_bytes,
                symbol_bytes=self.config.symbol_bytes,
                num_pdw=self.config.num_pdw,
            )
        if baseline.block_size_bytes != self.config.block_size_bytes:
            raise CompressionError(
                "baseline compressor block size does not match the SLC config"
            )
        if baseline.symbol_bytes != self.config.symbol_bytes:
            raise CompressionError(
                "baseline compressor symbol size does not match the SLC config"
            )
        self.baseline = baseline

    # ------------------------------------------------------------------ #
    # training / introspection

    def train(self, blocks: list[bytes]) -> None:
        """Train the underlying E2MC probability model on sample blocks."""
        self.baseline.train(blocks)

    @property
    def trained(self) -> bool:
        """Whether the baseline E2MC model has been trained."""
        return self.baseline.trained

    @property
    def block_size_bytes(self) -> int:
        """Block size in bytes."""
        return self.config.block_size_bytes

    @property
    def block_size_bits(self) -> int:
        """Block size in bits."""
        return self.config.block_size_bits

    def build_tree(self, block: bytes) -> AdderTree:
        """Build the TSLC adder tree for a block (exposed for tests/analysis)."""
        lengths = self.baseline.symbol_code_lengths(block)
        extra = self.config.opt_extra_nodes if self.config.uses_optimized_tree else None
        return AdderTree(lengths, extra_nodes=extra)

    # ------------------------------------------------------------------ #
    # mode decision helpers (Fig. 4)

    def bit_budget(self, comp_size_bits: int) -> int:
        """Largest MAG multiple ≤ the compressed size, clamped to [MAG, block]."""
        mag_bits = self.config.mag_bits
        if comp_size_bits >= self.config.block_size_bits:
            return self.config.block_size_bits
        if comp_size_bits <= mag_bits:
            return mag_bits
        return (comp_size_bits // mag_bits) * mag_bits

    # ------------------------------------------------------------------ #
    # compression

    def compress(self, block: bytes, approximable: bool = True) -> SLCBlock:
        """Compress one block.

        Takes :meth:`analyze`'s decision and encodes the symbols it keeps,
        so the stored size (and a lossless block's bursts) come from the
        encoder.

        Args:
            block: the raw block bytes.
            approximable: whether the block belongs to a programmer-annotated
                safe-to-approximate memory region.  Blocks outside such
                regions always use the lossless path.
        """
        decision = self.analyze(block, approximable=approximable)
        if decision.mode is SLCMode.UNCOMPRESSED:
            return self._store_uncompressed(block)
        return self._store_encoded(block, decision)

    # ------------------------------------------------------------------ #
    # fast, size-only analysis for trace-driven simulation

    def analyze(self, block: bytes, approximable: bool = True) -> SLCDecision:
        """Run the SLC mode decision without producing the encoded bitstream.

        Returns a :class:`SLCDecision` with the same mode, sizes and burst
        counts :meth:`compress` would produce, but skips the (slow) bit-level
        encoding.  Use :meth:`apply_decision` to obtain the degraded block a
        lossy decision implies.
        """
        if len(block) != self.config.block_size_bytes:
            raise CompressionError(
                f"expected a {self.config.block_size_bytes}-byte block, got {len(block)} bytes"
            )
        symbols = block_to_symbols(block, self.config.symbol_bytes)
        lengths = [self.baseline.model.code_length(s) for s in symbols]
        lossless_header = header_size_bits(
            False, self.config.block_size_bytes, self.config.num_pdw
        )
        lossy_header = header_size_bits(
            True, self.config.block_size_bytes, self.config.num_pdw
        )
        payload_bits = sum(lengths)
        comp_size_bits = payload_bits + lossless_header

        if not self.trained or comp_size_bits >= self.config.block_size_bits:
            return SLCDecision(
                mode=SLCMode.UNCOMPRESSED,
                comp_size_bits=self.config.block_size_bits,
                stored_size_bits=self.config.block_size_bits,
                bit_budget_bits=self.config.block_size_bits,
                extra_bits=0,
                bursts=self.config.max_bursts,
            )

        budget_bits = self.bit_budget(comp_size_bits)
        extra_bits = max(0, comp_size_bits - budget_bits)

        lossless_decision = SLCDecision(
            mode=SLCMode.LOSSLESS,
            comp_size_bits=comp_size_bits,
            stored_size_bits=comp_size_bits,
            bit_budget_bits=budget_bits,
            extra_bits=extra_bits,
            bursts=self._bursts(comp_size_bits),
        )
        if extra_bits == 0 or not approximable:
            return lossless_decision
        if extra_bits > self.config.lossy_threshold_bits:
            return lossless_decision

        required_bits = extra_bits + (lossy_header - lossless_header)
        tree = AdderTree(
            lengths,
            extra_nodes=self.config.opt_extra_nodes if self.config.uses_optimized_tree else None,
        )
        selection = tree.select_subblock(
            required_bits, max_symbols=self.config.max_approx_symbols
        )
        if selection is None:
            return lossless_decision
        stored_bits = payload_bits - selection.bits_removed + lossy_header
        return SLCDecision(
            mode=SLCMode.LOSSY,
            comp_size_bits=comp_size_bits,
            stored_size_bits=stored_bits,
            bit_budget_bits=budget_bits,
            extra_bits=extra_bits,
            bursts=max(1, budget_bits // self.config.mag_bits),
            approx_start=selection.start_symbol,
            approx_count=selection.symbol_count,
            bits_removed=selection.bits_removed,
            used_extra_node=selection.used_extra_node,
        )

    def batch_geometry_supported(self) -> bool:
        """Whether the batch kernels cover this configuration.

        The dense LUTs need symbols of at most 2 bytes and the batched adder
        tree a power-of-two symbol count; other geometries use the scalar
        per-block paths.
        """
        spb = self.config.symbols_per_block
        return self.config.symbol_bytes <= 2 and not (spb & (spb - 1))

    def symbol_view(self, blocks) -> "object | None":
        """Coerce blocks into a :class:`BatchSymbolView`, or ``None``.

        Returns ``None`` for geometries the batch kernels do not cover, in
        which case callers fall back to the scalar per-block path (``blocks``
        is iterable either way).
        """
        from repro.kernels.symbols import as_symbol_view

        if not self.batch_geometry_supported():
            return None
        return as_symbol_view(
            blocks, self.config.block_size_bytes, self.config.symbol_bytes
        )

    def decide_symbols(
        self,
        symbols: np.ndarray,
        approximable: "bool | np.ndarray" = True,
        payload: np.ndarray | None = None,
    ) -> tuple:
        """:func:`~repro.kernels.decision.analyze_code_lengths` over a
        symbol matrix, gathering code lengths from the baseline's LUT.

        Args:
            symbols: ``(n, symbols_per_block)`` symbol matrix (a
                :class:`~repro.kernels.symbols.BatchSymbolView`'s).
            approximable: whether the rows are safe to approximate: one
                flag, or one per row.
            payload: the rows' payload bits, when the caller holds them;
                summed from the LUT gather otherwise.

        Returns:
            ``(payload bits, compact decisions)``.  Only the lossy
            candidates' code lengths are gathered for the adder tree.
        """
        from repro.kernels.decision import analyze_code_lengths

        table = self.baseline.model.code_length_table()
        if payload is None:
            payload = table.payload_bits(symbols)
        decisions = analyze_code_lengths(
            self.config,
            payload,
            lambda rows: table.lengths(symbols[rows]),
            approximable=approximable,
            plan=self._tree_plan(),
        )
        return payload, decisions

    def _tree_plan(self):
        """Cached static adder-tree layout for the batched kernels."""
        from repro.kernels.tree import BatchTreePlan

        plan = getattr(self, "_tree_plan_cache", None)
        if plan is None:
            plan = BatchTreePlan(
                self.config.symbols_per_block,
                extra_nodes=(
                    self.config.opt_extra_nodes
                    if self.config.uses_optimized_tree
                    else None
                ),
                max_symbols=self.config.max_approx_symbols,
            )
            self._tree_plan_cache = plan
        return plan

    def apply_decision(self, block: bytes, decision: SLCDecision) -> bytes:
        """Return the block as it would read back after the given decision.

        Lossless and uncompressed decisions return the block unchanged; lossy
        decisions replace the truncated symbols with zeros (TSLC-SIMP) or the
        block's first non-truncated symbol (TSLC-PRED / TSLC-OPT).
        """
        if not decision.is_lossy:
            return bytes(block)
        symbols = block_to_symbols(block, self.config.symbol_bytes)
        kept = (
            symbols[: decision.approx_start]
            + symbols[decision.approx_start + decision.approx_count:]
        )
        reconstructed = predict_truncated_symbols(
            kept,
            decision.approx_start,
            decision.approx_count,
            self.config.symbols_per_block,
            use_prediction=self.config.uses_prediction,
            element_symbols=self.config.element_symbols,
        )
        return symbols_to_block(reconstructed, self.config.symbol_bytes)

    # ------------------------------------------------------------------ #
    # batched reconstruction

    def refill_rows(
        self,
        symbols: np.ndarray,
        rows: np.ndarray,
        approx_start: np.ndarray,
        approx_count: np.ndarray,
    ) -> None:
        """Rebuild, in place, the truncated range of each of ``rows`` of a
        symbol matrix, as this variant's read does
        (:func:`~repro.kernels.codec.reconstruct_rows`)."""
        from repro.kernels.codec import reconstruct_rows

        symbols[rows] = reconstruct_rows(
            symbols[rows],
            approx_start,
            approx_count,
            use_prediction=self.config.uses_prediction,
            element_symbols=self.config.element_symbols,
        )

    # ------------------------------------------------------------------ #
    # decompression

    def decompress(self, compressed: SLCBlock) -> bytes:
        """Reconstruct the (possibly approximated) block."""
        if compressed.mode is SLCMode.UNCOMPRESSED:
            return bytes(compressed.payload)
        data, payload_bits, approx_start, approx_count = compressed.payload
        reader = BitReader(data, bit_length=payload_bits)
        kept = self.config.symbols_per_block - approx_count
        kept_symbols = [self.baseline.model.decode_symbol(reader) for _ in range(kept)]
        symbols = predict_truncated_symbols(
            kept_symbols,
            approx_start,
            approx_count,
            self.config.symbols_per_block,
            use_prediction=self.config.uses_prediction,
            element_symbols=self.config.element_symbols,
        )
        return symbols_to_block(symbols, self.config.symbol_bytes)

    def roundtrip(self, block: bytes, approximable: bool = True) -> bytes:
        """Compress then decompress (identity for lossless-mode blocks)."""
        return self.decompress(self.compress(block, approximable=approximable))

    # ------------------------------------------------------------------ #
    # storage helpers

    def _encode_symbols(self, symbols: list[int]) -> tuple[bytes, int]:
        writer = BitWriter()
        for symbol in symbols:
            self.baseline.model.encode_symbol(writer, symbol)
        return writer.getvalue(), writer.bit_length

    def _bursts(self, stored_bits: int) -> int:
        stored_bytes = min((stored_bits + 7) // 8, self.config.block_size_bytes)
        return bursts_for_size(stored_bytes, self.config.mag_bytes)

    def _store_uncompressed(self, block: bytes) -> SLCBlock:
        return SLCBlock(
            algorithm=self.name,
            original_size_bits=self.config.block_size_bits,
            compressed_size_bits=self.config.block_size_bits,
            payload=bytes(block),
            lossless=True,
            metadata={"uncompressed": True},
            mode=SLCMode.UNCOMPRESSED,
            variant=self.config.variant,
            bit_budget_bits=self.config.block_size_bits,
            extra_bits=0,
            bursts=self.config.max_bursts,
            mag_bytes=self.config.mag_bytes,
        )

    def _store_encoded(self, block: bytes, decision: SLCDecision) -> SLCBlock:
        """Encode the symbols ``decision`` keeps, behind its mode's header."""
        lossy = decision.is_lossy
        start, count = decision.approx_start, decision.approx_count
        symbols = block_to_symbols(block, self.config.symbol_bytes)
        data, encoded_bits = self._encode_symbols(symbols[:start] + symbols[start + count:])
        header_bits = header_size_bits(
            lossy, self.config.block_size_bytes, self.config.num_pdw
        )
        stored_bits = encoded_bits + header_bits
        metadata = {"header_bits": header_bits}
        if lossy:
            metadata["used_extra_node"] = decision.used_extra_node
        return SLCBlock(
            algorithm=self.name,
            original_size_bits=self.config.block_size_bits,
            compressed_size_bits=stored_bits,
            payload=(data, encoded_bits, start, count),
            lossless=not lossy,
            metadata=metadata,
            mode=decision.mode,
            variant=self.config.variant,
            bit_budget_bits=decision.bit_budget_bits,
            extra_bits=decision.extra_bits,
            approx_start=start,
            approx_count=count,
            bits_removed=decision.bits_removed,
            bursts=decision.bursts if lossy else self._bursts(stored_bits),
            mag_bytes=self.config.mag_bytes,
        )
