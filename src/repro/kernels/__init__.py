"""Batched NumPy analysis kernels for the E2MC/SLC hot path.

The scalar compressor code paths (:mod:`repro.compression.e2mc`,
:mod:`repro.core.slc`) process one block at a time with Python loops — fine
for unit-level reasoning, far too slow for campaign sweeps that analyze every
block of every region of nine workloads.  This package re-expresses the
size-analysis pipeline as array programs over all blocks of a region at once:

* :class:`~repro.kernels.symbols.BatchSymbolView` — a region's
  ``(n_blocks, block_size)`` uint8 row matrix reinterpreted in place as an
  ``(n_blocks, symbols_per_block)`` symbol matrix;
* :class:`~repro.kernels.lut.CodeLengthLUT` — the trained Huffman code
  expanded into a 65536-entry code-length table, so per-block code lengths
  are one fancy-index and payload sizes a row sum;
* :mod:`~repro.kernels.tree` — the TSLC adder tree as prefix-sum gathers
  over every node in scan order (including the TSLC-OPT staggered windows)
  plus an ``argmax`` priority encoder;
* :mod:`~repro.kernels.decision` — the Fig. 4 mode decision (bit budget,
  threshold, burst accounting) as elementwise array arithmetic on each
  block's payload bits, with code lengths gathered for the lossy
  candidates only, held compactly (a flag per block, a truncated range per
  lossy block);
* :mod:`~repro.kernels.codec` — the TSLC truncation/prediction pass that
  materializes the bytes a read of every lossy block of a region returns.

No kernel encodes or decodes a Huffman bitstream: a store needs only sizes
and the degraded bytes.  The SLC kernels' one entry point is the batched
SLC store, :meth:`repro.gpu.backends.SLCBackend.decide` followed by
:meth:`~repro.gpu.backends.SLCBackend.from_decisions`.  The scalar path
remains the n = 1 reference: the batched decision is bit-exact against
per-block `SLCCompressor.analyze` (enforced by
``tests/test_batch_kernels.py``), and the batched sizes and reads against
the per-block `SLCBackend.store` and the scalar `compress`/`decompress`
bitstream (``tests/test_codec.py`` and the golden-result suite).

Each kernel has one fast path — single-threaded NumPy — pinned to one
scalar oracle.
"""

from repro.kernels.codec import reconstruct_rows
from repro.kernels.decision import CompactDecisions, analyze_code_lengths
from repro.kernels.lut import CodeLengthLUT
from repro.kernels.symbols import BatchSymbolView, as_symbol_view
from repro.kernels.tree import BatchSelection, BatchTreePlan, select_subblocks

__all__ = [
    "BatchSelection",
    "BatchSymbolView",
    "BatchTreePlan",
    "CodeLengthLUT",
    "CompactDecisions",
    "analyze_code_lengths",
    "as_symbol_view",
    "reconstruct_rows",
    "select_subblocks",
]
