"""Batched symbol views: raw region bytes as an ``(n_blocks, symbols)`` matrix.

The scalar path slices every block out of its region and converts it to a
Python list of symbols (:func:`repro.utils.blocks.block_to_symbols`).  For a
whole region that is two Python loops per block; the batch path instead
reinterprets the region's ``(n_blocks, block_size)`` uint8 row matrix in
place (``.view``), yielding a ``(n_blocks, symbols_per_block)``
unsigned-integer matrix that every downstream kernel (code-length LUT, adder
tree, Fig. 4 decision) indexes without further per-block work.
"""

from __future__ import annotations

import numpy as np

from repro.utils.blocks import array_to_rows, as_block_rows

#: little-endian unsigned dtypes by symbol width (matches the byte order of
#: :func:`repro.utils.blocks.block_to_symbols`)
SYMBOL_DTYPES = {1: np.dtype("u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}


class BatchSymbolView:
    """All blocks of a byte region as one ``(n_blocks, symbols_per_block)`` matrix.

    Args:
        raw: the blocks — an ``(n_blocks, block_size_bytes)`` uint8 row
            matrix (viewed without a copy), or a region's raw bytes
            (``bytes``, ``bytearray`` or any other NumPy array, which is
            flattened to its underlying bytes).  A trailing partial block is
            zero-padded, mirroring :func:`repro.utils.blocks.array_to_rows`.
        block_size_bytes: memory block size (128 B in the paper).
        symbol_bytes: symbol width; 1, 2 and 4 byte symbols are supported
            (2-byte/16-bit symbols are the paper's configuration).
    """

    def __init__(
        self,
        raw: bytes | bytearray | np.ndarray,
        block_size_bytes: int = 128,
        symbol_bytes: int = 2,
    ) -> None:
        if block_size_bytes <= 0:
            raise ValueError(f"block_size_bytes must be positive, got {block_size_bytes}")
        if symbol_bytes not in SYMBOL_DTYPES:
            raise ValueError(
                f"unsupported symbol width {symbol_bytes}; supported: "
                f"{sorted(SYMBOL_DTYPES)}"
            )
        if block_size_bytes % symbol_bytes:
            raise ValueError(
                f"block size {block_size_bytes} is not a multiple of "
                f"symbol size {symbol_bytes}"
            )
        if not isinstance(raw, np.ndarray):
            raw = np.frombuffer(bytes(raw), dtype=np.uint8)
        if raw.dtype == np.uint8 and raw.ndim == 2 and raw.shape[1] == block_size_bytes:
            rows = np.ascontiguousarray(raw)
        else:
            rows = array_to_rows(raw, block_size_bytes)
        self.block_size_bytes = block_size_bytes
        self.symbol_bytes = symbol_bytes
        #: the blocks as an ``(n_blocks, block_size_bytes)`` uint8 matrix
        self.rows = rows
        self.symbols = rows.view(SYMBOL_DTYPES[symbol_bytes])

    @classmethod
    def from_blocks(
        cls,
        blocks: list[bytes],
        block_size_bytes: int = 128,
        symbol_bytes: int = 2,
    ) -> "BatchSymbolView":
        """Build a view from pre-sliced blocks (each exactly one block long)."""
        return cls(as_block_rows(blocks, block_size_bytes), block_size_bytes, symbol_bytes)

    @classmethod
    def from_array(
        cls,
        array: np.ndarray,
        block_size_bytes: int = 128,
        symbol_bytes: int = 2,
    ) -> "BatchSymbolView":
        """Build a view over a workload region's array (zero-padded)."""
        return cls(array, block_size_bytes, symbol_bytes)

    @property
    def n_blocks(self) -> int:
        """Number of blocks in the view."""
        return self.symbols.shape[0]

    @property
    def symbols_per_block(self) -> int:
        """Symbols in one block (64 for 128 B blocks / 16-bit symbols)."""
        return self.symbols.shape[1]

    def __len__(self) -> int:
        return self.n_blocks

    def __iter__(self):
        """Iterate the view as per-block bytes (scalar-fallback friendly)."""
        for index in range(self.n_blocks):
            yield self.block_bytes(index)

    def block_bytes(self, index: int) -> bytes:
        """Raw bytes of block ``index`` (for scalar fallbacks and reconstruction)."""
        return self.rows[index].tobytes()


def as_symbol_view(
    blocks: "BatchSymbolView | np.ndarray | list[bytes]",
    block_size_bytes: int,
    symbol_bytes: int,
) -> BatchSymbolView:
    """Coerce ``blocks`` (a view, a row matrix or a block list) into a view.

    A row matrix is viewed in place; only a block list is joined.
    """
    if isinstance(blocks, BatchSymbolView):
        if (blocks.block_size_bytes, blocks.symbol_bytes) != (
            block_size_bytes,
            symbol_bytes,
        ):
            raise ValueError(
                "symbol view geometry "
                f"({blocks.block_size_bytes} B blocks, {blocks.symbol_bytes} B symbols) "
                f"does not match the compressor ({block_size_bytes} B, {symbol_bytes} B)"
            )
        return blocks
    return BatchSymbolView(
        as_block_rows(blocks, block_size_bytes), block_size_bytes, symbol_bytes
    )
