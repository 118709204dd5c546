"""Shared low-level utilities: bit-level I/O and block manipulation."""

from repro.utils.bitstream import BitReader, BitWriter
from repro.utils.blocks import (
    array_to_blocks,
    array_to_rows,
    as_block_rows,
    block_count,
    blocks_to_array,
    block_to_symbols,
    bytes_to_words,
    rows_to_array,
    symbols_to_block,
    words_to_bytes,
)
from repro.utils.sampling import sample_evenly, sample_indices

__all__ = [
    "BitReader",
    "BitWriter",
    "sample_evenly",
    "sample_indices",
    "array_to_blocks",
    "array_to_rows",
    "as_block_rows",
    "block_count",
    "blocks_to_array",
    "rows_to_array",
    "block_to_symbols",
    "symbols_to_block",
    "bytes_to_words",
    "words_to_bytes",
]
