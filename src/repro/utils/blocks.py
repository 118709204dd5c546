"""Helpers for slicing NumPy arrays into fixed-size memory blocks.

GPU memory compression operates on cache-line-sized blocks (128 B in the
paper).  Workload data lives in NumPy arrays; these helpers convert between
array storage and the ``(n_blocks, block_size)`` uint8 row matrices the
batched compressors, the memory controller and the block store work on (or
lists of per-block ``bytes`` for the scalar paths), and between blocks and
the 16-bit symbol streams E2MC/SLC operate on.
"""

from __future__ import annotations

import numpy as np

DEFAULT_BLOCK_SIZE = 128
SYMBOL_BYTES = 2
WORD_BYTES = 4


def block_count(array: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Number of ``block_size`` blocks an array occupies (last one padded)."""
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    return -(-array.nbytes // block_size)


def array_to_rows(array: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """An array's raw bytes as an ``(n_blocks, block_size)`` uint8 matrix.

    The final row is zero-padded to ``block_size`` bytes, mirroring how a
    memory allocation is padded to whole cache lines.
    """
    n_blocks = block_count(array, block_size)
    raw = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
    rows = np.zeros((n_blocks, block_size), dtype=np.uint8)
    rows.reshape(-1)[: raw.shape[0]] = raw
    return rows


def rows_to_array(
    rows: np.ndarray, dtype: np.dtype, shape: tuple[int, ...]
) -> np.ndarray:
    """Reassemble an array from rows produced by :func:`array_to_rows` (a copy)."""
    count = int(np.prod(shape))
    needed = count * np.dtype(dtype).itemsize
    raw = np.ascontiguousarray(rows, dtype=np.uint8).reshape(-1)
    if raw.shape[0] < needed:
        raise ValueError(
            f"blocks provide {raw.shape[0]} bytes but shape {shape} needs {needed}"
        )
    return raw[:needed].view(dtype).reshape(shape).copy()


def as_block_rows(blocks, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """``blocks`` as an ``(n, block_size)`` uint8 matrix.

    A uint8 matrix of that width passes through without a copy (made
    C-contiguous if it is not); a list of ``block_size``-byte chunks is
    joined once.

    Raises:
        ValueError: if the blocks are not all ``block_size`` bytes long.
    """
    if isinstance(blocks, np.ndarray):
        if blocks.dtype != np.uint8 or blocks.ndim != 2 or blocks.shape[1] != block_size:
            raise ValueError(
                f"expected an (n, {block_size}) uint8 block matrix, got "
                f"{blocks.dtype} of shape {blocks.shape}"
            )
        return np.ascontiguousarray(blocks)
    blocks = list(blocks)
    joined = b"".join(blocks)
    if len(joined) != len(blocks) * block_size:
        raise ValueError(
            f"expected {len(blocks)} blocks of {block_size} bytes, "
            f"got {len(joined)} bytes total"
        )
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(blocks), block_size)


def iter_blocks(blocks) -> list[bytes]:
    """Per-block ``bytes`` of a row matrix; a block list passes through."""
    if isinstance(blocks, np.ndarray):
        return [row.tobytes() for row in blocks]
    return blocks


def array_to_blocks(array: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> list[bytes]:
    """:func:`array_to_rows` as a list of ``block_size``-byte chunks."""
    return [row.tobytes() for row in array_to_rows(array, block_size)]


def blocks_to_array(
    blocks: list[bytes],
    dtype: np.dtype,
    shape: tuple[int, ...],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Reassemble an array from blocks produced by :func:`array_to_blocks`."""
    raw = np.frombuffer(b"".join(blocks), dtype=np.uint8)
    return rows_to_array(raw, dtype, shape)


def block_to_symbols(block: bytes, symbol_bytes: int = SYMBOL_BYTES) -> list[int]:
    """Split a block into fixed-width little-endian symbols (16-bit default)."""
    if len(block) % symbol_bytes:
        raise ValueError(
            f"block length {len(block)} is not a multiple of symbol size {symbol_bytes}"
        )
    symbols = []
    for start in range(0, len(block), symbol_bytes):
        symbols.append(int.from_bytes(block[start:start + symbol_bytes], "little"))
    return symbols


def symbols_to_block(symbols: list[int], symbol_bytes: int = SYMBOL_BYTES) -> bytes:
    """Inverse of :func:`block_to_symbols`."""
    out = bytearray()
    limit = 1 << (8 * symbol_bytes)
    for symbol in symbols:
        if not 0 <= symbol < limit:
            raise ValueError(f"symbol {symbol} out of range for {symbol_bytes} bytes")
        out.extend(int(symbol).to_bytes(symbol_bytes, "little"))
    return bytes(out)


def bytes_to_words(block: bytes, word_bytes: int = WORD_BYTES) -> list[int]:
    """Split a block into fixed-width little-endian words (32-bit default)."""
    return block_to_symbols(block, symbol_bytes=word_bytes)


def words_to_bytes(words: list[int], word_bytes: int = WORD_BYTES) -> bytes:
    """Inverse of :func:`bytes_to_words`."""
    return symbols_to_block(words, symbol_bytes=word_bytes)
