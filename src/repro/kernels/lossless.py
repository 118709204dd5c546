"""Vectorized size-analysis kernels for the classic lossless compressors.

PRs 2–4 vectorized the E2MC/SLC pipeline; this module does the same for the
remaining registry schemes — BDI, FPC, C-Pack and BPC — so that *every*
:class:`~repro.compression.base.BlockCompressor` can ride the batched
``store_batch`` path of :class:`~repro.gpu.backends.LosslessBackend`.

Each kernel computes, for all blocks of a region at once, exactly the
``compressed_size_bits`` the scalar ``compress()`` implementation would
report — the scalar path remains the n = 1 oracle and the equivalence is
pinned bit-for-bit by ``tests/test_lossless_batch.py`` (hypothesis suites
plus real workload regions) and the golden-result suite.

Only the *size* analysis is vectorized: that is all the memory-controller
backends need (burst counts and stored bits follow from the size), and it is
what the compression hardware's parallel pattern detectors compute in one
cycle anyway.  Payload encode/decode stays scalar via the compressors'
``compress``/``decompress``.

Techniques shared by the kernels:

* blocks arrive as an ``(n_blocks, block_bytes)`` uint8 row matrix (a block
  list is joined once), then ``.view()`` reinterprets rows as 16/32/64-bit
  little-endian words without copying;
* wrap-around deltas are computed in unsigned arithmetic and reinterpreted
  as two's-complement via ``.view(signed)`` — the exact semantics of the
  scalar ``_to_signed`` helpers;
* the kernels that walk words in order (C-Pack's dictionary, BPC's deltas)
  transpose the words once to one row per word position, so each step is a
  contiguous row operation across all blocks;
* zero-run accounting (FPC word runs, BPC plane runs) finds run starts and
  lengths over the whole batch at once by diffing the flattened, row-padded
  zero mask, then bins per-row token costs with ``np.bincount``.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressionError
from repro.compression.bpc import MAX_BLOCK_WORDS
from repro.utils.blocks import as_block_rows

#: the (base_bytes, delta_bytes) encodings of the scalar BDI implementation,
#: in the same trial order
_BDI_ENCODINGS = ((8, 1), (8, 2), (8, 4), (4, 1), (4, 2), (2, 1))

#: BDI encoding-selector bits (mirrors ``repro.compression.bdi._ENCODING_BITS``)
_BDI_ENCODING_BITS = 4


def _byte_matrix(blocks, block_size_bytes: int) -> np.ndarray:
    """All blocks as one ``(n, block_size_bytes)`` uint8 matrix.

    A row matrix is used as is; a block list is joined once.
    """
    try:
        return as_block_rows(blocks, block_size_bytes)
    except ValueError as exc:
        raise CompressionError(str(exc)) from None


def _zero_run_bits(zero_mask: np.ndarray, max_run: int, token_bits: int) -> np.ndarray:
    """Per-row bit cost of run-length encoding the True runs of ``zero_mask``.

    A run of length L costs ``ceil(L / max_run)`` tokens of ``token_bits``
    each — the chunking both the FPC zero-run prefix (max 8 words / 6 bits)
    and the BPC zero-plane run (max 32 planes / 7 bits) use.  Rows are
    independent: a padding False column stops runs at row boundaries.
    """
    n, width = zero_mask.shape
    padded = np.zeros((n, width + 1), dtype=bool)
    padded[:, :width] = zero_mask
    diff = np.diff(padded.ravel().astype(np.int8), prepend=np.int8(0))
    starts = np.flatnonzero(diff == 1)
    if starts.size == 0:
        return np.zeros(n, dtype=np.int64)
    ends = np.flatnonzero(diff == -1)
    tokens = (ends - starts + max_run - 1) // max_run
    rows = starts // (width + 1)
    counts = np.bincount(rows, weights=tokens, minlength=n)
    return counts.astype(np.int64) * token_bits


# --------------------------------------------------------------------- #
# BDI


def bdi_size_bits(blocks, block_size_bytes: int = 128) -> np.ndarray:
    """Per-block ``compressed_size_bits`` of :class:`BDICompressor`.

    For every encoding, words are viewed at the base width; the delta from
    the first word is taken with unsigned wrap-around and reinterpreted as
    signed, and a word is encodable if either that delta or the word itself
    (against the implicit zero base) fits the delta width.  The smallest
    valid encoding wins, clamped at the raw block size; the all-zeros and
    repeated-value specials override everything, uncapped — exactly like the
    scalar path.
    """
    raw = _byte_matrix(blocks, block_size_bytes)
    n = raw.shape[0]
    block_bits = block_size_bytes * 8
    sizes = np.full(n, block_bits, dtype=np.int64)

    for base_bytes, delta_bytes in _BDI_ENCODINGS:
        if block_size_bytes % base_bytes:
            continue
        n_words = block_size_bytes // base_bytes
        size_bits = (
            _BDI_ENCODING_BITS + base_bytes * 8 + n_words + n_words * delta_bytes * 8
        )
        unsigned = raw.view(f"<u{base_bytes}")
        signed = unsigned.view(f"<i{base_bytes}")
        delta = (unsigned - unsigned[:, :1]).view(f"<i{base_bytes}")
        half = 1 << (delta_bytes * 8 - 1)
        fits_base = (delta >= -half) & (delta < half)
        fits_zero = ((signed >= -half) & (signed < half)) | (unsigned < half)
        valid = (fits_base | fits_zero).all(axis=1)
        np.minimum(sizes, np.where(valid, size_bits, block_bits), out=sizes)

    repeated = np.ones(n, dtype=bool)
    for start in range(8, block_size_bytes, 8):
        if start + 8 <= block_size_bytes:
            repeated &= (raw[:, start:start + 8] == raw[:, :8]).all(axis=1)
        else:
            # a trailing partial group can never equal the 8-byte first group
            repeated[:] = False
            break
    sizes[repeated] = 64 + _BDI_ENCODING_BITS
    zeros = ~raw.any(axis=1)
    sizes[zeros] = 8 + _BDI_ENCODING_BITS
    return sizes


# --------------------------------------------------------------------- #
# FPC


def fpc_size_bits(blocks, block_size_bytes: int = 128) -> np.ndarray:
    """Per-block ``compressed_size_bits`` of :class:`FPCCompressor`.

    Non-zero words are classified with ``np.select`` in the scalar encoder's
    precedence order (sign-extended 4/8/16 bits, zero-padded half, two
    sign-extended halves, repeated bytes, uncompressed); zero words pay only
    their run tokens (6 bits per run chunk of up to 8 words).
    """
    if block_size_bytes % 4:
        raise CompressionError("FPC blocks must be a multiple of 4 bytes")
    raw = _byte_matrix(blocks, block_size_bytes)
    block_bits = block_size_bytes * 8
    words = raw.view("<u4")
    signed = words.view("<i4")
    zero = words == 0

    low = words & np.uint32(0xFFFF)
    high = words >> np.uint32(16)
    low_fits8 = (low < 128) | (low >= 0xFF80)
    high_fits8 = (high < 128) | (high >= 0xFF80)
    # all four bytes equal <=> the word is its low byte replicated
    repeated = ((words & np.uint32(0xFF)) * np.uint32(0x01010101)) == words

    cost = np.select(
        [
            (signed >= -8) & (signed < 8),
            (signed >= -128) & (signed < 128),
            (signed >= -(1 << 15)) & (signed < (1 << 15)),
            low == 0,
            low_fits8 & high_fits8,
            repeated,
        ],
        [7, 11, 19, 19, 19, 11],
        default=35,
    )
    word_bits = np.where(zero, 0, cost).sum(axis=1, dtype=np.int64)
    run_bits = _zero_run_bits(zero, max_run=8, token_bits=6)
    total = word_bits + run_bits
    return np.where(total >= block_bits, block_bits, total).astype(np.int64)


# --------------------------------------------------------------------- #
# C-Pack


def cpack_size_bits(blocks, block_size_bytes: int = 128) -> np.ndarray:
    """Per-block ``compressed_size_bits`` of :class:`CPackCompressor`.

    The 16-entry FIFO dictionary is inherently sequential in the word
    position, so the kernel loops over the word positions and vectorizes
    across blocks.  Only sizes are needed, so a match may be any slot, and
    the dictionary never holds a duplicate (a full match is not pushed): it
    is a circular buffer of 16 slots per block, and a push overwrites the
    oldest slot with one scatter.  One XOR-min over the slots classifies a
    word: 0 is a full match, below ``2**8`` a high-24 match and below
    ``2**16`` a high-16 match.  An empty slot holds ``2**32`` (the slots are
    uint64), whose XOR with any 32-bit word is at least ``2**32``, so it
    matches nothing.  Pattern precedence and push rules mirror the scalar
    encoder exactly (zero, low-byte, full match, high-24 partial, high-16
    partial, uncompressed).
    """
    if block_size_bytes % 4:
        raise CompressionError("C-Pack blocks must be a multiple of 4 bytes")
    raw = _byte_matrix(blocks, block_size_bytes)
    block_bits = block_size_bytes * 8
    # one row per word position, one column per block
    words = raw.view("<u4").T.astype(np.uint64, order="C")
    n = words.shape[1]

    dictionary = np.full((16, n), 1 << 32, dtype=np.uint64)
    pushes = np.zeros(n, dtype=np.int64)
    nearest = np.empty_like(words)
    for position, word in enumerate(words):
        near = np.minimum.reduce(dictionary ^ word, axis=0, out=nearest[position])
        # every word above the low byte that is not a full match is pushed
        pushing = np.flatnonzero((word > 0xFF) & (near != 0))
        dictionary[pushes[pushing] & 15, pushing] = word[pushing]
        pushes[pushing] += 1

    match = 6 + 10 * (nearest > 0) + 8 * (nearest > 0xFF) + 10 * (nearest > 0xFFFF)
    cost = np.where(words > 0xFF, match, np.where(words == 0, 2, 12))
    return np.minimum(cost.sum(axis=0), block_bits)


# --------------------------------------------------------------------- #
# BPC


def bpc_size_bits(blocks, block_size_bytes: int = 128) -> np.ndarray:
    """Per-block ``compressed_size_bits`` of :class:`BPCCompressor`.

    For the 33-bit delta ``d_j`` of words ``j`` and ``j + 1``, bit ``b`` of
    ``e_j = d_j ^ (d_j >> 1)`` is bit ``j`` of DBX plane ``b`` (bit plane
    ``b`` XOR bit plane ``b + 1``; the top plane is kept).  So one
    ``np.unpackbits`` of ``e``, summed over the deltas, gives every DBX
    plane's popcount, which sets the plane's code in the scalar encoder's
    order: no ones joins a zero run (up to 32 planes at 7 bits), a one at
    every delta is all-ones (2 bits), a single one is single-one (8 bits)
    and anything else is raw (``2 + width`` bits).  Blocks hold at most
    :data:`~repro.compression.bpc.MAX_BLOCK_WORDS` words, the most a
    single-one plane's position field can address.
    """
    if block_size_bytes % 4:
        raise CompressionError("BPC blocks must be a multiple of 4 bytes")
    if block_size_bytes // 4 > MAX_BLOCK_WORDS:
        raise CompressionError(
            f"BPC blocks hold at most {MAX_BLOCK_WORDS} words, got {block_size_bytes} B"
        )
    raw = _byte_matrix(blocks, block_size_bytes)
    block_bits = block_size_bytes * 8
    # one row per word position, one column per block
    words = raw.view("<u4").T.copy()
    n = words.shape[1]
    width = words.shape[0] - 1

    # d = borrow * 2**32 + low, so e's bits 0..31 are those of
    # low ^ (low >> 1) with the borrow XORed into bit 31, and bit 32 is the
    # borrow
    low = words[1:] - words[:-1]
    borrow = words[1:] < words[:-1]
    e = low ^ (low >> np.uint32(1)) ^ (borrow.astype(np.uint32) << np.uint32(31))
    ones = np.empty((n, 33), dtype=np.uint8)
    bits = np.unpackbits(e.view(np.uint8), axis=1, bitorder="little")
    ones[:, :32] = np.add.reduce(bits, axis=0, dtype=np.uint8).reshape(n, 32)
    ones[:, 32] = np.add.reduce(borrow, axis=0, dtype=np.uint8)

    count = np.arange(width + 1)
    plane_cost = np.select(
        [count == 0, count == width, count == 1], [0, 2, 8], default=2 + width
    )
    zero = ones == 0
    run_bits = _zero_run_bits(zero, max_run=32, token_bits=7)
    total = 32 + plane_cost[ones].sum(axis=1) + run_bits
    return np.minimum(total, block_bits)
