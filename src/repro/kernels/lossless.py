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

* blocks become an ``(n_blocks, block_bytes)`` uint8 matrix via one
  ``np.frombuffer`` over the joined buffer, then ``.view()`` reinterprets
  rows as 16/32/64-bit little-endian words without copying;
* wrap-around deltas are computed in unsigned arithmetic and reinterpreted
  as two's-complement via ``.view(signed)`` — the exact semantics of the
  scalar ``_to_signed`` helpers;
* zero-run accounting (FPC word runs, BPC plane runs) finds run starts and
  lengths over the whole batch at once by diffing the flattened, row-padded
  zero mask, then bins per-row token costs with ``np.bincount``.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressionError

#: the (base_bytes, delta_bytes) encodings of the scalar BDI implementation,
#: in the same trial order
_BDI_ENCODINGS = ((8, 1), (8, 2), (8, 4), (4, 1), (4, 2), (2, 1))

#: BDI encoding-selector bits (mirrors ``repro.compression.bdi._ENCODING_BITS``)
_BDI_ENCODING_BITS = 4


def _byte_matrix(blocks: list[bytes], block_size_bytes: int) -> np.ndarray:
    """All blocks as one ``(n, block_size_bytes)`` uint8 matrix (zero-copy rows)."""
    n = len(blocks)
    joined = b"".join(blocks)
    if len(joined) != n * block_size_bytes:
        raise CompressionError(
            f"expected {n} blocks of {block_size_bytes} bytes, "
            f"got {len(joined)} bytes total"
        )
    return np.frombuffer(joined, dtype=np.uint8).reshape(n, block_size_bytes)


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


def bdi_size_bits(blocks: list[bytes], block_size_bytes: int = 128) -> np.ndarray:
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


def fpc_size_bits(blocks: list[bytes], block_size_bytes: int = 128) -> np.ndarray:
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


def cpack_size_bits(blocks: list[bytes], block_size_bytes: int = 128) -> np.ndarray:
    """Per-block ``compressed_size_bits`` of :class:`CPackCompressor`.

    The 16-entry FIFO dictionary is inherently sequential in the word
    position, so the kernel loops over the (at most 32) word positions and
    vectorizes across blocks: the dictionary is an ``(n, 16)`` state matrix,
    matches are broadcast compares masked by each row's fill count, and the
    FIFO push is a conditional row shift.  Pattern precedence and push rules
    mirror the scalar encoder exactly (zero, low-byte, full match, high-24
    partial, high-16 partial, uncompressed).
    """
    if block_size_bytes % 4:
        raise CompressionError("C-Pack blocks must be a multiple of 4 bytes")
    raw = _byte_matrix(blocks, block_size_bytes)
    block_bits = block_size_bytes * 8
    words = raw.view("<u4")
    n, n_words = words.shape

    dictionary = np.zeros((n, 16), dtype=np.uint32)
    fill = np.zeros(n, dtype=np.int64)
    slots = np.arange(16)
    sizes = np.zeros(n, dtype=np.int64)

    for position in range(n_words):
        word = words[:, position]
        valid = slots[None, :] < fill[:, None]
        full = ((dictionary == word[:, None]) & valid).any(axis=1)
        high24 = (
            ((dictionary >> np.uint32(8)) == (word >> np.uint32(8))[:, None]) & valid
        ).any(axis=1)
        high16 = (
            ((dictionary >> np.uint32(16)) == (word >> np.uint32(16))[:, None]) & valid
        ).any(axis=1)

        is_zero = word == 0
        is_byte = ~is_zero & (word <= 0xFF)
        rest = ~is_zero & ~is_byte
        m_full = rest & full
        m_high24 = rest & ~full & high24
        m_high16 = rest & ~full & ~high24 & high16
        sizes += np.select(
            [is_zero, is_byte, m_full, m_high24, m_high16],
            [2, 12, 6, 16, 24],
            default=34,
        )

        push = rest & ~full  # MMMX, MMXX and XXXX all push the word
        pushing = np.flatnonzero(push)
        if pushing.size:
            shifting = pushing[fill[pushing] >= 16]
            if shifting.size:
                dictionary[shifting, :-1] = dictionary[shifting, 1:]
                dictionary[shifting, -1] = word[shifting]
            appending = pushing[fill[pushing] < 16]
            if appending.size:
                dictionary[appending, fill[appending]] = word[appending]
                fill[appending] += 1

    return np.where(sizes >= block_bits, block_bits, sizes).astype(np.int64)


# --------------------------------------------------------------------- #
# BPC


def bpc_size_bits(blocks: list[bytes], block_size_bytes: int = 128) -> np.ndarray:
    """Per-block ``compressed_size_bits`` of :class:`BPCCompressor`.

    Word deltas (33-bit two's complement, exact in int64) are transposed
    into 33 bit planes per block — each plane an integer of ``n_words - 1``
    bits, so the whole transpose is 33 masked dot products — then the DBX
    XOR and the plane encodings (zero runs of up to 32 planes at 7 bits,
    all-ones at 2, single-one at 8, raw at ``2 + width``) are evaluated for
    all blocks at once.  Supports up to 64 words (256-byte blocks), where a
    plane still fits an int64.
    """
    if block_size_bytes % 4:
        raise CompressionError("BPC blocks must be a multiple of 4 bytes")
    n_words = block_size_bytes // 4
    if n_words - 1 > 63:
        raise CompressionError("bpc_size_bits supports at most 256-byte blocks")
    raw = _byte_matrix(blocks, block_size_bytes)
    block_bits = block_size_bytes * 8
    words = raw.view("<u4").astype(np.int64)
    n = words.shape[0]
    width = n_words - 1

    deltas = np.diff(words, axis=1) & ((1 << 33) - 1)
    weights = np.int64(1) << np.arange(width, dtype=np.int64)
    planes = np.empty((n, 33), dtype=np.int64)
    for bit in range(33):
        planes[:, bit] = (((deltas >> bit) & 1) * weights).sum(axis=1)
    dbx = np.empty_like(planes)
    dbx[:, :-1] = planes[:, :-1] ^ planes[:, 1:]
    dbx[:, -1] = planes[:, -1]

    zero = dbx == 0
    all_ones = (1 << width) - 1
    single_one = (dbx & (dbx - 1)) == 0
    cost = np.select([dbx == all_ones, single_one], [2, 8], default=2 + width)
    plane_bits = np.where(zero, 0, cost).sum(axis=1, dtype=np.int64)
    run_bits = _zero_run_bits(zero, max_run=32, token_bits=7)
    total = 32 + plane_bits + run_bits
    return np.where(total >= block_bits, block_bits, total).astype(np.int64)
