"""Bit-Plane Compression (BPC).

Kim et al., "Bit-plane Compression: Transforming Data for Better Compression
in Many-core Architectures", ISCA 2016.  The block is viewed as a sequence of
32-bit words; consecutive words are delta-transformed, the deltas are
transposed into bit planes (DBP), adjacent bit planes are XORed (DBX) and the
result is encoded with run-length and frequent-pattern codes.

The paper under reproduction discusses BPC only qualitatively (Section II-A,
arguing that it too suffers from MAG); it is included here so that the
qualitative claim can be checked quantitatively as an extension experiment.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    BlockCompressor,
    CompressedBlock,
    DecompressionError,
    store_uncompressed,
)
from repro.utils.bitstream import BitReader, BitWriter
from repro.utils.blocks import bytes_to_words, words_to_bytes

_WORD_BITS = 32

#: bits of a single-one plane's position field
_POSITION_BITS = 6

#: the most 32-bit words a block may hold: a single-one plane codes the
#: position of its one bit among the ``words - 1`` deltas in
#: ``_POSITION_BITS`` bits (65 words, 260 B)
MAX_BLOCK_WORDS = (1 << _POSITION_BITS) + 1


def _delta_transform(words: list[int]) -> tuple[int, list[int]]:
    """Return (first word, signed deltas between consecutive words)."""
    base = words[0]
    deltas = []
    previous = base
    for word in words[1:]:
        delta = word - previous
        deltas.append(delta)
        previous = word
    return base, deltas


def _inverse_delta(base: int, deltas: list[int]) -> list[int]:
    words = [base]
    for delta in deltas:
        words.append((words[-1] + delta) & 0xFFFFFFFF)
    return words


def _to_bit_planes(deltas: list[int], plane_bits: int) -> list[int]:
    """Transpose deltas (as two's-complement of ``plane_bits`` bits) into planes."""
    mask = (1 << plane_bits) - 1
    planes = []
    for bit in range(plane_bits):
        plane = 0
        for position, delta in enumerate(deltas):
            value = delta & mask
            plane |= ((value >> bit) & 1) << position
        planes.append(plane)
    return planes


def _from_bit_planes(planes: list[int], count: int, plane_bits: int) -> list[int]:
    deltas = []
    for position in range(count):
        value = 0
        for bit in range(plane_bits):
            value |= ((planes[bit] >> position) & 1) << bit
        # interpret as signed two's complement
        if value >= 1 << (plane_bits - 1):
            value -= 1 << plane_bits
        deltas.append(value)
    return deltas


class BPCCompressor(BlockCompressor):
    """Bit-plane compression over 32-bit words with DBP/DBX transforms."""

    name = "bpc"

    #: deltas of consecutive 32-bit words need up to 33 bits
    _DELTA_BITS = 33

    sizes_from_block_alone = True

    def __init__(self, block_size_bytes: int = 128) -> None:
        super().__init__(block_size_bytes)
        if block_size_bytes > 4 * MAX_BLOCK_WORDS:
            raise ValueError(
                f"BPC blocks hold at most {MAX_BLOCK_WORDS} 32-bit words "
                f"({4 * MAX_BLOCK_WORDS} B), got {block_size_bytes} B"
            )

    @property
    def batched_analysis(self) -> bool:
        """The plane kernel needs 4-byte-aligned blocks; their size is
        capped at :data:`MAX_BLOCK_WORDS` words on construction."""
        return self.block_size_bytes % 4 == 0

    def compressed_size_bits_batch(self, blocks) -> np.ndarray:
        """Vectorized size analysis (bit-exact against :meth:`compress`)."""
        if not self.batched_analysis:
            return super().compressed_size_bits_batch(blocks)
        from repro.kernels.lossless import bpc_size_bits

        return bpc_size_bits(blocks, self.block_size_bytes)

    def compress(self, block: bytes) -> CompressedBlock:
        self._check_block(block)
        words = bytes_to_words(block)
        base, deltas = _delta_transform(words)
        planes = _to_bit_planes(deltas, self._DELTA_BITS)
        # DBX: XOR adjacent planes (plane i ^ plane i+1); the last plane is kept.
        dbx = [planes[i] ^ planes[i + 1] for i in range(len(planes) - 1)]
        dbx.append(planes[-1])

        writer = BitWriter()
        writer.write(base, _WORD_BITS)
        plane_width = len(deltas)
        run_zero = 0
        for plane in dbx:
            if plane == 0:
                run_zero += 1
                continue
            if run_zero:
                self._emit_zero_run(writer, run_zero)
                run_zero = 0
            self._emit_plane(writer, plane, plane_width)
        if run_zero:
            self._emit_zero_run(writer, run_zero)

        size_bits = writer.bit_length
        if size_bits >= self.block_size_bits:
            return store_uncompressed(self, block)
        return CompressedBlock(
            algorithm=self.name,
            original_size_bits=self.block_size_bits,
            compressed_size_bits=size_bits,
            payload=(writer.getvalue(), size_bits, plane_width),
        )

    def decompress(self, compressed: CompressedBlock) -> bytes:
        if isinstance(compressed.payload, (bytes, bytearray)):
            return bytes(compressed.payload)
        data, size_bits, plane_width = compressed.payload
        reader = BitReader(data, bit_length=size_bits)
        base = reader.read(_WORD_BITS)
        dbx: list[int] = []
        while len(dbx) < self._DELTA_BITS:
            dbx.extend(self._read_plane(reader, plane_width))
        if len(dbx) != self._DELTA_BITS:
            raise DecompressionError(
                f"BPC decoded {len(dbx)} planes, expected {self._DELTA_BITS}"
            )
        planes = [0] * self._DELTA_BITS
        planes[-1] = dbx[-1]
        for index in range(self._DELTA_BITS - 2, -1, -1):
            planes[index] = dbx[index] ^ planes[index + 1]
        deltas = _from_bit_planes(planes, plane_width, self._DELTA_BITS)
        words = _inverse_delta(base, deltas)
        return words_to_bytes(words)

    # ------------------------------------------------------------------ #
    # plane encodings: 2-bit prefix {zero-run, all-ones, single-one, raw}

    _ZERO_RUN = 0b00
    _ALL_ONES = 0b01
    _SINGLE_ONE = 0b10
    _RAW = 0b11

    def _emit_zero_run(self, writer: BitWriter, run: int) -> None:
        while run > 0:
            chunk = min(run, 32)
            writer.write(self._ZERO_RUN, 2)
            writer.write(chunk - 1, 5)
            run -= chunk

    def _emit_plane(self, writer: BitWriter, plane: int, width: int) -> None:
        all_ones = (1 << width) - 1
        if plane == all_ones:
            writer.write(self._ALL_ONES, 2)
            return
        if plane & (plane - 1) == 0:
            writer.write(self._SINGLE_ONE, 2)
            writer.write(plane.bit_length() - 1, _POSITION_BITS)
            return
        writer.write(self._RAW, 2)
        writer.write(plane, width)

    def _read_plane(self, reader: BitReader, width: int) -> list[int]:
        prefix = reader.read(2)
        if prefix == self._ZERO_RUN:
            run = reader.read(5) + 1
            return [0] * run
        if prefix == self._ALL_ONES:
            return [(1 << width) - 1]
        if prefix == self._SINGLE_ONE:
            position = reader.read(_POSITION_BITS)
            return [1 << position]
        if prefix == self._RAW:
            return [reader.read(width)]
        raise DecompressionError(f"unknown BPC plane prefix {prefix:#04b}")
