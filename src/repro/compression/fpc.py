"""Frequent Pattern Compression (FPC).

Alameldeen & Wood, "Frequent Pattern Compression: A Significance-Based
Compression Scheme for L2 Caches".  Each 32-bit word is encoded with a 3-bit
prefix selecting one of seven frequent patterns (or the uncompressed
fallback); runs of zero words are additionally run-length encoded.
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

_PREFIX_BITS = 3

# Pattern identifiers (the 3-bit prefixes).
_ZERO_RUN = 0b000
_SIGN_EXT_4 = 0b001
_SIGN_EXT_8 = 0b010
_SIGN_EXT_16 = 0b011
_ZERO_PADDED_HALF = 0b100
_HALF_SIGN_EXT = 0b101
_REPEATED_BYTES = 0b110
_UNCOMPRESSED = 0b111

_MAX_ZERO_RUN = 8  # encoded in 3 bits (run length 1..8)


def _fits_signed_bits(value: int, bits: int) -> bool:
    return -(1 << (bits - 1)) <= value < 1 << (bits - 1)


def _to_signed32(word: int) -> int:
    return word - (1 << 32) if word >= 1 << 31 else word


def _to_signed16(half: int) -> int:
    return half - (1 << 16) if half >= 1 << 15 else half


class FPCCompressor(BlockCompressor):
    """Frequent Pattern Compression over 32-bit words."""

    name = "fpc"
    sizes_from_block_alone = True

    @property
    def batched_analysis(self) -> bool:
        """The word kernel needs 4-byte-aligned blocks."""
        return self.block_size_bytes % 4 == 0

    def compressed_size_bits_batch(self, blocks) -> np.ndarray:
        """Vectorized size analysis (bit-exact against :meth:`compress`)."""
        if not self.batched_analysis:
            return super().compressed_size_bits_batch(blocks)
        from repro.kernels.lossless import fpc_size_bits

        return fpc_size_bits(blocks, self.block_size_bytes)

    def compress(self, block: bytes) -> CompressedBlock:
        self._check_block(block)
        words = bytes_to_words(block)
        writer = BitWriter()
        index = 0
        while index < len(words):
            word = words[index]
            if word == 0:
                run = 1
                while (
                    index + run < len(words)
                    and words[index + run] == 0
                    and run < _MAX_ZERO_RUN
                ):
                    run += 1
                writer.write(_ZERO_RUN, _PREFIX_BITS)
                writer.write(run - 1, 3)
                index += run
                continue
            self._encode_word(writer, word)
            index += 1

        size_bits = writer.bit_length
        if size_bits >= self.block_size_bits:
            return store_uncompressed(self, block)
        return CompressedBlock(
            algorithm=self.name,
            original_size_bits=self.block_size_bits,
            compressed_size_bits=size_bits,
            payload=(writer.getvalue(), size_bits),
        )

    def decompress(self, compressed: CompressedBlock) -> bytes:
        if isinstance(compressed.payload, (bytes, bytearray)):
            return bytes(compressed.payload)
        data, size_bits = compressed.payload
        reader = BitReader(data, bit_length=size_bits)
        n_words = self.block_size_bytes // 4
        words: list[int] = []
        while len(words) < n_words:
            prefix = reader.read(_PREFIX_BITS)
            words.extend(self._decode_word(reader, prefix))
        if len(words) != n_words:
            raise DecompressionError(
                f"FPC decoded {len(words)} words, expected {n_words}"
            )
        return words_to_bytes(words)

    # ------------------------------------------------------------------ #
    # per-word encode/decode

    def _encode_word(self, writer: BitWriter, word: int) -> None:
        signed = _to_signed32(word)
        if _fits_signed_bits(signed, 4):
            writer.write(_SIGN_EXT_4, _PREFIX_BITS)
            writer.write(signed & 0xF, 4)
            return
        if _fits_signed_bits(signed, 8):
            writer.write(_SIGN_EXT_8, _PREFIX_BITS)
            writer.write(signed & 0xFF, 8)
            return
        if _fits_signed_bits(signed, 16):
            writer.write(_SIGN_EXT_16, _PREFIX_BITS)
            writer.write(signed & 0xFFFF, 16)
            return
        if word & 0xFFFF == 0:
            writer.write(_ZERO_PADDED_HALF, _PREFIX_BITS)
            writer.write(word >> 16, 16)
            return
        low = word & 0xFFFF
        high = word >> 16
        if _fits_signed_bits(_to_signed16(low), 8) and _fits_signed_bits(
            _to_signed16(high), 8
        ):
            writer.write(_HALF_SIGN_EXT, _PREFIX_BITS)
            writer.write(high & 0xFF, 8)
            writer.write(low & 0xFF, 8)
            return
        byte_values = word.to_bytes(4, "little")
        if len(set(byte_values)) == 1:
            writer.write(_REPEATED_BYTES, _PREFIX_BITS)
            writer.write(byte_values[0], 8)
            return
        writer.write(_UNCOMPRESSED, _PREFIX_BITS)
        writer.write(word, 32)

    def _decode_word(self, reader: BitReader, prefix: int) -> list[int]:
        if prefix == _ZERO_RUN:
            run = reader.read(3) + 1
            return [0] * run
        if prefix == _SIGN_EXT_4:
            value = reader.read(4)
            if value >= 8:
                value -= 16
            return [value & 0xFFFFFFFF]
        if prefix == _SIGN_EXT_8:
            value = reader.read(8)
            if value >= 128:
                value -= 256
            return [value & 0xFFFFFFFF]
        if prefix == _SIGN_EXT_16:
            value = reader.read(16)
            if value >= 1 << 15:
                value -= 1 << 16
            return [value & 0xFFFFFFFF]
        if prefix == _ZERO_PADDED_HALF:
            return [reader.read(16) << 16]
        if prefix == _HALF_SIGN_EXT:
            high = reader.read(8)
            low = reader.read(8)
            if high >= 128:
                high -= 256
            if low >= 128:
                low -= 256
            return [((high & 0xFFFF) << 16) | (low & 0xFFFF)]
        if prefix == _REPEATED_BYTES:
            byte = reader.read(8)
            return [int.from_bytes(bytes([byte]) * 4, "little")]
        if prefix == _UNCOMPRESSED:
            return [reader.read(32)]
        raise DecompressionError(f"unknown FPC prefix {prefix:#05b}")
