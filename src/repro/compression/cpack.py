"""C-PACK: Cache Packer compression.

Chen et al., "C-Pack: A High-Performance Microprocessor Cache Compression
Algorithm", IEEE TVLSI 2010.  Each 32-bit word is matched against a small
dictionary of recently seen words and against static zero patterns; six
pattern codes cover full/partial dictionary matches and zero words.
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

_DICT_ENTRIES = 16
_DICT_INDEX_BITS = 4

# Pattern codes from the C-PACK paper (code, code length in bits).
_ZZZZ = (0b00, 2)          # all-zero word
_XXXX = (0b01, 2)          # uncompressed word (followed by 32 bits)
_MMMM = (0b10, 2)          # full dictionary match (followed by index)
_MMXX = (0b1100, 4)        # 2-byte partial match (index + 16 literal bits)
_ZZZX = (0b1101, 4)        # word with only the low byte non-zero (8 literal bits)
_MMMX = (0b1110, 4)        # 3-byte partial match (index + 8 literal bits)


class CPackCompressor(BlockCompressor):
    """C-PACK block compressor with a 16-entry FIFO dictionary."""

    name = "cpack"
    sizes_from_block_alone = True

    @property
    def batched_analysis(self) -> bool:
        """The word kernel needs 4-byte-aligned blocks."""
        return self.block_size_bytes % 4 == 0

    def compressed_size_bits_batch(self, blocks) -> np.ndarray:
        """Vectorized size analysis (bit-exact against :meth:`compress`)."""
        if not self.batched_analysis:
            return super().compressed_size_bits_batch(blocks)
        from repro.kernels.lossless import cpack_size_bits

        return cpack_size_bits(blocks, self.block_size_bytes)

    def compress(self, block: bytes) -> CompressedBlock:
        self._check_block(block)
        words = bytes_to_words(block)
        writer = BitWriter()
        dictionary: list[int] = []
        for word in words:
            self._encode_word(writer, word, dictionary)
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
        dictionary: list[int] = []
        words: list[int] = []
        for _ in range(n_words):
            words.append(self._decode_word(reader, dictionary))
        return words_to_bytes(words)

    # ------------------------------------------------------------------ #
    # internals

    def _push_dictionary(self, dictionary: list[int], word: int) -> None:
        """FIFO insertion of words that were not full matches or zeros."""
        dictionary.append(word)
        if len(dictionary) > _DICT_ENTRIES:
            dictionary.pop(0)

    def _encode_word(self, writer: BitWriter, word: int, dictionary: list[int]) -> None:
        if word == 0:
            code, width = _ZZZZ
            writer.write(code, width)
            return
        if word <= 0xFF:
            code, width = _ZZZX
            writer.write(code, width)
            writer.write(word, 8)
            return
        if word in dictionary:
            code, width = _MMMM
            writer.write(code, width)
            writer.write(dictionary.index(word), _DICT_INDEX_BITS)
            return
        # Partial matches: compare the high bytes against dictionary entries.
        for index, entry in enumerate(dictionary):
            if (entry >> 8) == (word >> 8):
                code, width = _MMMX
                writer.write(code, width)
                writer.write(index, _DICT_INDEX_BITS)
                writer.write(word & 0xFF, 8)
                self._push_dictionary(dictionary, word)
                return
        for index, entry in enumerate(dictionary):
            if (entry >> 16) == (word >> 16):
                code, width = _MMXX
                writer.write(code, width)
                writer.write(index, _DICT_INDEX_BITS)
                writer.write(word & 0xFFFF, 16)
                self._push_dictionary(dictionary, word)
                return
        code, width = _XXXX
        writer.write(code, width)
        writer.write(word, 32)
        self._push_dictionary(dictionary, word)

    def _decode_word(self, reader: BitReader, dictionary: list[int]) -> int:
        first_two = reader.read(2)
        if first_two == _ZZZZ[0]:
            return 0
        if first_two == _XXXX[0]:
            word = reader.read(32)
            self._push_dictionary(dictionary, word)
            return word
        if first_two == _MMMM[0]:
            index = reader.read(_DICT_INDEX_BITS)
            if index >= len(dictionary):
                raise DecompressionError(f"C-PACK dictionary index {index} out of range")
            return dictionary[index]
        # first_two == 0b11: read two more bits to disambiguate the 4-bit codes.
        rest = reader.read(2)
        code = (first_two << 2) | rest
        if code == _MMXX[0]:
            index = reader.read(_DICT_INDEX_BITS)
            literal = reader.read(16)
            if index >= len(dictionary):
                raise DecompressionError(f"C-PACK dictionary index {index} out of range")
            word = (dictionary[index] & 0xFFFF0000) | literal
            self._push_dictionary(dictionary, word)
            return word
        if code == _ZZZX[0]:
            return reader.read(8)
        if code == _MMMX[0]:
            index = reader.read(_DICT_INDEX_BITS)
            literal = reader.read(8)
            if index >= len(dictionary):
                raise DecompressionError(f"C-PACK dictionary index {index} out of range")
            word = (dictionary[index] & 0xFFFFFF00) | literal
            self._push_dictionary(dictionary, word)
            return word
        raise DecompressionError(f"unknown C-PACK code {code:#06b}")
