"""Base-Delta-Immediate (BDI) compression.

Pekhimenko et al., "Base-Delta-Immediate Compression: Practical Data
Compression for On-chip Caches", PACT 2012.  A block is represented as one
base value plus small per-word deltas.  Eight encodings are tried (plus the
all-zero and repeated-value special cases) and the smallest valid one wins.

The implementation below follows the canonical two-base variant: deltas are
taken either from the first word of the block (the "base") or from an
implicit zero base, whichever is smaller per word, with a one-bit mask per
word selecting which base was used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import (
    BlockCompressor,
    CompressedBlock,
    DecompressionError,
    store_uncompressed,
)


@dataclass(frozen=True)
class _BDIEncoding:
    """One (base size, delta size) configuration of BDI."""

    name: str
    base_bytes: int
    delta_bytes: int


# The eight encodings evaluated by the original BDI proposal for 32-byte and
# 64-byte lines, applied here to 128-byte blocks.
_ENCODINGS = (
    _BDIEncoding("base8-delta1", 8, 1),
    _BDIEncoding("base8-delta2", 8, 2),
    _BDIEncoding("base8-delta4", 8, 4),
    _BDIEncoding("base4-delta1", 4, 1),
    _BDIEncoding("base4-delta2", 4, 2),
    _BDIEncoding("base2-delta1", 2, 1),
)

_ENCODING_BITS = 4  # encoding selector stored with each compressed block


def _to_signed(value: int, size_bytes: int) -> int:
    bits = size_bytes * 8
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def _fits_signed(value: int, size_bytes: int) -> bool:
    bits = size_bytes * 8
    return -(1 << (bits - 1)) <= value < 1 << (bits - 1)


class BDICompressor(BlockCompressor):
    """Base-Delta-Immediate block compressor."""

    name = "bdi"
    batched_analysis = True
    sizes_from_block_alone = True

    def compressed_size_bits_batch(self, blocks) -> np.ndarray:
        """Vectorized size analysis (bit-exact against :meth:`compress`)."""
        from repro.kernels.lossless import bdi_size_bits

        return bdi_size_bits(blocks, self.block_size_bytes)

    def compress(self, block: bytes) -> CompressedBlock:
        self._check_block(block)
        if not any(block):
            return CompressedBlock(
                algorithm=self.name,
                original_size_bits=self.block_size_bits,
                compressed_size_bits=8 + _ENCODING_BITS,
                payload=("zeros", None),
            )
        repeated = self._repeated_value(block)
        if repeated is not None:
            return CompressedBlock(
                algorithm=self.name,
                original_size_bits=self.block_size_bits,
                compressed_size_bits=64 + _ENCODING_BITS,
                payload=("repeat", repeated),
            )

        best: tuple[int, _BDIEncoding, tuple] | None = None
        for encoding in _ENCODINGS:
            packed = self._try_encoding(block, encoding)
            if packed is None:
                continue
            size_bits = self._encoded_size_bits(encoding)
            if best is None or size_bits < best[0]:
                best = (size_bits, encoding, packed)
        if best is None or best[0] >= self.block_size_bits:
            return store_uncompressed(self, block)
        size_bits, encoding, packed = best
        return CompressedBlock(
            algorithm=self.name,
            original_size_bits=self.block_size_bits,
            compressed_size_bits=size_bits,
            payload=(encoding.name, packed),
            metadata={"encoding": encoding.name},
        )

    def decompress(self, compressed: CompressedBlock) -> bytes:
        kind, payload = (
            compressed.payload
            if isinstance(compressed.payload, tuple)
            else ("raw", compressed.payload)
        )
        if isinstance(compressed.payload, (bytes, bytearray)):
            return bytes(compressed.payload)
        if kind == "zeros":
            return b"\x00" * self.block_size_bytes
        if kind == "repeat":
            count = self.block_size_bytes // 8
            return payload.to_bytes(8, "little") * count
        encoding = self._encoding_by_name(kind)
        base, mask, deltas = payload
        out = bytearray()
        for use_base, delta in zip(mask, deltas):
            value = (base + delta) if use_base else delta
            value &= (1 << (encoding.base_bytes * 8)) - 1
            out.extend(value.to_bytes(encoding.base_bytes, "little"))
        if len(out) != self.block_size_bytes:
            raise DecompressionError(
                f"BDI payload reconstructs {len(out)} bytes, "
                f"expected {self.block_size_bytes}"
            )
        return bytes(out)

    # ------------------------------------------------------------------ #
    # internals

    def _repeated_value(self, block: bytes) -> int | None:
        """Return the repeated 8-byte value if the block is one value repeated."""
        first = block[:8]
        for start in range(8, len(block), 8):
            if block[start:start + 8] != first:
                return None
        return int.from_bytes(first, "little")

    def _encoding_by_name(self, name: str) -> _BDIEncoding:
        for encoding in _ENCODINGS:
            if encoding.name == name:
                return encoding
        raise DecompressionError(f"unknown BDI encoding {name!r}")

    def _encoded_size_bits(self, encoding: _BDIEncoding) -> int:
        n_words = self.block_size_bytes // encoding.base_bytes
        return (
            _ENCODING_BITS
            + encoding.base_bytes * 8  # the base value
            + n_words  # one-bit mask: delta from base or from zero
            + n_words * encoding.delta_bytes * 8
        )

    def _try_encoding(self, block: bytes, encoding: _BDIEncoding) -> tuple | None:
        """Return (base, mask, deltas) if every word fits, else None."""
        if self.block_size_bytes % encoding.base_bytes:
            return None
        words = [
            int.from_bytes(block[i:i + encoding.base_bytes], "little")
            for i in range(0, self.block_size_bytes, encoding.base_bytes)
        ]
        base = words[0]
        mask = []
        deltas = []
        for word in words:
            delta_base = _to_signed((word - base) & ((1 << (encoding.base_bytes * 8)) - 1),
                                    encoding.base_bytes)
            if _fits_signed(delta_base, encoding.delta_bytes):
                mask.append(True)
                deltas.append(delta_base)
                continue
            # Fall back to the implicit zero base ("immediate" values).
            if _fits_signed(_to_signed(word, encoding.base_bytes), encoding.delta_bytes) or \
                    word < (1 << (encoding.delta_bytes * 8 - 1)):
                mask.append(False)
                deltas.append(word)
                continue
            return None
        return base, mask, deltas
