"""E2MC: entropy-encoding based memory compression for GPUs.

Lal et al., "E2MC: Entropy Encoding Based Memory Compression for GPUs",
IPDPS 2017 — the lossless baseline on which SLC is built.  E2MC Huffman-codes
fixed-width symbols (16-bit symbols give the best results in the paper) using
a probability table built by online sampling.  Symbols outside the table are
emitted with an escape code followed by the raw symbol bits.

Two properties of E2MC matter for SLC and are modelled faithfully here:

* the compressed size of a block equals the sum of its per-symbol code
  lengths (plus a small header with parallel decoding pointers), so it can be
  computed quickly by an adder tree without producing the compressed bits;
* symbols are independent codewords, so dropping a contiguous run of symbols
  shrinks the block by exactly the sum of their code lengths.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.compression.base import (
    BlockCompressor,
    CompressedBlock,
    CompressionError,
    DecompressionError,
    store_uncompressed,
)
from repro.compression.huffman import HuffmanCode, build_huffman_code
from repro.utils.bitstream import BitReader, BitWriter
from repro.utils.blocks import block_to_symbols, symbols_to_block

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernels -> e2mc)
    from repro.kernels.lut import CodeLengthLUT
    from repro.kernels.symbols import BatchSymbolView

#: Pseudo-symbol used as the escape marker inside the Huffman table.  Real
#: symbols are non-negative, so a negative key can never collide.
ESCAPE_SYMBOL = -1


@dataclass(eq=False)
class SymbolModel:
    """Huffman probability model over fixed-width symbols.

    The model mirrors the E2MC hardware: a bounded-size frequency table of the
    most common symbols (filled by sampling), a length-limited canonical
    Huffman code over those symbols plus an escape symbol, and an escape path
    that emits the raw symbol bits after the escape codeword.  A model is
    trained in place, so it compares and hashes by identity.
    """

    symbol_bytes: int = 2
    max_table_entries: int = 1024
    max_code_length: int = 24
    code: HuffmanCode = field(default_factory=HuffmanCode)
    trained: bool = False

    @property
    def symbol_bits(self) -> int:
        """Width of a raw symbol in bits."""
        return self.symbol_bytes * 8

    def fit(self, blocks: list[bytes]) -> None:
        """Build the probability table from sample blocks (online sampling).

        Narrow symbols (1 or 2 bytes) are counted in one :func:`numpy.bincount`
        over the concatenated sample bytes; wider symbols fall back to the
        per-block Python loop.
        """
        if (
            self.symbol_bytes in (1, 2)
            and blocks
            and all(len(block) % self.symbol_bytes == 0 for block in blocks)
        ):
            from repro.kernels.symbols import SYMBOL_DTYPES

            flat = np.frombuffer(
                b"".join(blocks), dtype=SYMBOL_DTYPES[self.symbol_bytes]
            )
            bincount = np.bincount(flat, minlength=1 << self.symbol_bits)
            nonzero = np.nonzero(bincount)[0]
            counts: Mapping[int, int] = dict(
                zip(nonzero.tolist(), bincount[nonzero].tolist())
            )
        else:
            counter: Counter[int] = Counter()
            for block in blocks:
                counter.update(block_to_symbols(block, self.symbol_bytes))
            counts = counter
        self.fit_counts(counts)

    def fit_counts(self, counts: Mapping[int, int]) -> None:
        """Build the probability table from pre-computed symbol counts.

        Table admission is deterministic — symbols are ranked by descending
        count with the symbol value breaking ties — so the same counts always
        yield the same code regardless of how (or in which order) they were
        accumulated.
        """
        if not counts:
            raise CompressionError("cannot train a symbol model on no data")
        ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        table = dict(ordered[: self.max_table_entries])
        escaped = sum(counts.values()) - sum(table.values())
        # The escape symbol always gets a codeword so unseen symbols at
        # compression time remain encodable.
        table[ESCAPE_SYMBOL] = max(1, escaped)
        self.code = build_huffman_code(table, max_length=self.max_code_length)
        self.trained = True

    def _per_code_cache(self, attr: str, builder):
        """A derived table rebuilt lazily whenever the model is retrained.

        Both derived tables (the dense length LUT and the scalar decoding
        dict) share one invalidation rule — rebuild when the code object is
        replaced or the trained flag flips — so it lives in one place.
        """
        key = getattr(self, f"_{attr}_key", None)
        if key is None or key[0] is not self.code or key[1] != self.trained:
            setattr(self, f"_{attr}", builder())
            setattr(self, f"_{attr}_key", (self.code, self.trained))
        return getattr(self, f"_{attr}")

    def code_length_table(self) -> "CodeLengthLUT":
        """The code as a dense per-symbol length table (cached per code).

        The table is the batch-kernel counterpart of :meth:`code_length`:
        entry ``s`` holds the coded length of symbol ``s``, with untabled
        symbols mapped to escape-plus-raw bits.  Rebuilt lazily whenever the
        model is retrained.
        """
        from repro.kernels.lut import CodeLengthLUT

        return self._per_code_cache("lut", lambda: CodeLengthLUT.from_model(self))

    def code_length(self, symbol: int) -> int:
        """Coded length of ``symbol`` in bits (escape + raw bits if untabled)."""
        if not self.trained:
            return self.symbol_bits
        if symbol in self.code.lengths:
            return self.code.lengths[symbol]
        return self.code.lengths[ESCAPE_SYMBOL] + self.symbol_bits

    def encode_symbol(self, writer: BitWriter, symbol: int) -> None:
        """Append the codeword (or escape + raw bits) for ``symbol``."""
        if not self.trained:
            raise CompressionError("symbol model must be trained before encoding")
        if symbol in self.code.codewords:
            codeword, length = self.code.encode(symbol)
            writer.write(codeword, length)
            return
        codeword, length = self.code.encode(ESCAPE_SYMBOL)
        writer.write(codeword, length)
        writer.write(symbol, self.symbol_bits)

    def decode_symbol(self, reader: BitReader) -> int:
        """Read one symbol from the bitstream."""
        if not self.trained:
            raise DecompressionError("symbol model must be trained before decoding")
        table = self._decoding_table()
        code = 0
        for length in range(1, self.code.max_length() + 1):
            code = (code << 1) | reader.read_bit()
            symbol = table.get((code, length))
            if symbol is None:
                continue
            if symbol == ESCAPE_SYMBOL:
                return reader.read(self.symbol_bits)
            return symbol
        raise DecompressionError("no codeword matched the input bitstream")

    def _decoding_table(self) -> dict[tuple[int, int], int]:
        return self._per_code_cache("decoding", self.code.decoding_table)


class TrainingSet(tuple):
    """Sample blocks that remember the symbol models fitted on them.

    A fit is a pure function of the samples and the model parameters, so
    E2MC and every TSLC variant at every MAG trained on the same samples
    can share one :class:`SymbolModel` — and with it the derived LUTs —
    instead of each refitting its own.  :meth:`E2MCCompressor.train`
    takes its model from here when handed a ``TrainingSet``; a plain block
    list still gets a private fit.  A shared model is read-only by
    convention: retraining replaces a compressor's model, never mutates it.
    """

    def __init__(self, blocks=()) -> None:
        self._models: dict[tuple[int, int, int], SymbolModel] = {}

    def symbol_model(
        self, symbol_bytes: int, max_table_entries: int, max_code_length: int
    ) -> SymbolModel:
        """The model fitted on these samples with these parameters (fit once)."""
        key = (symbol_bytes, max_table_entries, max_code_length)
        model = self._models.get(key)
        if model is None:
            model = SymbolModel(*key)
            model.fit(self)
            self._models[key] = model
        return model


class E2MCCompressor(BlockCompressor):
    """Entropy-encoding (Huffman) memory compressor, the SLC baseline.

    Args:
        block_size_bytes: memory block size (128 B in the paper).
        symbol_bytes: symbol width (2 bytes / 16-bit symbols, the best
            configuration reported by the E2MC paper and used for SLC).
        num_pdw: number of parallel decoding ways; the header carries
            ``num_pdw - 1`` decoding pointers for compressed blocks.
        max_table_entries: probability-table capacity.
        max_code_length: codeword length cap of the hardware decoder.
        include_header: whether to charge the parallel-decoding-pointer header
            to each compressed block (uncompressed blocks carry no header,
            matching the paper).
    """

    name = "e2mc"

    def __init__(
        self,
        block_size_bytes: int = 128,
        symbol_bytes: int = 2,
        num_pdw: int = 4,
        max_table_entries: int = 1024,
        max_code_length: int = 24,
        include_header: bool = True,
    ) -> None:
        super().__init__(block_size_bytes)
        if block_size_bytes % symbol_bytes:
            raise ValueError(
                f"block size {block_size_bytes} is not a multiple of symbol size {symbol_bytes}"
            )
        self.symbol_bytes = symbol_bytes
        self.num_pdw = num_pdw
        self.include_header = include_header
        self.model = SymbolModel(
            symbol_bytes=symbol_bytes,
            max_table_entries=max_table_entries,
            max_code_length=max_code_length,
        )

    # ------------------------------------------------------------------ #
    # model management

    def train(self, blocks: list[bytes]) -> None:
        """Build the symbol probability table from sample blocks.

        A :class:`TrainingSet` hands out its shared fit for this model's
        parameters; any other block list is fitted into a fresh model, so
        a shared model is never refitted in place.
        """
        params = (
            self.model.symbol_bytes,
            self.model.max_table_entries,
            self.model.max_code_length,
        )
        if isinstance(blocks, TrainingSet):
            self.model = blocks.symbol_model(*params)
            return
        model = SymbolModel(*params)
        model.fit(blocks)
        self.model = model

    @property
    def trained(self) -> bool:
        """Whether the probability table has been built."""
        return self.model.trained

    @property
    def symbols_per_block(self) -> int:
        """Number of symbols in one block (64 for 128 B blocks / 16-bit symbols)."""
        return self.block_size_bytes // self.symbol_bytes

    @property
    def header_bits(self) -> int:
        """Per-block header: parallel decoding pointers for compressed blocks.

        Each pointer holds a bit offset within the compressed block; the paper
        stores ``num_pdw - 1`` pointers of N bits where ``2**N`` is the block
        size in bytes.
        """
        if not self.include_header:
            return 0
        pointer_bits = max(1, (self.block_size_bytes - 1).bit_length())
        return (self.num_pdw - 1) * pointer_bits

    # ------------------------------------------------------------------ #
    # SLC support

    def symbol_code_lengths(self, block: bytes) -> list[int]:
        """Per-symbol code lengths of ``block`` (input to SLC's adder tree)."""
        self._check_block(block)
        symbols = block_to_symbols(block, self.symbol_bytes)
        return [self.model.code_length(symbol) for symbol in symbols]

    def payload_size_bits(self, block: bytes) -> int:
        """Sum of the per-symbol code lengths, without the header."""
        return sum(self.symbol_code_lengths(block))

    @property
    def batched_analysis(self) -> bool:
        """The dense code-length table covers symbols of up to 2 bytes."""
        from repro.kernels.lut import MAX_LUT_SYMBOL_BYTES

        return self.symbol_bytes <= MAX_LUT_SYMBOL_BYTES

    @property
    def size_key(self) -> tuple | None:
        """Sizes follow from the block, the geometry and the trained model.

        The model is keyed by identity: every E2MC compressor trained on
        one :class:`TrainingSet` shares its model, and so its sizes, and a
        model is never refitted once trained through :meth:`train`.
        """
        if not (self.batched_analysis and self.model.trained):
            return None
        return (type(self), self.block_size_bytes, self.symbol_bytes,
                self.header_bits, self.model)

    def compressed_size_bits_batch(
        self, blocks: "BatchSymbolView | np.ndarray | list[bytes]"
    ) -> np.ndarray:
        """Total stored bits per block, exactly as :meth:`compress` reports.

        Payload row sums plus the parallel-decoding header, clamped at the
        raw block size (blocks that would not shrink are stored raw); an
        untrained model stores everything raw.  Symbols wider than the LUT
        covers take the scalar loop.
        """
        from repro.kernels.symbols import as_symbol_view

        if not self.batched_analysis:
            return super().compressed_size_bits_batch(blocks)
        view = as_symbol_view(blocks, self.block_size_bytes, self.symbol_bytes)
        if not self.model.trained:
            return np.full(view.n_blocks, self.block_size_bits, dtype=np.int64)
        sizes = self.model.code_length_table().payload_bits(view.symbols)
        sizes += self.header_bits
        return np.minimum(sizes, self.block_size_bits)

    # ------------------------------------------------------------------ #
    # BlockCompressor interface

    def compress(self, block: bytes) -> CompressedBlock:
        self._check_block(block)
        if not self.model.trained:
            return store_uncompressed(self, block)
        symbols = block_to_symbols(block, self.symbol_bytes)
        writer = BitWriter()
        for symbol in symbols:
            self.model.encode_symbol(writer, symbol)
        payload_bits = writer.bit_length
        total_bits = payload_bits + self.header_bits
        if total_bits >= self.block_size_bits:
            return store_uncompressed(self, block)
        return CompressedBlock(
            algorithm=self.name,
            original_size_bits=self.block_size_bits,
            compressed_size_bits=total_bits,
            payload=(writer.getvalue(), payload_bits),
            metadata={"header_bits": self.header_bits, "payload_bits": payload_bits},
        )

    def decompress(self, compressed: CompressedBlock) -> bytes:
        if isinstance(compressed.payload, (bytes, bytearray)):
            return bytes(compressed.payload)
        data, payload_bits = compressed.payload
        reader = BitReader(data, bit_length=payload_bits)
        symbols = [
            self.model.decode_symbol(reader) for _ in range(self.symbols_per_block)
        ]
        return symbols_to_block(symbols, self.symbol_bytes)
