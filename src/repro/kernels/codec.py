"""Batched payload codec: Huffman bits and SLC truncation for whole regions.

The analysis kernels (:mod:`repro.kernels.lut`, :mod:`repro.kernels.decision`)
compute *sizes* without materializing a single payload bit; this module is
their counterpart for the moments a payload actually has to exist — storing a
block (the degraded bytes a later read returns), compressing it (the Huffman
bitstream) and decompressing it (symbols back out of the bitstream).  The
scalar path does all three one symbol at a time (`BitWriter`/`BitReader`
loops, per-symbol dict lookups, the Python list surgery of
:func:`repro.core.prediction.predict_truncated_symbols`); here each becomes
an array program over every block of a region at once:

* :class:`HuffmanCodecLUT` — the trained canonical Huffman code as dense
  per-symbol *codeword* and *length* tables (untabled symbols are
  escape-extended: ``(escape_codeword << symbol_bits) | symbol``), plus the
  canonical decode arrays: all codewords left-justified to the maximum code
  length, sorted ascending.  A prefix-free code's left-justified codewords
  are strictly increasing, so decoding one symbol is a ``searchsorted`` of
  the next ``max_length`` bits — whatever bits follow the codeword cannot
  push the value past the next left-justified codeword.
* :meth:`HuffmanCodecLUT.encode_rows` — bulk MSB-first bit packing: per-symbol
  codeword bits are exploded with prefix-sum offsets + ``np.repeat`` and
  reassembled per row with :func:`numpy.packbits`, bit-exact against
  ``BitWriter.getvalue()``.
* :meth:`HuffmanCodecLUT.decode_rows` — multi-symbol *fused* decode: a
  k-bit table (:class:`FusedDecodeTable`, built once per trained code) whose
  entries resolve as many whole symbols as fit in the next ``k`` window bits
  plus the bits they consume, so a 64-symbol block decodes in a handful of
  table probes instead of 64 lockstep rounds.  Rows whose next codeword (or
  escape + raw bits) does not fit the window — escape-heavy data, near-max
  code lengths — fall back to a vectorized single-symbol ``searchsorted``
  step for just that round.  :meth:`HuffmanCodecLUT.decode_rows_lockstep`
  keeps the original one-``searchsorted``-per-slot loop as the bit-exact
  oracle (identical symbols *and* identical error behavior).  The fused
  decoder hands it whole rows when a batch is escape-heavy and whole
  batches when the code is too long for the fused tables; both hand-offs
  are counted (``codec.decode_lockstep_rows``).
* :func:`reconstruct_rows` — the TSLC truncated-symbol reconstruction
  (zero fill for SIMP, the lane-aware nearest-kept-symbol predictor for
  PRED/OPT) as masked gathers, bit-exact against
  :func:`~repro.core.prediction.predict_truncated_symbols`.

The scalar implementations remain the n = 1 oracles; ``tests/test_codec.py``
and ``tests/test_golden_results.py`` enforce bit-exact equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.compression.base import CompressionError, DecompressionError
from repro.kernels.lut import MAX_LUT_SYMBOL_BYTES
from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (e2mc -> codec)
    from repro.compression.e2mc import SymbolModel

#: widest symbol for which the dense codeword table is sensible; the codec
#: tables are only coherent when they cover exactly the widths the
#: code-length LUT covers, so the bound is shared, not re-declared
MAX_CODEC_SYMBOL_BYTES = MAX_LUT_SYMBOL_BYTES

#: probe width of the fused multi-symbol decode table (2**k entries)
FUSE_BITS = 16

#: most symbols one fused-table entry resolves — highly compressible regions
#: (the common case: truncated floats are mostly zero symbols) reach 1-bit
#: codewords, so a 16-bit window can hold up to 16 of them
FUSE_MAX_SYMBOLS = 16

#: longest codeword the fused decoder handles: a peek of ``max_length`` bits
#: at any within-byte offset (≤ 7) must fit one gathered 64-bit window
FUSE_MAX_CODE_LENGTH = 56

#: zero bytes appended to each packed payload row so every fused-path peek
#: (k-bit window, max_length window, escape raw bits at position + length)
#: stays inside the matrix: the furthest read starts before
#: ``bit_length + max_length`` and spans 8 gathered bytes
_DECODE_PAD_BYTES = 16


@dataclass(frozen=True)
class FusedDecodeTable:
    """The k-bit multi-symbol decode table of one trained Huffman code.

    Entry ``w`` describes what canonical decoding does to a bitstream whose
    next ``k`` bits equal ``w``: the first :attr:`count` ``[w]`` symbols that
    resolve *entirely* inside those ``k`` bits (escapes count only when the
    escape codeword plus the raw symbol bits fit), their values in
    :attr:`symbols` ``[w, :count]``, and the cumulative bits consumed after
    each in :attr:`cum_bits` ``[w, :count]``.  ``count == 0`` marks windows
    whose first codeword does not fit — the decoder takes one vectorized
    single-symbol step there instead (the escape-heavy fallback), keyed by
    :attr:`first`: the decode-table index of the window's leading codeword
    whenever that codeword's own length fits the window (``-1`` when even
    identifying it needs more than ``k`` bits, the only case that still
    pays a ``searchsorted``).  ``count`` can be zero while ``first`` is
    valid — an escape codeword fitting the window whose raw symbol bits
    do not.

    Correctness rests on the same property as the ``searchsorted`` decode:
    a prefix-free code commits to a symbol after its ``length`` bits, so any
    symbol accepted with ``cum_bits <= k`` depends only on real window bits.
    """

    symbols: np.ndarray
    cum_bits: np.ndarray
    count: np.ndarray
    first: np.ndarray
    k: int


def _build_fused_table(lut: "HuffmanCodecLUT") -> FusedDecodeTable:
    """Construct the fused table by vectorized decoding of all 2**k windows."""
    k = FUSE_BITS
    size = 1 << k
    window = np.arange(size, dtype=np.uint64)
    consumed = np.zeros(size, dtype=np.int64)
    count = np.zeros(size, dtype=np.int64)
    symbols = np.zeros((size, FUSE_MAX_SYMBOLS), dtype=np.int64)
    cum_bits = np.zeros((size, FUSE_MAX_SYMBOLS), dtype=np.int64)
    active = np.ones(size, dtype=bool)
    max_length = lut.max_length
    symbol_bits = lut.symbol_bits
    raw_mask = np.uint64((1 << symbol_bits) - 1)
    for j in range(FUSE_MAX_SYMBOLS):
        rem = k - consumed
        remaining = window & (
            (np.uint64(1) << rem.astype(np.uint64)) - np.uint64(1)
        )
        # Left-justify the remaining window bits to max_length (zero-padded
        # when fewer than max_length remain — safe, because a symbol is only
        # accepted when its codeword lies inside the real bits).
        shift = rem - max_length
        value = (remaining >> np.maximum(shift, 0).astype(np.uint64)) << (
            np.maximum(-shift, 0).astype(np.uint64)
        )
        index = np.maximum(
            np.searchsorted(lut.dec_lj, value, side="right") - 1, 0
        )
        if j == 0:
            # The window's leading codeword is identified with certainty
            # whenever its own length fits the window — recorded even when
            # the symbol does not resolve (escape raw bits overflowing),
            # so the single-step fallback can skip its searchsorted.
            first = np.where(lut.dec_lengths[index] <= k, index, -1)
        symbol = lut.dec_symbols[index].copy()
        length = lut.dec_lengths[index].copy()
        escaped = symbol < 0
        needed = np.where(escaped, length + symbol_bits, length)
        ok = active & (needed <= rem)
        raw_rows = ok & escaped
        if raw_rows.any():
            raw_shift = (rem - needed)[raw_rows].astype(np.uint64)
            symbol[raw_rows] = (
                (remaining[raw_rows] >> raw_shift) & raw_mask
            ).astype(np.int64)
        symbols[ok, j] = symbol[ok]
        consumed[ok] += needed[ok]
        cum_bits[ok, j] = consumed[ok]
        count[ok] += 1
        active = ok
        if not active.any():
            break
    # Trim to the widest entry actually produced: production codes resolve
    # 2-4 symbols per window, so the tables shrink ~4-8x and the hot
    # per-probe gathers stay cache-resident.  Symbols fit int32 (<= 16-bit
    # raw values); count/cum_bits stay int64 so the probe arithmetic
    # (minimum with the remaining budget, position updates) needs no
    # per-probe casts.
    width = max(1, int(count.max()))
    symbols = np.ascontiguousarray(symbols[:, :width]).astype(np.int32)
    cum_bits = np.ascontiguousarray(cum_bits[:, :width])
    for table in (symbols, cum_bits, count, first):
        table.setflags(write=False)
    return FusedDecodeTable(
        symbols=symbols, cum_bits=cum_bits, count=count, first=first, k=k
    )


@dataclass(frozen=True)
class HuffmanCodecLUT:
    """A trained symbol model's full codec (encode + decode) as NumPy tables.

    Attributes:
        codewords: ``(2**symbol_bits,)`` uint64 array mapping raw symbol →
            emitted bit pattern.  Tabled symbols hold their Huffman codeword;
            untabled symbols hold the escape codeword followed by the raw
            symbol bits (``(escape << symbol_bits) | symbol``).
        lengths: ``(2**symbol_bits,)`` int64 array of the matching bit counts
            (same values as :class:`~repro.kernels.lut.CodeLengthLUT`).
        dec_lj: left-justified codewords (``codeword << (max_length - len)``)
            of every coded symbol including the escape, sorted ascending.
        dec_symbols: symbol decoded at each ``dec_lj`` entry;
            the escape marker is its natural negative sentinel
            (:data:`~repro.compression.e2mc.ESCAPE_SYMBOL`).
        dec_lengths: codeword length (escape raw bits *not* included) at each
            ``dec_lj`` entry.
        max_length: longest codeword length in bits.
        symbol_bits: raw symbol width in bits.
        trained: whether the tables came from a trained model; encode/decode
            raise on untrained tables, matching the scalar paths.
    """

    codewords: np.ndarray
    lengths: np.ndarray
    dec_lj: np.ndarray
    dec_symbols: np.ndarray
    dec_lengths: np.ndarray
    max_length: int
    symbol_bits: int
    trained: bool

    @classmethod
    def from_model(cls, model: "SymbolModel") -> "HuffmanCodecLUT":
        """Expand a :class:`~repro.compression.e2mc.SymbolModel` into tables.

        Raises :class:`ValueError` for symbol widths whose dense tables would
        not fit in memory; callers fall back to the scalar path in that case.
        """
        if model.symbol_bytes > MAX_CODEC_SYMBOL_BYTES:
            raise ValueError(
                f"cannot build a dense codec LUT for {model.symbol_bytes}-byte symbols"
            )
        symbol_bits = model.symbol_bits
        empty = np.zeros(0, dtype=np.int64)
        if not model.trained:
            return cls(
                codewords=np.zeros(0, dtype=np.uint64),
                lengths=empty,
                dec_lj=np.zeros(0, dtype=np.uint64),
                dec_symbols=empty,
                dec_lengths=empty,
                max_length=0,
                symbol_bits=symbol_bits,
                trained=False,
            )

        from repro.compression.e2mc import ESCAPE_SYMBOL

        size = 1 << symbol_bits
        escape_code, _ = model.code.encode(ESCAPE_SYMBOL)
        # Escape-extended defaults: escape codeword followed by the raw bits.
        codewords = (np.uint64(escape_code) << np.uint64(symbol_bits)) + np.arange(
            size, dtype=np.uint64
        )
        lengths = model.code_length_table().table.astype(np.int64)
        tabled = [(s, cw) for s, cw in model.code.codewords.items() if s >= 0]
        if tabled:
            symbols, codes = zip(*tabled)
            codewords[np.asarray(symbols, dtype=np.int64)] = np.asarray(
                codes, dtype=np.uint64
            )
        max_length = model.code.max_length()
        entries = sorted(
            (code << (max_length - model.code.lengths[symbol]), symbol)
            for symbol, code in model.code.codewords.items()
        )
        dec_lj = np.asarray([lj for lj, _ in entries], dtype=np.uint64)
        dec_symbols = np.asarray([s for _, s in entries], dtype=np.int64)
        dec_lengths = np.asarray(
            [model.code.lengths[s] for _, s in entries], dtype=np.int64
        )
        for table in (codewords, lengths, dec_lj, dec_symbols, dec_lengths):
            table.setflags(write=False)
        return cls(
            codewords=codewords,
            lengths=lengths,
            dec_lj=dec_lj,
            dec_symbols=dec_symbols,
            dec_lengths=dec_lengths,
            max_length=max_length,
            symbol_bits=symbol_bits,
            trained=True,
        )

    # ------------------------------------------------------------------ #
    # encode

    def encode_rows(
        self, symbols: np.ndarray, row_counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Huffman-encode many symbol rows into packed payload bytes at once.

        Args:
            symbols: flat concatenation of every row's symbols, in row order
                (rows may have different symbol counts — SLC's lossy rows
                keep fewer symbols than lossless ones).
            row_counts: ``(n_rows,)`` number of symbols per row.

        Returns:
            ``(packed, row_bits)`` where ``packed`` is an
            ``(n_rows, max_row_bytes)`` uint8 matrix and row ``i``'s payload
            is ``packed[i, :(row_bits[i] + 7) // 8].tobytes()`` — identical
            bytes and bit count to the scalar
            :meth:`~repro.compression.e2mc.SymbolModel.encode_symbol` loop
            plus ``BitWriter.getvalue()``.
        """
        if not self.trained:
            raise CompressionError("symbol model must be trained before encoding")
        row_counts = np.asarray(row_counts, dtype=np.int64)
        n_rows = row_counts.shape[0]
        flat = np.asarray(symbols).reshape(-1)
        if int(row_counts.sum()) != flat.size:
            raise ValueError(
                f"row_counts sum to {int(row_counts.sum())} symbols "
                f"but {flat.size} were given"
            )
        lens = self.lengths[flat]
        # Bit offset of every symbol (prefix sums across the flat stream).
        sym_start = np.zeros(flat.size + 1, dtype=np.int64)
        np.cumsum(lens, out=sym_start[1:])
        total_bits = int(sym_start[-1])
        row_sym_start = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(row_counts, out=row_sym_start[1:])
        row_bit_start = sym_start[row_sym_start[:-1]]
        row_bits = sym_start[row_sym_start[1:]] - row_bit_start
        if total_bits == 0:
            return np.zeros((n_rows, 0), dtype=np.uint8), row_bits

        # Explode codewords into individual bits, MSB first: bit k of a
        # symbol's emission is (codeword >> (length - 1 - k)) & 1.
        codes = self.codewords[flat]
        sym_of_bit = np.repeat(np.arange(flat.size, dtype=np.int64), lens)
        within = np.arange(total_bits, dtype=np.int64) - sym_start[sym_of_bit]
        shifts = (lens[sym_of_bit] - 1 - within).astype(np.uint64)
        bits = ((codes[sym_of_bit] >> shifts) & np.uint64(1)).astype(np.uint8)

        # Scatter the flat bit stream into per-row lanes and pack bytes.
        width = (int(row_bits.max()) + 7) // 8 * 8
        lanes = np.zeros((n_rows, width), dtype=np.uint8)
        row_of_bit = np.repeat(np.arange(n_rows, dtype=np.int64), row_bits)
        column = np.arange(total_bits, dtype=np.int64) - np.repeat(
            row_bit_start, row_bits
        )
        lanes[row_of_bit, column] = bits
        return np.packbits(lanes, axis=1), row_bits

    def payloads_from_rows(
        self, packed: np.ndarray, row_bits: np.ndarray
    ) -> list[tuple[bytes, int]]:
        """Slice :meth:`encode_rows` output into per-row ``(bytes, bits)``."""
        return [
            (packed[i, : (bits + 7) // 8].tobytes(), int(bits))
            for i, bits in enumerate(row_bits.tolist())
        ]

    # ------------------------------------------------------------------ #
    # decode

    def fused_supported(self) -> bool:
        """Whether the fused multi-symbol decoder covers this code."""
        return self.trained and 0 < self.max_length <= FUSE_MAX_CODE_LENGTH

    def fused_table(self) -> FusedDecodeTable:
        """The k-bit fused decode table (built once, cached on the LUT)."""
        if not self.fused_supported():
            raise ValueError("fused decode tables need a trained, bounded code")
        cached = getattr(self, "_fused_cache", None)
        if cached is None:
            cached = _build_fused_table(self)
            object.__setattr__(self, "_fused_cache", cached)
        return cached

    def decode_rows(
        self,
        payloads: list[bytes],
        bit_lengths: np.ndarray,
        symbol_counts: np.ndarray,
    ) -> np.ndarray:
        """Decode many Huffman payloads at once.

        Dispatches to the fused multi-symbol table decoder (a handful of
        k-bit probes per row instead of one ``searchsorted`` round per
        symbol slot).  Codes the fused tables cannot cover fall back to
        :meth:`decode_rows_lockstep`, which remains the bit-exact oracle —
        every path returns identical symbols and raises identically.  Rows
        handed to the lockstep decoder are counted under
        ``codec.decode_lockstep_rows`` while metrics are on.

        Args:
            payloads: per-row packed payload bytes (as produced by
                :meth:`encode_rows` / ``BitWriter.getvalue()``).
            bit_lengths: ``(n_rows,)`` meaningful bits per payload.
            symbol_counts: ``(n_rows,)`` symbols to decode per row.

        Returns:
            ``(n_rows, max(symbol_counts))`` int64 matrix; row ``i``'s first
            ``symbol_counts[i]`` entries are its decoded symbols (the rest
            are zero).

        Raises:
            DecompressionError: if the model is untrained or a codeword runs
                past the end of a payload (the scalar reader's ``EOFError``).
        """
        if self.fused_supported():
            return self._decode_rows_fused(payloads, bit_lengths, symbol_counts)
        decoded = self.decode_rows_lockstep(payloads, bit_lengths, symbol_counts)
        if metrics.enabled():
            metrics.inc("codec.decode_lockstep_rows", len(payloads))
        return decoded

    def _packed_rows(self, payloads: list[bytes], n_rows: int) -> np.ndarray:
        """Payload bytes as one zero-padded ``(n_rows, bytes)`` matrix."""
        lens = np.fromiter((len(p) for p in payloads), np.int64, n_rows)
        max_bytes = int(lens.max(initial=0))
        packed = np.zeros((n_rows, max_bytes + _DECODE_PAD_BYTES), dtype=np.uint8)
        total = int(lens.sum())
        if total:
            flat = np.frombuffer(b"".join(payloads), dtype=np.uint8)
            starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
            width = packed.shape[1]
            row_starts = np.arange(n_rows, dtype=np.int64) * width - starts
            index = np.arange(total, dtype=np.int64) + np.repeat(row_starts, lens)
            packed.reshape(-1)[index] = flat
        return packed

    @staticmethod
    def _peek_view(packed: np.ndarray) -> np.ndarray:
        """A byte-strided uint64 window view over the packed payload matrix.

        ``view[r, b]`` is the 8 bytes starting at byte ``b`` of row ``r`` as
        one (unaligned, overlapping) machine-order uint64 — one fancy gather
        plus a byteswap replaces an 8-byte gather-and-reduce per peek.
        """
        n_rows, width = packed.shape
        return np.ndarray(
            buffer=packed.data,
            dtype=np.uint64,
            shape=(n_rows, width - 7),
            strides=(packed.strides[0], 1),
        )

    @staticmethod
    def _peek_bits(
        view: np.ndarray, rows: np.ndarray, positions: np.ndarray, nbits: int
    ) -> np.ndarray:
        """Read ``nbits`` (≤ 56) MSB-first bits at per-row bit positions.

        ``view`` is the :meth:`_peek_view` of the packed matrix; the worst
        case (within-byte offset 7 + 56-bit peek) fits one uint64 window.
        """
        value = view[rows, positions >> 3].byteswap()
        offset = (positions & 7).astype(np.uint64)
        shift = np.uint64(64 - nbits) - offset
        return (value >> shift) & np.uint64((1 << nbits) - 1)

    def _decode_rows_fused(
        self,
        payloads: list[bytes],
        bit_lengths: np.ndarray,
        symbol_counts: np.ndarray,
    ) -> np.ndarray:
        """Multi-symbol fused decode (see :class:`FusedDecodeTable`).

        Per round, every unfinished row probes the k-bit table once and
        commits all the whole symbols its entry resolves; rows whose entry
        resolves none (long codeword / escape overflowing the window) take
        one vectorized ``searchsorted`` step instead — and when most of a
        batch gets stuck on the very first probe (escape-heavy data), those
        rows are handed to :meth:`decode_rows_lockstep` wholesale, which is
        faster than dragging them through fused rounds one symbol at a
        time.  Error behavior is the oracle's: a symbol is never committed
        if it would *start* at or past ``bit_length`` (``take`` is clamped
        so the next round's pre-check raises), and a final straddle check
        mirrors the oracle's end-of-stream check.
        """
        bit_lengths = np.asarray(bit_lengths, dtype=np.int64)
        symbol_counts = np.asarray(symbol_counts, dtype=np.int64)
        n_rows = len(payloads)
        data_bits = np.fromiter(
            (len(payload) * 8 for payload in payloads), np.int64, n_rows
        )
        if np.any(bit_lengths > data_bits):
            raise DecompressionError("bit_length exceeds the available payload bytes")
        max_count = int(symbol_counts.max(initial=0))
        out = np.zeros((n_rows, max_count), dtype=np.int64)
        if n_rows == 0 or max_count == 0:
            return out
        packed = self._packed_rows(payloads, n_rows)
        view = self._peek_view(packed)
        fused = self.fused_table()
        k = fused.k
        k_mask = np.uint64((1 << k) - 1)
        offsets = np.arange(fused.symbols.shape[1], dtype=np.int64)
        out_flat = out.reshape(-1)
        position = np.zeros(n_rows, dtype=np.int64)
        done = np.zeros(n_rows, dtype=np.int64)
        # An escape's raw bits can be read from the step's gathered word
        # only while escape-code + raw bits fit past the worst byte offset.
        raw_in_word = 7 + self.max_length + self.symbol_bits <= 64
        max_len_mask = np.uint64((1 << self.max_length) - 1)
        raw_mask = np.uint64((1 << self.symbol_bits) - 1)

        def single_step(s_rows: np.ndarray, p: np.ndarray) -> None:
            """Decode exactly one symbol per row at bit positions ``p`` —
            the only way past an escape or a codeword longer than the
            window.  One word gather + one searchsorted, vectorized."""
            word = view[s_rows, p >> 3].byteswap()
            off = p & 7
            w16 = (word >> (np.uint64(64 - k) - off.astype(np.uint64))) & k_mask
            index = fused.first[w16]
            miss = index < 0
            if miss.any():
                # Leading codeword longer than the window — the rare case
                # that still needs the full left-justified searchsorted.
                values = (
                    word[miss]
                    >> (
                        np.uint64(64 - self.max_length)
                        - off[miss].astype(np.uint64)
                    )
                ) & max_len_mask
                index[miss] = (
                    np.searchsorted(self.dec_lj, values, side="right") - 1
                )
            symbol = self.dec_symbols[index]
            length = self.dec_lengths[index]
            escaped = symbol < 0
            if escaped.any():
                symbol = symbol.copy()
                length = length.copy()
                if raw_in_word:
                    raw = (
                        word[escaped]
                        >> (
                            np.uint64(64 - self.symbol_bits)
                            - (off[escaped] + length[escaped]).astype(np.uint64)
                        )
                    ) & raw_mask
                else:
                    raw = self._peek_bits(
                        view,
                        s_rows[escaped],
                        p[escaped] + length[escaped],
                        self.symbol_bits,
                    )
                symbol[escaped] = raw.astype(np.int64)
                length[escaped] += self.symbol_bits
            out[s_rows, done[s_rows]] = symbol
            position[s_rows] = p + length
            done[s_rows] += 1

        first_round = True
        while True:
            active = np.nonzero(done < symbol_counts)[0]
            if not active.size:
                break
            rows = active
            pos = position[rows]
            bl_r = bit_lengths[rows]
            if np.any(pos >= bl_r):
                raise DecompressionError("codeword ran past the end of the bitstream")
            # One payload gather per round: 64 bits starting at the byte
            # containing `pos`.  After the in-byte offset (<= 7) that word
            # holds >= 57 stream bits — enough to chain three k-bit probes
            # (two earlier probes consume <= 2k = 32 bits) without touching
            # payload memory again.
            word = view[rows, pos >> 3].byteswap()
            budget = symbol_counts[rows] - done[rows]
            base = done[rows]
            left = budget.copy()
            rowbase = rows * max_count + base
            # The output cursor (absolute flat index of each row's next
            # symbol slot) and the window shift are the only per-probe
            # state; bits consumed and symbols resolved fall out of them
            # after the chain (`shift0 - shift`, `cursor - rowbase`).
            cursor = rowbase.copy()
            shift0 = np.uint64(64 - k) - (pos & 7).astype(np.uint64)
            shift = shift0.copy()
            # End-of-stream bookkeeping (overrun zeroing, near-end take
            # clamp) can only trigger within 3k consumed bits of a row's
            # bit_length — skip it wholesale for rounds that never get
            # close, which is every round but a row's last.
            checked = bool((bl_r - pos).min() <= 4 * k)
            for _ in range(3):
                window = (word >> shift) & k_mask
                take = np.minimum(fused.count[window], left)
                if checked:
                    pos_cur = pos + (shift0 - shift).astype(np.int64)
                    take[pos_cur >= bl_r] = 0
                    # A symbol must never start at/past bit_length (the
                    # oracle raises there); cum_bits <= k, so only rows
                    # within k bits of the end can overrun — clamping
                    # their take makes the next round's pre-check raise
                    # identically.
                    rem = bl_r - pos_cur
                    near = (take > 1) & (rem <= k)
                    if near.any():
                        cum = fused.cum_bits[window[near]]
                        starts_ok = (
                            offsets[None, :-1] < (take[near] - 1)[:, None]
                        ) & (cum[:, :-1] < rem[near][:, None])
                        take[near] = 1 + starts_ok.sum(axis=1)
                t_max = int(take.max(initial=0))
                if t_max == 0:
                    break
                good = np.nonzero(take > 0)[0]
                t = take[good]
                w = window[good]
                dest = cursor[good]
                if t_max <= 4:
                    # Few symbols per window (the typical mid-entropy
                    # case): scatter column by column on shrinking row
                    # subsets — cheaper than materializing the 2D mask.
                    out_flat[dest] = fused.symbols[w, 0]
                    for j in range(1, t_max):
                        more = np.nonzero(t > j)[0]
                        out_flat[dest[more] + j] = fused.symbols[w[more], j]
                else:
                    valid = offsets[None, :t_max] < t[:, None]
                    flat = dest[:, None] + offsets[None, :t_max]
                    out_flat[flat[valid]] = fused.symbols[w, :t_max][valid]
                cursor[good] = dest + t
                left[good] -= t
                shift[good] -= fused.cum_bits[w, t - 1].astype(np.uint64)
                # Chain on only while most rows still resolve symbols —
                # every probe costs full-width vector ops, so once the
                # productive set is a minority the next round (which
                # compacts `rows`) is cheaper than another probe here.
                if good.size * 2 < rows.size:
                    break
            consumed = (shift0 - shift).astype(np.int64)
            total = cursor - rowbase
            position[rows] = pos + consumed
            done[rows] = base + total
            # Rows genuinely stuck — their current window resolves nothing
            # (`take == 0` survives every probe once a window's count is
            # zero: an escape or long codeword blocks it) — advance one
            # symbol so the next round's chain resumes right behind it.
            # Rows that merely ran out of probes keep their cheap fused
            # path next round.
            pos_cur = pos + consumed
            blocked = np.nonzero((take == 0) & (left > 0) & (pos_cur < bl_r))[0]
            if blocked.size:
                if first_round:
                    zero = blocked[total[blocked] == 0]
                    if zero.size * 4 >= rows.size:
                        # Escape-heavy batch: the oracle's one-searchsorted-
                        # per-slot loop beats fused rounds that resolve one
                        # symbol each.
                        s_rows = rows[zero]
                        decoded = self.decode_rows_lockstep(
                            [payloads[i] for i in s_rows.tolist()],
                            bit_lengths[s_rows],
                            symbol_counts[s_rows],
                        )
                        if metrics.enabled():
                            metrics.inc("codec.decode_lockstep_rows", s_rows.size)
                        out[s_rows, : decoded.shape[1]] = decoded
                        position[s_rows] = bit_lengths[s_rows]
                        done[s_rows] = symbol_counts[s_rows]
                        blocked = blocked[total[blocked] > 0]
                if blocked.size:
                    s_rows = rows[blocked]
                    single_step(s_rows, pos_cur[blocked])
                    # Escape runs (JM) block the same rows round after
                    # round; a second step here halves their round count
                    # for one extra pass over an already-small subset.
                    for _ in range(2):
                        s_rows = s_rows[
                            (done[s_rows] < symbol_counts[s_rows])
                            & (position[s_rows] < bit_lengths[s_rows])
                        ]
                        if not s_rows.size:
                            break
                        single_step(s_rows, position[s_rows])
            first_round = False
        if np.any(position > bit_lengths):
            raise DecompressionError("codeword ran past the end of the bitstream")
        return out

    def decode_rows_lockstep(
        self,
        payloads: list[bytes],
        bit_lengths: np.ndarray,
        symbol_counts: np.ndarray,
    ) -> np.ndarray:
        """Decode many Huffman payloads in lockstep — the bit-exact oracle.

        One Python iteration per symbol *slot* with one ``searchsorted``
        across all unfinished rows per iteration; :meth:`decode_rows` (the
        fused decoder) is pinned to this path symbol-for-symbol and
        error-for-error by the codec test suite.  Same arguments, returns
        and raises as :meth:`decode_rows`.
        """
        if not self.trained:
            raise DecompressionError("symbol model must be trained before decoding")
        bit_lengths = np.asarray(bit_lengths, dtype=np.int64)
        symbol_counts = np.asarray(symbol_counts, dtype=np.int64)
        n_rows = len(payloads)
        data_bits = np.fromiter(
            (len(payload) * 8 for payload in payloads), np.int64, n_rows
        )
        if np.any(bit_lengths > data_bits):
            raise DecompressionError("bit_length exceeds the available payload bytes")
        max_count = int(symbol_counts.max(initial=0))
        out = np.zeros((n_rows, max_count), dtype=np.int64)
        if n_rows == 0 or max_count == 0:
            return out

        # All payload bits as one (n_rows, bits) matrix, zero-padded on the
        # right so a peek window never leaves the matrix.  The padding can
        # never change a decode: the searchsorted below only commits to the
        # leading `length` bits of a window, and those always lie inside the
        # payload for well-formed streams (enforced by the final check).
        max_bytes = max(len(payload) for payload in payloads)
        packed = np.zeros((n_rows, max_bytes), dtype=np.uint8)
        for i, payload in enumerate(payloads):
            if payload:
                packed[i, : len(payload)] = np.frombuffer(payload, dtype=np.uint8)
        pad = self.max_length + self.symbol_bits
        bits = np.zeros((n_rows, max_bytes * 8 + pad), dtype=np.uint8)
        bits[:, : max_bytes * 8] = np.unpackbits(packed, axis=1)

        peek_weights = (
            1 << np.arange(self.max_length - 1, -1, -1, dtype=np.int64)
        ).astype(np.uint64)
        raw_weights = 1 << np.arange(self.symbol_bits - 1, -1, -1, dtype=np.int64)
        peek_offsets = np.arange(self.max_length, dtype=np.int64)
        raw_offsets = np.arange(self.symbol_bits, dtype=np.int64)

        position = np.zeros(n_rows, dtype=np.int64)
        for slot in range(max_count):
            active = np.nonzero(symbol_counts > slot)[0]
            if not active.size:
                break
            pos = position[active]
            # Every pending symbol needs at least one more payload bit; this
            # also keeps every peek inside the padded bit matrix (positions
            # never exceed data_bits, so windows stay within `pad`).
            if np.any(pos >= bit_lengths[active]):
                raise DecompressionError("codeword ran past the end of the bitstream")
            window = bits[active[:, None], pos[:, None] + peek_offsets]
            values = (window.astype(np.uint64) * peek_weights).sum(axis=1)
            index = np.searchsorted(self.dec_lj, values, side="right") - 1
            symbol = self.dec_symbols[index].copy()
            length = self.dec_lengths[index].copy()
            escaped = symbol < 0
            if escaped.any():
                rows = active[escaped]
                raw_pos = pos[escaped] + length[escaped]
                raw = bits[rows[:, None], raw_pos[:, None] + raw_offsets]
                symbol[escaped] = (raw.astype(np.int64) * raw_weights).sum(axis=1)
                length[escaped] += self.symbol_bits
            out[active, slot] = symbol
            position[active] = pos + length

        if np.any(position > bit_lengths):
            raise DecompressionError("codeword ran past the end of the bitstream")
        return out


def reconstruct_rows(
    symbols: np.ndarray,
    approx_start: np.ndarray,
    approx_count: np.ndarray,
    *,
    use_prediction: bool,
    element_symbols: int,
) -> np.ndarray:
    """Fill every row's truncated symbol range, vectorized over rows.

    Bit-exact against
    :func:`~repro.core.prediction.predict_truncated_symbols`: TSLC-SIMP
    (``use_prediction=False``) zero-fills; TSLC-PRED/OPT predict each
    truncated symbol from the nearest preceding kept symbol at the same
    within-element lane, then the nearest following one, then any kept
    neighbour (zero only when the whole row was truncated).

    Args:
        symbols: ``(n_rows, n_symbols)`` matrix whose entries *outside* each
            row's truncated range hold the kept symbol values (entries inside
            the range are ignored and overwritten).
        approx_start: ``(n_rows,)`` first truncated symbol per row.
        approx_count: ``(n_rows,)`` truncated symbols per row (may be 0).
        use_prediction: ``True`` for TSLC-PRED/OPT, ``False`` for TSLC-SIMP.
        element_symbols: symbols per data element (the predictor's lane
            stride).

    Returns:
        A new matrix of the same shape and dtype with the ranges filled.
    """
    if element_symbols <= 0:
        raise ValueError("element_symbols must be positive")
    sym = np.asarray(symbols)
    n_rows, n_symbols = sym.shape
    start = np.asarray(approx_start, dtype=np.int64)
    count = np.asarray(approx_count, dtype=np.int64)
    if np.any(count < 0) or np.any(start < 0):
        raise ValueError("approximation range must be non-negative")
    if np.any(start + count > n_symbols):
        raise ValueError("approximated range exceeds the block")
    out = sym.copy()
    max_count = int(count.max(initial=0))
    if n_rows == 0 or max_count == 0:
        return out

    offsets = np.arange(max_count, dtype=np.int64)
    valid = offsets[None, :] < count[:, None]
    target = np.where(valid, start[:, None] + offsets[None, :], 0)
    if use_prediction:
        end = (start + count)[:, None]
        lane = target % element_symbols
        # Mirrors predictor_symbol_index: the first preceding candidate at
        # the same lane is start - element_symbols + lane (< start always),
        # the first following one is end + lane (>= end always); then fall
        # back to any kept neighbour, and to zero when nothing was kept.
        before = start[:, None] - element_symbols + lane
        after = end + lane
        predictor = np.where(
            before >= 0,
            before,
            np.where(
                after < n_symbols,
                after,
                np.where(
                    start[:, None] > 0,
                    start[:, None] - 1,
                    np.where(end < n_symbols, end, -1),
                ),
            ),
        )
        gathered = np.take_along_axis(out, np.clip(predictor, 0, n_symbols - 1), axis=1)
        fill = np.where(predictor >= 0, gathered, 0).astype(out.dtype)
    else:
        fill = np.zeros(target.shape, dtype=out.dtype)

    rows = np.broadcast_to(np.arange(n_rows)[:, None], target.shape)
    out[rows[valid], target[valid]] = fill[valid]
    return out
