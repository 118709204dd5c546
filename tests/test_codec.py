"""Property tests for the batched payload codec (:mod:`repro.kernels.codec`).

Every batched entry point is pinned to its scalar n = 1 oracle on randomized
regions — including all-zero blocks, all-same-symbol blocks, blocks that pick
up maximum-length codewords / escapes, and non-approximable regions — across
all three TSLC variants and MAG ∈ {16, 32, 64}:

* ``decompress(compress(b))`` equals the scalar ``roundtrip`` oracle,
* ``compress_batch == [compress]`` (payload bytes, metadata and all),
* ``apply_decision_batch == [apply_decision]`` for analyzer-produced *and*
  synthetic decisions,
* bulk Huffman encode → decode is the identity and matches the scalar
  ``BitWriter``/``BitReader`` bitstreams exactly.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.base import CompressionError, DecompressionError
from repro.compression.e2mc import ESCAPE_SYMBOL, E2MCCompressor, SymbolModel
from repro.core.config import SLCConfig, SLCMode, SLCVariant
from repro.core.slc import SLCBlock, SLCCompressor, SLCDecision
from repro.gpu.backends import SLCBackend
from repro.kernels.codec import HuffmanCodecLUT, reconstruct_rows
from repro.kernels.symbols import BatchSymbolView
from repro.obs import metrics
from repro.utils.bitstream import BitReader, BitWriter
from repro.utils.blocks import block_to_symbols, symbols_to_block

from tests.conftest import make_float_blocks, make_mixed_blocks

BLOCK = 128
SPB = 64

ALL_VARIANTS = (SLCVariant.SIMP, SLCVariant.PRED, SLCVariant.OPT)
ALL_MAGS = (16, 32, 64)


@functools.lru_cache(maxsize=None)
def trained_slc(variant: SLCVariant, mag: int) -> SLCCompressor:
    slc = SLCCompressor(
        SLCConfig(variant=variant, mag_bytes=mag, lossy_threshold_bytes=mag // 2)
    )
    slc.train(make_float_blocks() + make_mixed_blocks())
    return slc


# --------------------------------------------------------------------- #
# block strategies

#: a small alphabet makes low-entropy (compressible, often lossy) blocks
_small_symbols = st.integers(min_value=0, max_value=7).map(lambda s: s * 257)

block_strategy = st.one_of(
    st.just(bytes(BLOCK)),  # all-zero
    st.integers(min_value=0, max_value=0xFFFF).map(  # all-same-symbol
        lambda s: symbols_to_block([s] * SPB)
    ),
    st.lists(_small_symbols, min_size=SPB, max_size=SPB).map(symbols_to_block),
    st.binary(min_size=BLOCK, max_size=BLOCK),  # incompressible / escapes
)

blocks_strategy = st.lists(block_strategy, min_size=1, max_size=12)


# --------------------------------------------------------------------- #
# SLC batched codec vs. scalar oracles


@settings(max_examples=30, deadline=None)
@given(blocks=blocks_strategy, data=st.data())
def test_compress_batch_matches_scalar(blocks, data):
    variant = data.draw(st.sampled_from(ALL_VARIANTS))
    mag = data.draw(st.sampled_from(ALL_MAGS))
    approximable = data.draw(st.booleans())
    slc = trained_slc(variant, mag)
    scalar = [slc.compress(b, approximable=approximable) for b in blocks]
    batch = slc.compress_batch(blocks, approximable=approximable)
    assert batch == scalar


@settings(max_examples=30, deadline=None)
@given(blocks=blocks_strategy, data=st.data())
def test_roundtrip_batch_matches_scalar_oracle(blocks, data):
    variant = data.draw(st.sampled_from(ALL_VARIANTS))
    mag = data.draw(st.sampled_from(ALL_MAGS))
    slc = trained_slc(variant, mag)
    compressed = slc.compress_batch(blocks)
    assert slc.decompress_batch(compressed) == [slc.roundtrip(b) for b in blocks]
    # scalar decompress agrees with batched decompress on the same payloads
    assert [slc.decompress(c) for c in compressed] == slc.decompress_batch(compressed)


@settings(max_examples=30, deadline=None)
@given(blocks=blocks_strategy, data=st.data())
def test_apply_decision_batch_matches_scalar(blocks, data):
    variant = data.draw(st.sampled_from(ALL_VARIANTS))
    mag = data.draw(st.sampled_from(ALL_MAGS))
    slc = trained_slc(variant, mag)
    decisions = [slc.analyze(b) for b in blocks]
    scalar = [slc.apply_decision(b, d) for b, d in zip(blocks, decisions)]
    assert slc.apply_decision_batch(blocks, decisions) == scalar
    # the arrays form feeds the same truncation/prediction kernel
    arrays = slc.analyze_batch_arrays(blocks)
    assert slc.apply_decision_batch(blocks, arrays) == scalar


@settings(max_examples=60, deadline=None)
@given(
    block=block_strategy,
    start=st.integers(min_value=0, max_value=SPB - 1),
    count=st.integers(min_value=1, max_value=SPB),
    data=st.data(),
)
def test_apply_decision_batch_synthetic_ranges(block, start, count, data):
    """Synthetic lossy decisions cover every (start, count) geometry,
    including ranges the analyzer would never produce (whole-block
    truncation, ranges past the max-approx cap)."""
    variant = data.draw(st.sampled_from(ALL_VARIANTS))
    count = min(count, SPB - start)
    slc = trained_slc(variant, 32)
    decision = SLCDecision(
        mode=SLCMode.LOSSY,
        comp_size_bits=0,
        stored_size_bits=0,
        bit_budget_bits=0,
        extra_bits=0,
        bursts=1,
        approx_start=start,
        approx_count=count,
    )
    scalar = slc.apply_decision(block, decision)
    assert slc.apply_decision_batch([block], [decision]) == [scalar]


def test_apply_decision_batch_length_mismatch():
    slc = trained_slc(SLCVariant.OPT, 32)
    with pytest.raises(CompressionError):
        slc.apply_decision_batch([bytes(BLOCK)], [])


def test_batch_codec_empty_region():
    slc = trained_slc(SLCVariant.OPT, 32)
    assert slc.compress_batch([]) == []
    assert slc.decompress_batch([]) == []
    assert slc.apply_decision_batch([], []) == []


def test_decompress_batch_whole_block_truncated():
    """A payload whose every symbol was truncated (nothing kept) must match
    the scalar oracle instead of crashing on the empty kept-symbol gather."""
    slc = trained_slc(SLCVariant.OPT, 32)
    block = SLCBlock(
        algorithm=slc.name,
        original_size_bits=slc.config.block_size_bits,
        compressed_size_bits=0,
        payload=(b"", 0, 0, SPB),
        lossless=False,
        mode=SLCMode.LOSSY,
        variant=slc.config.variant,
        approx_start=0,
        approx_count=SPB,
        mag_bytes=32,
    )
    scalar = slc.decompress(block)
    assert slc.decompress_batch([block]) == [scalar]
    assert scalar == bytes(BLOCK)


def test_untrained_slc_stores_raw():
    slc = SLCCompressor(SLCConfig())
    blocks = make_mixed_blocks()[:8]
    batch = slc.compress_batch(blocks)
    assert batch == [slc.compress(b) for b in blocks]
    assert all(c.mode is SLCMode.UNCOMPRESSED for c in batch)
    assert slc.decompress_batch(batch) == [bytes(b) for b in blocks]


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("mag", ALL_MAGS)
def test_full_grid_on_fixed_corpus(variant, mag):
    """Deterministic sweep of every MAG × variant over the shared corpus."""
    blocks = make_float_blocks() + make_mixed_blocks()
    slc = trained_slc(variant, mag)
    compressed = slc.compress_batch(blocks)
    assert compressed == [slc.compress(b) for b in blocks]
    assert slc.decompress_batch(compressed) == [slc.roundtrip(b) for b in blocks]
    decisions = slc.analyze_batch(blocks)
    assert slc.apply_decision_batch(blocks, decisions) == [
        slc.apply_decision(b, d) for b, d in zip(blocks, decisions)
    ]
    # the sweep is only meaningful if it exercises the lossy path
    assert any(c.mode is SLCMode.LOSSY for c in compressed)


def test_store_batch_matches_scalar_store_counters():
    """SLCBackend batched stores equal per-block stores, counters included."""
    blocks = make_float_blocks() + make_mixed_blocks()
    config = SLCConfig(variant=SLCVariant.OPT)
    scalar_backend = SLCBackend(SLCCompressor(config))
    batch_backend = SLCBackend(SLCCompressor(config))
    oracle_backend = SLCBackend(SLCCompressor(config), batch_codec=False)
    for backend in (scalar_backend, batch_backend, oracle_backend):
        backend.train(blocks)
    scalar = [scalar_backend.store(b) for b in blocks]
    assert batch_backend.store_batch(blocks) == scalar
    assert oracle_backend.store_batch(blocks) == scalar
    for backend in (batch_backend, oracle_backend):
        assert backend.total_blocks == scalar_backend.total_blocks
        assert backend.lossy_blocks == scalar_backend.lossy_blocks
        assert backend.total_overshoot_bits == scalar_backend.total_overshoot_bits
    assert scalar_backend.lossy_blocks > 0


# --------------------------------------------------------------------- #
# E2MC batched codec vs. scalar oracles


@settings(max_examples=30, deadline=None)
@given(blocks=blocks_strategy)
def test_e2mc_batch_matches_scalar(blocks):
    compressor = E2MCCompressor()
    compressor.train(make_float_blocks() + make_mixed_blocks())
    compressed = compressor.compress_batch(blocks)
    assert compressed == [compressor.compress(b) for b in blocks]
    decompressed = compressor.decompress_batch(compressed)
    assert decompressed == [compressor.decompress(c) for c in compressed]
    # E2MC is lossless: the roundtrip is the identity
    assert decompressed == [bytes(b) for b in blocks]


def test_e2mc_untrained_batch_stores_raw():
    compressor = E2MCCompressor()
    blocks = make_mixed_blocks()[:6]
    batch = compressor.compress_batch(blocks)
    assert batch == [compressor.compress(b) for b in blocks]
    assert all(c.metadata.get("uncompressed") for c in batch)


def test_e2mc_batch_view_input():
    compressor = E2MCCompressor()
    blocks = make_float_blocks()
    compressor.train(blocks)
    view = BatchSymbolView.from_blocks(blocks)
    assert compressor.compress_batch(view) == [compressor.compress(b) for b in blocks]


# --------------------------------------------------------------------- #
# HuffmanCodecLUT: bulk bitstreams vs. BitWriter/BitReader


def skewed_model(max_code_length: int = 8) -> SymbolModel:
    """A model whose code hits the length cap (max-length codewords) and
    leaves most of the 16-bit symbol space untabled (escape coverage)."""
    model = SymbolModel(max_table_entries=64, max_code_length=max_code_length)
    counts = {symbol: 1 << min(symbol, 24) for symbol in range(40)}
    model.fit_counts(counts)
    assert model.code.max_length() == max_code_length
    return model


def scalar_bitstream(model: SymbolModel, symbols: list[int]) -> tuple[bytes, int]:
    writer = BitWriter()
    for symbol in symbols:
        model.encode_symbol(writer, symbol)
    return writer.getvalue(), writer.bit_length


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=0, max_size=24),
        min_size=1,
        max_size=8,
    )
)
def test_codec_lut_encode_matches_bitwriter(rows):
    model = skewed_model()
    lut = model.codec_table()
    flat = np.asarray([s for row in rows for s in row], dtype=np.uint16)
    counts = np.asarray([len(row) for row in rows], dtype=np.int64)
    packed, row_bits = lut.encode_rows(flat, counts)
    payloads = lut.payloads_from_rows(packed, row_bits)
    for row, (data, bits) in zip(rows, payloads):
        assert (data, bits) == scalar_bitstream(model, row)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=0, max_size=24),
        min_size=1,
        max_size=8,
    )
)
def test_codec_lut_decode_identity(rows):
    model = skewed_model()
    lut = model.codec_table()
    flat = np.asarray([s for row in rows for s in row], dtype=np.uint16)
    counts = np.asarray([len(row) for row in rows], dtype=np.int64)
    packed, row_bits = lut.encode_rows(flat, counts)
    payloads = [data for data, _ in lut.payloads_from_rows(packed, row_bits)]
    decoded = lut.decode_rows(payloads, row_bits, counts)
    for index, row in enumerate(rows):
        assert decoded[index, : len(row)].tolist() == row
        # and the scalar reader agrees symbol by symbol
        reader = BitReader(payloads[index], bit_length=int(row_bits[index]))
        assert [model.decode_symbol(reader) for _ in row] == row


def test_codec_lut_max_length_codeword_is_exercised():
    """The skewed model's rarest tabled symbol carries a max-length codeword;
    encoding it and an untabled symbol round-trips through escape handling."""
    model = skewed_model()
    lut = model.codec_table()
    rarest = min(
        (s for s in model.code.lengths if s >= 0),
        key=lambda s: (-model.code.lengths[s], s),
    )
    assert model.code.lengths[rarest] == model.code.max_length()
    symbols = [rarest, 0xBEEF, rarest, ESCAPE_SYMBOL & 0xFFFF]
    packed, row_bits = lut.encode_rows(
        np.asarray(symbols, dtype=np.int64), np.asarray([len(symbols)])
    )
    [(data, bits)] = lut.payloads_from_rows(packed, row_bits)
    assert (data, bits) == scalar_bitstream(model, symbols)
    decoded = lut.decode_rows([data], row_bits, np.asarray([len(symbols)]))
    assert decoded[0].tolist() == symbols


# --------------------------------------------------------------------- #
# fused multi-symbol decode vs. the searchsorted lockstep oracle


def dominant_model() -> SymbolModel:
    """A model with a 1-bit dominant codeword, so one 16-bit fused probe
    emits many symbols at once (the table's multi-symbol fast path)."""
    model = SymbolModel(max_table_entries=8, max_code_length=8)
    model.fit_counts({0: 1 << 30, 1: 8, 2: 4, 3: 2, 4: 1})
    assert model.code.lengths[0] == 1
    return model


def _roundtrip_pair(model: SymbolModel, rows: list[list[int]]) -> None:
    """Encode ``rows`` and assert the fused decoder and the lockstep
    searchsorted oracle return identical symbol matrices."""
    lut = model.codec_table()
    assert lut.fused_supported()
    flat = np.asarray([s for row in rows for s in row], dtype=np.int64)
    counts = np.asarray([len(row) for row in rows], dtype=np.int64)
    packed, row_bits = lut.encode_rows(flat, counts)
    payloads = [data for data, _ in lut.payloads_from_rows(packed, row_bits)]
    fused = lut._decode_rows_fused(payloads, row_bits, counts)
    oracle = lut.decode_rows_lockstep(payloads, row_bits, counts)
    assert np.array_equal(fused, oracle)
    for index, row in enumerate(rows):
        assert fused[index, : len(row)].tolist() == row


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=0, max_size=48),
        min_size=1,
        max_size=12,
    )
)
def test_fused_decode_matches_oracle_on_skewed_code(rows):
    """Arbitrary 16-bit symbols through the capped skewed code: max-length
    codewords and escape emissions, fused vs. searchsorted bit-exact."""
    _roundtrip_pair(skewed_model(), rows)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(
            st.integers(min_value=0x100, max_value=0xFFFF),  # all untabled
            min_size=1,
            max_size=16,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_fused_decode_matches_oracle_escape_heavy(rows):
    """Rows made entirely of escapes exercise the fused decoder's
    blocked-row path (escape emissions are longer than the probe width)."""
    _roundtrip_pair(skewed_model(), rows)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(
            st.integers(min_value=0, max_value=4).flatmap(
                lambda s: st.just(s) if s else st.just(0)
            ),
            min_size=1,
            max_size=64,
        ),
        min_size=1,
        max_size=8,
    ),
    data=st.data(),
)
def test_fused_decode_matches_oracle_dominant_runs(rows, data):
    """Long runs of a 1-bit dominant symbol pack up to 16 symbols into one
    fused probe — the widest multi-symbol commit the tables support."""
    # splice occasional rare symbols / escapes into the runs
    spiced = []
    for row in rows:
        row = list(row)
        if row and data.draw(st.booleans()):
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(
                st.sampled_from([1, 2, 3, 4, 0xBEEF])
            )
        spiced.append(row)
    _roundtrip_pair(dominant_model(), spiced)


@pytest.mark.parametrize("n_rows", [1, 3, 300])
def test_fused_decode_matches_oracle_uniform_runs(n_rows):
    """A large all-dominant batch takes the column-loop commit path
    (every row advances 16 symbols per probe)."""
    rows = [[0] * 64 for _ in range(n_rows)]
    rows[-1] = [0] * 7 + [0xBEEF] + [0] * 21
    _roundtrip_pair(dominant_model(), rows)


# --------------------------------------------------------------------- #
# hand-offs from the fused decoder to the lockstep decoder are counted


@pytest.fixture
def metrics_on():
    """Metric collection on, from an empty registry, for one test."""
    metrics.clear()
    metrics.enable()
    yield
    metrics.disable()
    metrics.clear()


def _encoded(lut: HuffmanCodecLUT, rows: list[list[int]]):
    """``decode_rows`` arguments for ``rows`` encoded with ``lut``."""
    flat = np.asarray([s for row in rows for s in row], dtype=np.int64)
    counts = np.asarray([len(row) for row in rows], dtype=np.int64)
    packed, row_bits = lut.encode_rows(flat, counts)
    payloads = [data for data, _ in lut.payloads_from_rows(packed, row_bits)]
    return payloads, row_bits, counts


def _lockstep_rows() -> int:
    return metrics.snapshot()["counters"].get("codec.decode_lockstep_rows", 0)


def test_decode_counts_escape_heavy_rows_handed_to_lockstep(metrics_on):
    """Every row of an all-escape batch stalls on the first fused probe, so
    the whole batch goes to the lockstep decoder and each row is counted;
    an all-tabled batch decodes fused and counts none."""
    lut = skewed_model().codec_table()
    escapes = [[0x1000 + r] * 6 for r in range(5)]
    assert lut.decode_rows(*_encoded(lut, escapes)).tolist() == escapes
    assert _lockstep_rows() == len(escapes)

    metrics.clear()
    tabled = [[(r + i) % 40 for i in range(12)] for r in range(5)]
    assert lut.decode_rows(*_encoded(lut, tabled)).tolist() == tabled
    assert _lockstep_rows() == 0


def test_decode_counts_codes_too_long_for_fused_tables(metrics_on):
    """A code longer than the fused tables cover sends the whole batch to
    the lockstep decoder, every row counted."""
    counts = [1, 2]
    while len(counts) < 60:  # Fibonacci counts: one codeword per length
        counts.append(counts[-1] + counts[-2])
    model = SymbolModel(max_table_entries=64, max_code_length=64)
    model.fit_counts(dict(enumerate(counts)))
    lut = model.codec_table()
    assert not lut.fused_supported()
    rows = [[59, 58, 0, 1], [57, 56, 55]]
    decoded = lut.decode_rows(*_encoded(lut, rows))
    assert [decoded[i, : len(row)].tolist() for i, row in enumerate(rows)] == rows
    assert _lockstep_rows() == len(rows)


def test_codec_lut_untrained_raises():
    lut = HuffmanCodecLUT.from_model(SymbolModel())
    with pytest.raises(CompressionError):
        lut.encode_rows(np.zeros(1, dtype=np.int64), np.asarray([1]))
    with pytest.raises(DecompressionError):
        lut.decode_rows([b"\x00"], np.asarray([8]), np.asarray([1]))


def test_codec_lut_truncated_stream_raises():
    model = skewed_model()
    lut = model.codec_table()
    symbols = [0xBEEF] * 4  # escapes: long emissions
    packed, row_bits = lut.encode_rows(
        np.asarray(symbols, dtype=np.int64), np.asarray([len(symbols)])
    )
    [(data, bits)] = lut.payloads_from_rows(packed, row_bits)
    with pytest.raises(DecompressionError):
        lut.decode_rows([data[: len(data) // 2]], np.asarray([bits // 2]),
                        np.asarray([len(symbols)]))


def test_codec_lut_bit_length_beyond_payload_raises():
    """A claimed bit_length the payload bytes cannot back must fail cleanly
    (the scalar BitReader rejects it at construction), not run off the
    padded bit matrix."""
    model = skewed_model()
    lut = model.codec_table()
    symbols = [0xBEEF] * 8
    packed, row_bits = lut.encode_rows(
        np.asarray(symbols, dtype=np.int64), np.asarray([len(symbols)])
    )
    [(data, bits)] = lut.payloads_from_rows(packed, row_bits)
    with pytest.raises(DecompressionError):
        lut.decode_rows([data[:1]], np.asarray([bits]), np.asarray([len(symbols)]))


def test_decompress_batch_corrupt_payload_raises_cleanly():
    slc = trained_slc(SLCVariant.OPT, 32)
    blocks = make_float_blocks()
    compressed = slc.compress_batch(blocks)
    coded = next(c for c in compressed if c.mode is not SLCMode.UNCOMPRESSED)
    data, bits, start, count = coded.payload
    from dataclasses import replace

    corrupt = replace(coded, payload=(data[:1], bits, start, count))
    with pytest.raises(DecompressionError):
        slc.decompress_batch([corrupt])


def test_codec_lut_rejects_wide_symbols():
    with pytest.raises(ValueError):
        HuffmanCodecLUT.from_model(SymbolModel(symbol_bytes=4))


def test_codec_lut_row_count_mismatch():
    lut = skewed_model().codec_table()
    with pytest.raises(ValueError):
        lut.encode_rows(np.zeros(3, dtype=np.int64), np.asarray([1, 1]))


# --------------------------------------------------------------------- #
# vectorized truncated-symbol reconstruction vs. the scalar predictor


@settings(max_examples=80, deadline=None)
@given(
    symbols=st.lists(
        st.integers(min_value=0, max_value=0xFFFF), min_size=8, max_size=8
    ),
    start=st.integers(min_value=0, max_value=7),
    count=st.integers(min_value=0, max_value=8),
    use_prediction=st.booleans(),
    element_symbols=st.sampled_from([1, 2, 4]),
)
def test_reconstruct_rows_matches_scalar_predictor(
    symbols, start, count, use_prediction, element_symbols
):
    from repro.core.prediction import predict_truncated_symbols

    count = min(count, len(symbols) - start)
    kept = symbols[:start] + symbols[start + count:]
    expected = predict_truncated_symbols(
        kept, start, count, len(symbols),
        use_prediction=use_prediction, element_symbols=element_symbols,
    )
    matrix = np.asarray([symbols], dtype=np.int64)
    result = reconstruct_rows(
        matrix,
        np.asarray([start]),
        np.asarray([count]),
        use_prediction=use_prediction,
        element_symbols=element_symbols,
    )
    assert result[0].tolist() == expected
    # the input matrix is never mutated
    assert matrix[0].tolist() == symbols


def test_reconstruct_rows_validates_ranges():
    matrix = np.zeros((1, 8), dtype=np.int64)
    with pytest.raises(ValueError):
        reconstruct_rows(matrix, np.asarray([4]), np.asarray([8]),
                         use_prediction=True, element_symbols=2)
    with pytest.raises(ValueError):
        reconstruct_rows(matrix, np.asarray([0]), np.asarray([1]),
                         use_prediction=True, element_symbols=0)


# --------------------------------------------------------------------- #
# scalar-geometry fallbacks (symbol widths the dense tables cannot cover)


def test_wide_symbol_geometry_falls_back_to_scalar():
    config = SLCConfig(symbol_bytes=4, element_bytes=4)
    slc = SLCCompressor(config)
    blocks = make_float_blocks()[:16]
    slc.train(blocks)
    assert slc.symbol_view(blocks) is None
    compressed = slc.compress_batch(blocks)
    assert compressed == [slc.compress(b) for b in blocks]
    assert slc.decompress_batch(compressed) == [slc.roundtrip(b) for b in blocks]
    decisions = slc.analyze_batch(blocks)
    assert slc.apply_decision_batch(blocks, decisions) == [
        slc.apply_decision(b, d) for b, d in zip(blocks, decisions)
    ]


def test_apply_decision_batch_length_mismatch_on_fallback_geometry():
    """The scalar-geometry fallback must reject mismatched inputs just as
    loudly as the batched path instead of silently zip-truncating."""
    slc = SLCCompressor(SLCConfig(symbol_bytes=4, element_bytes=4))
    slc.train(make_float_blocks()[:8])
    assert slc.symbol_view([bytes(BLOCK)]) is None
    with pytest.raises(CompressionError):
        slc.apply_decision_batch([bytes(BLOCK)], [])
