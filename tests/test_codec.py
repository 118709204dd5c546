"""Property tests pinning the batched store path to the scalar bitstream.

A store never encodes a payload: :meth:`SLCCompressor.analyze_batch_arrays`
takes each block's stored size from its code lengths, and
:meth:`SLCCompressor.apply_decision_rows` rebuilds the bytes a read returns
(:func:`repro.kernels.codec.reconstruct_rows`).  The scalar
``compress``/``decompress`` pair (``BitWriter``/``BitReader``) is the one
real bitstream and the oracle both are pinned to, on randomized regions —
all-zero blocks, all-same-symbol blocks, low-entropy blocks, escape-heavy
random blocks, and blocks of a code capped so that its rare symbols carry
maximum-length codewords — across all three TSLC variants and
MAG ∈ {16, 32, 64}:

* ``analyze_batch_arrays(...).stored_size_bits == [compress(b).compressed_size_bits]``,
* ``apply_decision_rows(...) == [roundtrip(b)]``, and equals per-block
  ``apply_decision`` for analyzer-produced *and* synthetic decisions.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.base import CompressionError
from repro.compression.e2mc import E2MCCompressor, SymbolModel
from repro.core.config import SLCConfig, SLCMode, SLCVariant
from repro.core.slc import SLCBlock, SLCCompressor, SLCDecision
from repro.gpu.backends import SLCBackend, StoredBatch
from repro.kernels.codec import reconstruct_rows
from repro.kernels.decision import MODE_LOSSY, MODE_UNCOMPRESSED, BatchDecisions
from repro.kernels.symbols import BatchSymbolView
from repro.utils.blocks import as_block_rows, symbols_to_block

from tests.conftest import make_float_blocks, make_mixed_blocks

BLOCK = 128
SPB = 64

ALL_VARIANTS = (SLCVariant.SIMP, SLCVariant.PRED, SLCVariant.OPT)
ALL_MAGS = (16, 32, 64)

#: the codes a compressor is trained to: the shared corpus's, or the capped
#: skewed code of :func:`skewed_model`
CODES = ("corpus", "skewed")

#: tabled symbols of the skewed code; every other 16-bit symbol escapes
SKEWED_TABLED = 40
#: length cap of the skewed code, reached by its rarest tabled symbols
SKEWED_MAX_LENGTH = 8


def skewed_model() -> SymbolModel:
    """A model whose code hits the length cap (max-length codewords) and
    leaves most of the 16-bit symbol space untabled (escape coverage)."""
    model = SymbolModel(max_table_entries=64, max_code_length=SKEWED_MAX_LENGTH)
    model.fit_counts({s: 1 << min(s, 24) for s in range(SKEWED_TABLED)})
    assert model.code.max_length() == SKEWED_MAX_LENGTH
    return model


@functools.lru_cache(maxsize=None)
def trained_e2mc(code: str) -> E2MCCompressor:
    if code == "skewed":
        compressor = E2MCCompressor(max_code_length=SKEWED_MAX_LENGTH)
        compressor.model = skewed_model()
    else:
        compressor = E2MCCompressor()
        compressor.train(make_float_blocks() + make_mixed_blocks())
    return compressor


@functools.lru_cache(maxsize=None)
def trained_slc(variant: SLCVariant, mag: int, code: str = "corpus") -> SLCCompressor:
    return SLCCompressor(
        SLCConfig(variant=variant, mag_bytes=mag, lossy_threshold_bytes=mag // 2),
        baseline=trained_e2mc(code),
    )


def draw_slc(data) -> SLCCompressor:
    """A trained compressor of a drawn variant, MAG and code."""
    return trained_slc(
        data.draw(st.sampled_from(ALL_VARIANTS)),
        data.draw(st.sampled_from(ALL_MAGS)),
        data.draw(st.sampled_from(CODES)),
    )


# --------------------------------------------------------------------- #
# block strategies

#: a small alphabet makes low-entropy (compressible, often lossy) blocks
_small_symbols = st.integers(min_value=0, max_value=7).map(lambda s: s * 257)

#: under the skewed code: max-length codewords (the rarest tabled symbols),
#: short ones, and escapes
_skewed_symbols = st.one_of(
    st.integers(min_value=0, max_value=SKEWED_TABLED - 1),
    st.integers(min_value=0, max_value=0xFFFF),
)

block_strategy = st.one_of(
    st.just(bytes(BLOCK)),  # all-zero
    st.integers(min_value=0, max_value=0xFFFF).map(  # all-same-symbol
        lambda s: symbols_to_block([s] * SPB)
    ),
    st.lists(_small_symbols, min_size=SPB, max_size=SPB).map(symbols_to_block),
    st.lists(_skewed_symbols, min_size=SPB, max_size=SPB).map(symbols_to_block),
    st.binary(min_size=BLOCK, max_size=BLOCK),  # incompressible / escapes
)

blocks_strategy = st.lists(block_strategy, min_size=1, max_size=12)


# --------------------------------------------------------------------- #
# batched SLC sizes and reads vs. the scalar bitstream


def _applied_rows(slc: SLCCompressor, blocks, decisions) -> list[bytes]:
    """``apply_decision_rows`` over ``blocks``, one ``bytes`` per row."""
    view = slc.symbol_view(blocks)
    return [row.tobytes() for row in slc.apply_decision_rows(view, decisions)]


def _applied_blocks(slc: SLCCompressor, blocks) -> list[bytes]:
    """Per-block ``apply_decision`` of per-block ``analyze``."""
    return [slc.apply_decision(b, slc.analyze(b)) for b in blocks]


def _assert_matches_bitstream(slc: SLCCompressor, blocks, approximable=True):
    """Batched sizes, bursts and reads equal the scalar ``compress`` /
    ``decompress`` pair's; returns the batched decisions."""
    decisions = slc.analyze_batch_arrays(blocks, approximable=approximable)
    compressed = [slc.compress(b, approximable=approximable) for b in blocks]
    assert decisions.stored_size_bits.tolist() == [
        c.compressed_size_bits for c in compressed
    ]
    assert decisions.bursts.tolist() == [c.bursts for c in compressed]
    assert _applied_rows(slc, blocks, decisions) == [
        slc.decompress(c) for c in compressed
    ]
    return decisions


@settings(max_examples=30, deadline=None)
@given(blocks=blocks_strategy, data=st.data())
def test_batch_sizes_match_compress(blocks, data):
    slc = draw_slc(data)
    approximable = data.draw(st.booleans())
    decisions = slc.analyze_batch_arrays(blocks, approximable=approximable)
    assert decisions.stored_size_bits.tolist() == [
        slc.compress(b, approximable=approximable).compressed_size_bits
        for b in blocks
    ]


@settings(max_examples=30, deadline=None)
@given(blocks=blocks_strategy, data=st.data())
def test_roundtrip_batch_matches_scalar_oracle(blocks, data):
    slc = draw_slc(data)
    approximable = data.draw(st.booleans())
    decisions = slc.analyze_batch_arrays(blocks, approximable=approximable)
    assert _applied_rows(slc, blocks, decisions) == [
        slc.roundtrip(b, approximable=approximable) for b in blocks
    ]


@settings(max_examples=30, deadline=None)
@given(blocks=blocks_strategy, data=st.data())
def test_apply_decision_rows_matches_scalar(blocks, data):
    slc = draw_slc(data)
    arrays = slc.analyze_batch_arrays(blocks)
    assert _applied_rows(slc, blocks, arrays) == _applied_blocks(slc, blocks)


@settings(max_examples=60, deadline=None)
@given(
    block=block_strategy,
    start=st.integers(min_value=0, max_value=SPB - 1),
    count=st.integers(min_value=1, max_value=SPB),
    data=st.data(),
)
def test_apply_decision_rows_synthetic_ranges(block, start, count, data):
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
    arrays = _synthetic_decisions([(start, count)])
    assert _applied_rows(slc, [block], arrays) == [slc.apply_decision(block, decision)]


def _synthetic_decisions(ranges) -> BatchDecisions:
    """Lossy :class:`BatchDecisions` truncating each ``(start, count)``."""
    n = len(ranges)
    zeros = np.zeros(n, dtype=np.int64)
    return BatchDecisions(
        mode=np.full(n, MODE_LOSSY, dtype=np.int64),
        comp_size_bits=zeros,
        stored_size_bits=zeros,
        bit_budget_bits=zeros,
        extra_bits=zeros,
        bursts=np.ones(n, dtype=np.int64),
        approx_start=np.asarray([r[0] for r in ranges], dtype=np.int64),
        approx_count=np.asarray([r[1] for r in ranges], dtype=np.int64),
        bits_removed=zeros,
        used_extra_node=np.zeros(n, dtype=np.bool_),
    )


def test_apply_decision_rows_length_mismatch():
    slc = trained_slc(SLCVariant.OPT, 32)
    with pytest.raises(CompressionError):
        slc.apply_decision_rows(slc.symbol_view([bytes(BLOCK)]), _synthetic_decisions([]))


def test_payload_codec_empty_region():
    slc = trained_slc(SLCVariant.OPT, 32)
    empty = slc.analyze_batch_arrays([])
    assert len(empty) == 0
    assert _applied_rows(slc, [], empty) == []


def test_whole_block_truncation_matches_scalar():
    """A lossy block that keeps no symbol reads back as the scalar
    ``decompress`` of its empty payload does: all zeros, as no kept
    neighbour is left to predict from."""
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
    source = make_float_blocks()[0]
    rows = _applied_rows(slc, [source], _synthetic_decisions([(0, SPB)]))
    assert rows == [slc.decompress(block)] == [bytes(BLOCK)]


def test_untrained_slc_stores_raw():
    slc = SLCCompressor(SLCConfig())
    blocks = make_mixed_blocks()[:8]
    decisions = _assert_matches_bitstream(slc, blocks)
    assert (decisions.mode == MODE_UNCOMPRESSED).all()
    assert _applied_rows(slc, blocks, decisions) == [bytes(b) for b in blocks]


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("mag", ALL_MAGS)
def test_full_grid_on_fixed_corpus(variant, mag):
    """Deterministic sweep of every MAG × variant over the shared corpus."""
    blocks = make_float_blocks() + make_mixed_blocks()
    slc = trained_slc(variant, mag)
    decisions = _assert_matches_bitstream(slc, blocks)
    assert _applied_rows(slc, blocks, decisions) == _applied_blocks(slc, blocks)
    # the sweep is only meaningful if it exercises the lossy path
    assert decisions.lossy_mask.any()


def test_max_length_codewords_and_escapes_match_scalar():
    """Blocks of the skewed code's max-length codewords, its short ones and
    escapes size and read back exactly as the scalar bitstream says, for
    every variant and MAG."""
    model = trained_e2mc("skewed").model
    rarest = min(
        (s for s in model.code.lengths if s >= 0),
        key=lambda s: (-model.code.lengths[s], s),
    )
    assert model.code.lengths[rarest] == SKEWED_MAX_LENGTH
    commonest = SKEWED_TABLED - 1
    rng = np.random.default_rng(5)
    blocks = [symbols_to_block([rarest] * SPB), symbols_to_block([0xBEEF] * SPB)]
    for n_rare in range(0, SPB + 1, 4):
        symbols = [rarest] * n_rare + [commonest] * (SPB - n_rare)
        for index in rng.integers(0, SPB, size=2).tolist():
            symbols[index] = 0xBEEF
        blocks.append(symbols_to_block(symbols))
    for variant in ALL_VARIANTS:
        for mag in ALL_MAGS:
            slc = trained_slc(variant, mag, "skewed")
            decisions = _assert_matches_bitstream(slc, blocks)
            assert (decisions.mode != MODE_UNCOMPRESSED).any()
            if mag <= 32:
                assert decisions.lossy_mask.any()


def test_store_batch_matches_scalar_store_counters():
    """SLCBackend batched stores equal per-block stores, counters included."""
    blocks = make_float_blocks() + make_mixed_blocks()
    config = SLCConfig(variant=SLCVariant.OPT)
    scalar_backend = SLCBackend(SLCCompressor(config))
    batch_backend = SLCBackend(SLCCompressor(config))
    for backend in (scalar_backend, batch_backend):
        backend.train(blocks)
    scalar = StoredBatch.from_blocks([scalar_backend.store(b) for b in blocks], BLOCK)
    rows = as_block_rows(blocks, BLOCK)
    assert batch_backend.store_batch(rows) == scalar
    assert batch_backend.total_blocks == scalar_backend.total_blocks
    assert batch_backend.lossy_blocks == scalar_backend.lossy_blocks
    assert batch_backend.total_overshoot_bits == scalar_backend.total_overshoot_bits
    assert scalar_backend.lossy_blocks > 0


# --------------------------------------------------------------------- #
# batched E2MC sizes vs. the scalar bitstream


@settings(max_examples=30, deadline=None)
@given(blocks=blocks_strategy, code=st.sampled_from(CODES))
def test_e2mc_batch_matches_scalar(blocks, code):
    compressor = trained_e2mc(code)
    compressed = [compressor.compress(b) for b in blocks]
    assert compressor.compressed_size_bits_batch(blocks).tolist() == [
        c.compressed_size_bits for c in compressed
    ]
    # E2MC is lossless: the roundtrip is the identity
    assert [compressor.decompress(c) for c in compressed] == [bytes(b) for b in blocks]


def test_e2mc_untrained_batch_stores_raw():
    compressor = E2MCCompressor()
    blocks = make_mixed_blocks()[:6]
    compressed = [compressor.compress(b) for b in blocks]
    assert all(c.metadata.get("uncompressed") for c in compressed)
    assert compressor.compressed_size_bits_batch(blocks).tolist() == [
        c.compressed_size_bits for c in compressed
    ]


def test_e2mc_batch_view_input():
    compressor = trained_e2mc("corpus")
    blocks = make_float_blocks()
    view = BatchSymbolView.from_blocks(blocks)
    assert compressor.compressed_size_bits_batch(view).tolist() == [
        compressor.compress(b).compressed_size_bits for b in blocks
    ]


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
    decisions = slc.analyze_batch(blocks)
    assert decisions == [slc.analyze(b) for b in blocks]
    assert [slc.apply_decision(b, d) for b, d in zip(blocks, decisions)] == [
        slc.roundtrip(b) for b in blocks
    ]
