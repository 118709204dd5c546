"""Tests for the E2MC entropy compressor (the SLC baseline)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.base import CompressionError, DecompressionError
from repro.compression.e2mc import ESCAPE_SYMBOL, E2MCCompressor, SymbolModel
from repro.utils.blocks import block_to_symbols


def test_untrained_compressor_stores_uncompressed():
    compressor = E2MCCompressor()
    result = compressor.compress(bytes(128))
    assert result.compressed_size_bits == 128 * 8
    assert result.metadata.get("uncompressed")


def test_train_then_compress_reduces_size(trained_e2mc, float_blocks):
    sizes = [trained_e2mc.compress(block).compressed_size_bits for block in float_blocks]
    assert sum(sizes) < len(float_blocks) * 128 * 8


def test_roundtrip_trained_blocks(trained_e2mc, float_blocks):
    for block in float_blocks[:48]:
        assert trained_e2mc.roundtrip(block) == block


def test_roundtrip_unseen_symbols_via_escape(trained_e2mc):
    rng = np.random.default_rng(99)
    block = rng.bytes(128)
    assert trained_e2mc.roundtrip(block) == block


def test_symbol_code_lengths_match_payload_size(trained_e2mc, float_blocks):
    block = float_blocks[0]
    lengths = trained_e2mc.symbol_code_lengths(block)
    assert len(lengths) == 64
    assert sum(lengths) == trained_e2mc.payload_size_bits(block)
    assert all(length > 0 for length in lengths)


def test_compressed_size_is_payload_plus_header(trained_e2mc, float_blocks):
    block = float_blocks[1]
    result = trained_e2mc.compress(block)
    if not result.metadata.get("uncompressed"):
        assert (
            result.compressed_size_bits
            == result.metadata["payload_bits"] + trained_e2mc.header_bits
        )


def test_header_bits_formula():
    compressor = E2MCCompressor(block_size_bytes=128, num_pdw=4)
    # three pointers of 7 bits each (2**7 = 128 bytes)
    assert compressor.header_bits == 3 * 7
    no_header = E2MCCompressor(include_header=False)
    assert no_header.header_bits == 0


def test_symbols_per_block():
    assert E2MCCompressor().symbols_per_block == 64
    assert E2MCCompressor(symbol_bytes=1).symbols_per_block == 128


def test_block_size_must_be_multiple_of_symbol():
    with pytest.raises(ValueError):
        E2MCCompressor(block_size_bytes=130, symbol_bytes=4)


def test_incompressible_block_falls_back_to_uncompressed(trained_e2mc):
    rng = np.random.default_rng(5)
    block = rng.bytes(128)
    result = trained_e2mc.compress(block)
    assert result.compressed_size_bits <= 128 * 8
    assert trained_e2mc.decompress(result) == block


def test_symbol_model_requires_training_before_encode():
    model = SymbolModel()
    from repro.utils.bitstream import BitWriter

    with pytest.raises(CompressionError):
        model.encode_symbol(BitWriter(), 3)


def test_symbol_model_fit_rejects_empty():
    with pytest.raises(CompressionError):
        SymbolModel().fit_counts({})


def test_symbol_model_escape_always_present(float_blocks):
    model = SymbolModel(max_table_entries=8)
    model.fit(float_blocks)
    assert ESCAPE_SYMBOL in model.code.lengths
    # untabled symbols cost escape + 16 raw bits
    untabled = max(model.code.lengths) + 12345
    assert model.code_length(untabled) == model.code.lengths[ESCAPE_SYMBOL] + 16


def test_symbol_model_table_capacity_respected(float_blocks):
    model = SymbolModel(max_table_entries=16)
    model.fit(float_blocks)
    # 16 table entries plus the escape symbol
    assert len(model.code.lengths) <= 17


def test_frequent_symbols_get_short_codes(float_blocks):
    model = SymbolModel()
    model.fit(float_blocks)
    counts = {}
    for block in float_blocks:
        for symbol in block_to_symbols(block):
            counts[symbol] = counts.get(symbol, 0) + 1
    most_common = max(counts, key=counts.get)
    rare = min(counts, key=counts.get)
    assert model.code_length(most_common) <= model.code_length(rare)


def test_code_length_untrained_model_is_raw_width():
    assert SymbolModel().code_length(7) == 16


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2**16 - 1), min_size=64, max_size=64))
def test_e2mc_roundtrip_property(trained_e2mc, symbols):
    """Property: any 64-symbol block round-trips through the trained model."""
    from repro.utils.blocks import symbols_to_block

    block = symbols_to_block(symbols)
    assert trained_e2mc.roundtrip(block) == block


def _sorted_admission_code(counts, max_table_entries, max_code_length=24):
    """The table order ``fit_counts`` used before ``np.lexsort``: descending
    count, the symbol value breaking ties, as a ``sorted`` key."""
    from repro.compression.huffman import build_huffman_code

    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    table = dict(ordered[:max_table_entries])
    table[ESCAPE_SYMBOL] = max(1, sum(counts.values()) - sum(table.values()))
    return build_huffman_code(table, max_length=max_code_length)


@settings(max_examples=150, deadline=None)
@given(
    counts=st.dictionaries(
        st.integers(0, (1 << 16) - 1), st.integers(1, 6), min_size=1, max_size=300
    ),
    max_table_entries=st.integers(1, 64),
)
def test_fit_counts_admits_symbols_in_the_sorted_order(counts, max_table_entries):
    # counts of 1..6 over up to 300 symbols tie often, at the table's edge too
    model = SymbolModel(max_table_entries=max_table_entries)
    model.fit_counts(counts)
    expected = _sorted_admission_code(counts, max_table_entries)
    assert model.code.lengths == expected.lengths
    assert model.code.codewords == expected.codewords
    assert list(model.code.lengths) == list(expected.lengths)


def test_fit_counts_orders_symbols_wider_than_int64():
    counts = {(1 << 70) + 5: 3, 7: 3, 1 << 66: 9, 2: 1}
    model = SymbolModel(symbol_bytes=9, max_table_entries=3)
    model.fit_counts(counts)
    expected = _sorted_admission_code(counts, 3)
    assert model.code.codewords == expected.codewords
