"""Tests for the canonical Huffman code used by E2MC."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.huffman import (
    HuffmanCode,
    build_huffman_code,
    canonical_codewords,
    kraft_sum,
)


def _is_prefix_free(code: HuffmanCode) -> bool:
    items = [(format(code.codewords[s], f"0{code.lengths[s]}b")) for s in code.codewords]
    for i, a in enumerate(items):
        for j, b in enumerate(items):
            if i != j and b.startswith(a):
                return False
    return True


def test_empty_frequencies_give_empty_code():
    code = build_huffman_code({})
    assert code.lengths == {}
    assert code.max_length() == 0


def test_single_symbol_gets_one_bit():
    code = build_huffman_code({42: 100})
    assert code.lengths == {42: 1}
    assert code.codewords == {42: 0}


def test_two_symbols():
    code = build_huffman_code({1: 10, 2: 1})
    assert code.lengths[1] == 1
    assert code.lengths[2] == 1


def test_skewed_frequencies_give_shorter_codes_to_frequent_symbols():
    code = build_huffman_code({1: 1000, 2: 100, 3: 10, 4: 1})
    assert code.lengths[1] <= code.lengths[2] <= code.lengths[3]
    assert code.lengths[1] == 1


@pytest.mark.parametrize(
    "frequencies, lengths",
    [
        (
            {5: 1, 10: 1, 20: 1, 30: 2, 40: 2, 50: 4, 60: 8, 70: 16, 80: 16, 90: 64},
            {5: 6, 10: 6, 20: 6, 30: 6, 40: 5, 50: 5, 60: 3, 70: 3, 80: 3, 90: 1},
        ),
        (
            {3: 1, 1: 1, 2: 1, 9: 3, 8: 3, 7: 6, 6: 12, 4: 24, 5: 48, 0: 96},
            {3: 7, 1: 8, 2: 8, 9: 6, 8: 6, 7: 6, 6: 4, 4: 3, 5: 2, 0: 1},
        ),
    ],
)
def test_tied_frequencies_merge_in_a_fixed_order(frequencies, lengths):
    """Equal weights merge leaves in ascending symbol order, then merged
    nodes in creation order; breaking the ties another way gives other
    lengths for both tables."""
    assert build_huffman_code(frequencies).lengths == lengths


def test_prefix_free_property():
    code = build_huffman_code({s: (s + 1) ** 2 for s in range(20)})
    assert _is_prefix_free(code)


def test_kraft_inequality_holds():
    code = build_huffman_code({s: s + 1 for s in range(50)})
    assert kraft_sum(code.lengths) <= 1.0 + 1e-9


def test_code_length_lookup_and_default():
    code = build_huffman_code({1: 5, 2: 5})
    assert code.code_length(1) == 1
    assert code.code_length(99, default=16) == 16
    with pytest.raises(KeyError):
        code.code_length(99)


def test_length_limited_code_respects_cap():
    # Exponential frequencies make the unconstrained tree very deep.
    frequencies = {s: 2**s for s in range(30)}
    code = build_huffman_code(frequencies, max_length=12)
    assert code.max_length() <= 12
    assert _is_prefix_free(code)
    assert kraft_sum(code.lengths) <= 1.0 + 1e-9


def test_length_limited_impossible_cap_raises():
    with pytest.raises(ValueError):
        build_huffman_code({s: 2**s for s in range(40)}, max_length=4)


def test_canonical_codewords_ordering():
    lengths = {10: 2, 20: 2, 30: 3, 40: 3}
    codewords = canonical_codewords(lengths)
    assert codewords[10] < codewords[20]
    # longer codes start after the shorter ones, shifted left
    assert codewords[30] >= codewords[20] << 1


def test_canonical_codewords_rejects_zero_length():
    with pytest.raises(ValueError):
        canonical_codewords({1: 0})


def test_average_length_close_to_entropy():
    """The Huffman code's average length is within 1 bit of the entropy."""
    frequencies = {0: 50, 1: 25, 2: 13, 3: 6, 4: 3, 5: 2, 6: 1}
    total = sum(frequencies.values())
    code = build_huffman_code(frequencies)
    entropy = -sum(
        (f / total) * math.log2(f / total) for f in frequencies.values()
    )
    average = sum(frequencies[s] * code.lengths[s] for s in frequencies) / total
    assert entropy <= average <= entropy + 1.0


def test_decoding_table_inverts_codewords():
    code = build_huffman_code({s: s + 1 for s in range(8)})
    table = code.decoding_table()
    for symbol, codeword in code.codewords.items():
        assert table[(codeword, code.lengths[symbol])] == symbol


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 1000), st.integers(1, 10_000), min_size=1, max_size=60
    )
)
def test_huffman_properties(frequencies):
    """Property: prefix-free, Kraft ≤ 1, frequent symbols get short codes."""
    code = build_huffman_code(frequencies)
    assert set(code.lengths) == set(frequencies)
    assert kraft_sum(code.lengths) <= 1.0 + 1e-9
    assert _is_prefix_free(code)


def test_length_limit_at_exact_capacity_boundary():
    """Length limiting at the 2**max_length == n_symbols boundary.

    With exactly 2**max_length symbols the only valid length-limited code is
    the fully balanced tree; the iterative frequency-flattening fallback must
    reach it and keep the code a valid prefix code (Kraft <= 1).
    """
    for max_length in (3, 4, 5):
        n = 1 << max_length
        # wildly skewed frequencies force the unconstrained tree far past the cap
        frequencies = {s: 1 << min(s, 60) for s in range(n)}
        code = build_huffman_code(frequencies, max_length=max_length)
        assert set(code.lengths) == set(frequencies)
        assert max(code.lengths.values()) <= max_length
        assert kraft_sum(code.lengths) <= 1.0 + 1e-9
        # at exact capacity the balanced tree is the unique solution
        assert all(length == max_length for length in code.lengths.values())
        assert _is_prefix_free(code)


def test_length_limit_below_capacity_raises():
    frequencies = {s: 1 for s in range(9)}
    with pytest.raises(ValueError):
        build_huffman_code(frequencies, max_length=3)
