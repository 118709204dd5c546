"""Canonical Huffman coding used by the E2MC entropy compressor.

E2MC (Lal et al., IPDPS 2017) builds a Huffman code over 16-bit symbols from
frequencies sampled at run time.  The hardware stores *code lengths* in a
table so the compressed size of a block can be computed by summing the code
lengths of its symbols — the property SLC's adder tree exploits.  This module
implements a canonical, optionally length-limited Huffman code with exactly
that interface.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field


@dataclass
class HuffmanCode:
    """A canonical Huffman code: per-symbol lengths and codewords."""

    lengths: dict[int, int] = field(default_factory=dict)
    codewords: dict[int, int] = field(default_factory=dict)

    def code_length(self, symbol: int, default: int | None = None) -> int:
        """Code length of ``symbol``; ``default`` if the symbol is not coded."""
        if symbol in self.lengths:
            return self.lengths[symbol]
        if default is None:
            raise KeyError(f"symbol {symbol} has no codeword")
        return default

    def encode(self, symbol: int) -> tuple[int, int]:
        """Return ``(codeword, length)`` for ``symbol``."""
        return self.codewords[symbol], self.lengths[symbol]

    def max_length(self) -> int:
        """Longest codeword length (0 for an empty code)."""
        return max(self.lengths.values(), default=0)

    def decoding_table(self) -> dict[tuple[int, int], int]:
        """Map ``(codeword, length)`` back to the symbol (for decoders)."""
        return {(code, self.lengths[sym]): sym for sym, code in self.codewords.items()}


def _length_limited_lengths(
    frequencies: dict[int, int], max_length: int
) -> dict[int, int]:
    """Length-limited code lengths via iterative frequency flattening.

    When the unconstrained Huffman tree is deeper than ``max_length`` the
    frequency distribution is repeatedly flattened (halved, floored at 1) and
    the tree rebuilt.  This converges to a balanced tree in the limit, so as
    long as ``2**max_length >= len(frequencies)`` a valid code is found.  The
    resulting code is near-optimal, which matches what the E2MC hardware's
    bounded-depth decoder achieves.
    """
    n = len(frequencies)
    if (1 << max_length) < n:
        raise ValueError(
            f"cannot build a {max_length}-bit-limited code for {n} symbols"
        )
    current = dict(frequencies)
    while True:
        lengths = _huffman_lengths(current)
        if max(lengths.values()) <= max_length:
            return lengths
        current = {s: max(1, f // 2) for s, f in current.items()}


def build_huffman_code(
    frequencies: dict[int, int], max_length: int | None = None
) -> HuffmanCode:
    """Build a canonical Huffman code from symbol frequencies.

    Args:
        frequencies: symbol → occurrence count (must be positive).
        max_length: optional cap on codeword length.  When the unconstrained
            Huffman tree exceeds the cap, near-optimal length-limited code
            lengths are computed by iterative frequency flattening
            (:func:`_length_limited_lengths`): the frequency distribution is
            repeatedly halved (floored at 1) and the tree rebuilt until it
            fits, which is guaranteed whenever
            ``2**max_length >= len(frequencies)``.
    """
    cleaned = {int(s): int(f) for s, f in frequencies.items() if f > 0}
    if not cleaned:
        return HuffmanCode()
    if len(cleaned) == 1:
        symbol = next(iter(cleaned))
        return HuffmanCode(lengths={symbol: 1}, codewords={symbol: 0})

    lengths = _huffman_lengths(cleaned)
    if max_length is not None and max(lengths.values()) > max_length:
        lengths = _length_limited_lengths(cleaned, max_length)
    codewords = canonical_codewords(lengths)
    return HuffmanCode(lengths=lengths, codewords=codewords)


def _huffman_lengths(frequencies: dict[int, int]) -> dict[int, int]:
    """Unconstrained Huffman code lengths via the classic heap construction.

    Node ``i`` below ``len(frequencies)`` is the ``i``-th symbol in sorted
    order, and each merge appends a parent after its two children, so one
    backward pass over the parent links gives every node's depth.
    """
    symbols = sorted(frequencies)
    heap = [(frequencies[symbol], node) for node, symbol in enumerate(symbols)]
    heapq.heapify(heap)
    parent = [-1] * len(symbols)
    while len(heap) > 1:
        freq_a, node_a = heapq.heappop(heap)
        freq_b, node_b = heapq.heappop(heap)
        parent[node_a] = parent[node_b] = len(parent)
        heapq.heappush(heap, (freq_a + freq_b, len(parent)))
        parent.append(-1)
    depth = [0] * len(parent)
    for node in range(len(parent) - 2, -1, -1):
        depth[node] = depth[parent[node]] + 1
    node_of = {symbol: node for node, symbol in enumerate(symbols)}
    return {symbol: depth[node_of[symbol]] for symbol in frequencies}


def canonical_codewords(lengths: dict[int, int]) -> dict[int, int]:
    """Assign canonical codewords given per-symbol code lengths."""
    ordered = sorted(lengths.items(), key=lambda item: (item[1], item[0]))
    codewords: dict[int, int] = {}
    code = 0
    previous_length = 0
    for symbol, length in ordered:
        if length <= 0:
            raise ValueError(f"symbol {symbol} has non-positive code length {length}")
        code <<= length - previous_length
        codewords[symbol] = code
        code += 1
        previous_length = length
    return codewords


def kraft_sum(lengths: dict[int, int]) -> float:
    """Kraft inequality sum; ≤ 1 for any prefix-free code."""
    return sum(2.0 ** -length for length in lengths.values())
