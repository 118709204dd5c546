"""Vectorized TSLC adder tree: sub-block selection for all blocks at once.

The scalar :class:`~repro.core.tree.AdderTree` builds per-level window sums
with Python list comprehensions and scans nodes with a Python loop, once per
block.  Here every node of the tree (the aligned windows and the TSLC-OPT
staggered ones) is laid out once per configuration as a
:class:`BatchTreePlan`, in the order ``AdderTree.select_subblock`` scans
them: levels lowest first, then start symbol ascending, aligned before
staggered on equal starts.  The data-dependent node sums of all blocks are
then the difference of two gathers (node ends and starts) from an int32
prefix-sum array, and the priority encoder is one ``argmax`` over the
eligibility matrix: the first eligible node in scan order is the one the
scalar scan returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tree import extra_node_starts

_INT32_MAX = np.iinfo(np.int32).max


class BatchTreePlan:
    """Every adder-tree node of one (symbols, extra-nodes) geometry, in scan order.

    Attributes:
        level: per node, its 1-based tree level (windows of ``2**level``
            symbols); levels above ``max_symbols`` symbols are left out.
        start: per node, its first symbol.
        count: per node, its window size in symbols.
        is_extra: per node, whether it is a TSLC-OPT staggered window.
    """

    def __init__(
        self,
        n_symbols: int,
        extra_nodes: dict[int, int] | None = None,
        max_symbols: int | None = None,
    ) -> None:
        if n_symbols <= 0 or n_symbols & (n_symbols - 1):
            raise ValueError(
                f"number of symbols must be a power of two, got {n_symbols}"
            )
        self.n_symbols = n_symbols
        self.n_levels = n_symbols.bit_length() - 1
        extra_nodes = extra_nodes or {}
        for level in extra_nodes:
            if not 1 <= level <= self.n_levels:
                raise ValueError(
                    f"extra-node level {level} outside valid range 1..{self.n_levels}"
                )
        nodes: list[tuple[int, int, bool]] = []
        for level in range(1, self.n_levels + 1):
            window = 1 << level
            if max_symbols is not None and window > max_symbols:
                break
            staggered = extra_node_starts(n_symbols, level, extra_nodes.get(level, 0))
            # (start, is_extra) sorts an aligned node ahead of a staggered
            # one with the same start, as the stable sort in
            # ``AdderTree.nodes_at_level`` does.
            nodes += [
                (level, start, is_extra)
                for start, is_extra in sorted(
                    [(start, False) for start in range(0, n_symbols, window)]
                    + [(start, True) for start in staggered]
                )
            ]
        table = np.array(nodes, dtype=np.int64).reshape(-1, 3)
        self.level = table[:, 0]
        self.start = table[:, 1]
        self.count = np.left_shift(1, self.level)
        self.is_extra = table[:, 2].astype(bool)


@dataclass(frozen=True)
class BatchSelection:
    """Vectorized result of ``AdderTree.select_subblock`` over many blocks.

    Rows where ``found`` is ``False`` had no window of at most ``max_symbols``
    symbols covering the required bits (the scalar path returns ``None``);
    their other fields are zero.
    """

    found: np.ndarray
    level: np.ndarray
    start_symbol: np.ndarray
    symbol_count: np.ndarray
    bits_removed: np.ndarray
    used_extra_node: np.ndarray


def select_subblocks(
    code_lengths: np.ndarray,
    required_bits: np.ndarray,
    plan: BatchTreePlan,
) -> BatchSelection:
    """Pick the sub-block to truncate for every block at once.

    Args:
        code_lengths: ``(n_blocks, n_symbols)`` non-negative per-symbol code
            lengths; ``n_symbols`` times the largest length must stay below
            ``2**31 - 1``, so that int32 node sums are exact.
        required_bits: ``(n_blocks,)`` bits each truncation must cover
            (must be positive, as in the scalar path).
        plan: the static node layout for this geometry.
    """
    lengths = np.asarray(code_lengths)
    required = np.asarray(required_bits, dtype=np.int64)
    n_blocks = lengths.shape[0]
    if lengths.shape[1] != plan.n_symbols:
        raise ValueError(
            f"expected {plan.n_symbols} symbols per block, got {lengths.shape[1]}"
        )
    if np.any(required <= 0):
        raise ValueError("required_bits must be positive")
    if n_blocks == 0 or plan.start.size == 0:
        zeros = np.zeros(n_blocks, dtype=np.int64)
        no = np.zeros(n_blocks, dtype=bool)
        return BatchSelection(no, zeros, zeros, zeros, zeros, no)
    if plan.n_symbols * int(lengths.max()) >= _INT32_MAX:
        raise ValueError("code lengths too large for int32 node sums")

    # sum(lengths[s : s + w]) == prefix[s + w] - prefix[s], for every node
    # of every block at once
    prefix = np.zeros((n_blocks, plan.n_symbols + 1), dtype=np.int32)
    np.cumsum(lengths, axis=1, out=prefix[:, 1:])
    sums = prefix[:, plan.start + plan.count] - prefix[:, plan.start]
    # every node sum is below _INT32_MAX, so a capped requirement stays
    # out of reach
    eligible = sums >= np.minimum(required, _INT32_MAX).astype(np.int32)[:, None]
    first = eligible.argmax(axis=1)
    rows = np.arange(n_blocks)
    found = eligible[rows, first]
    return BatchSelection(
        found=found,
        level=np.where(found, plan.level[first], 0),
        start_symbol=np.where(found, plan.start[first], 0),
        symbol_count=np.where(found, plan.count[first], 0),
        bits_removed=np.where(found, sums[rows, first], 0),
        used_extra_node=found & plan.is_extra[first],
    )
