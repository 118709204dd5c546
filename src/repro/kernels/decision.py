"""Vectorized Fig. 4 mode decision: SLC analysis for all blocks at once.

The decision reads three things per block: whether it lies in a
safe-to-approximate region, its payload bits (the sum of its per-symbol
code lengths) and, only for a lossy candidate, the code lengths
themselves.  Bit budgets, extra bits and the candidate filter are
elementwise arithmetic on the payload; the sub-block search runs through
the vectorized adder tree of :mod:`repro.kernels.tree` on the candidate
rows alone.  :func:`analyze_code_lengths` is the one batched decision.  Its
one caller, :meth:`repro.gpu.backends.SLCBackend.decide`, either sums the
code lengths of a LUT gather (:meth:`repro.gpu.backends.SLCBackend.store_batch`)
or reads the payload off the E2MC sizes an input already holds
(:class:`repro.replay.plan.ReplayCache`).

The result, :class:`CompactDecisions`, keeps a per-row lossy flag and the
truncated range of the lossy rows only: the stored bits and bursts follow
from the payload (:func:`stored_sizes`), so a held decision costs a few
bytes per row.  Per-block :meth:`repro.core.slc.SLCCompressor.analyze` is
its n = 1 reference.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from repro.core.config import SLCConfig
from repro.core.header import header_size_bits
from repro.kernels.tree import BatchTreePlan, select_subblocks


@dataclass(frozen=True, eq=False)
class CompactDecisions:
    """The Fig. 4 decision of ``n`` rows, with a range for lossy rows only.

    A row's mode, stored bits and bursts follow from its payload bits and,
    for a lossy row, its bits removed (:func:`stored_sizes`), so the other
    rows need only their flag.  At 128 B blocks and 2 B symbols a lossy
    row costs 9 B (a 4 B index, 1 B each for start, count and the extra-node
    flag, 2 B for the bits removed) and every row 1 B, so at most 10 B per
    row.
    """

    #: ``(n,)`` bool: the row takes the lossy path
    lossy: np.ndarray
    #: ascending indices of the lossy rows (int32)
    rows: np.ndarray
    #: per lossy row: first truncated symbol, truncated symbols, bits
    #: removed and whether a TSLC-OPT staggered node was chosen
    start: np.ndarray
    count: np.ndarray
    bits_removed: np.ndarray
    used_extra_node: np.ndarray

    def __len__(self) -> int:
        return self.lossy.size

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Every array it holds."""
        return tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def build(
        cls,
        config: SLCConfig,
        n: int,
        rows: np.ndarray,
        start: np.ndarray,
        count: np.ndarray,
        bits_removed: np.ndarray,
        used_extra_node: np.ndarray,
    ) -> "CompactDecisions":
        """Pack the lossy rows' fields into the smallest dtypes ``config`` allows."""
        if n > np.iinfo(np.int32).max:
            raise ValueError(f"{n} rows do not fit 32-bit row indices")
        lossy = np.zeros(n, dtype=np.bool_)
        lossy[rows] = True
        symbol_dtype = np.min_scalar_type(config.symbols_per_block)
        return cls(
            lossy=lossy,
            rows=np.asarray(rows, dtype=np.int32),
            start=np.asarray(start, dtype=symbol_dtype),
            count=np.asarray(count, dtype=symbol_dtype),
            bits_removed=np.asarray(
                bits_removed, dtype=np.min_scalar_type(config.block_size_bits)
            ),
            used_extra_node=np.asarray(used_extra_node, dtype=np.bool_),
        )

    @classmethod
    def stack(cls, parts: list["CompactDecisions"]) -> "CompactDecisions":
        """The decisions of consecutive row ranges, as one."""
        if len(parts) == 1:
            return parts[0]
        offsets = np.cumsum([0] + [len(part) for part in parts[:-1]])
        return cls(
            lossy=np.concatenate([part.lossy for part in parts]),
            rows=np.concatenate([
                part.rows + np.int32(offset) for part, offset in zip(parts, offsets)
            ]),
            **{
                name: np.concatenate([getattr(part, name) for part in parts])
                for name in ("start", "count", "bits_removed", "used_extra_node")
            },
        )

    def select(self, index: "slice | np.ndarray") -> tuple[np.ndarray, np.ndarray]:
        """The lossy flags of the rows at ``index``, and the entry (into
        :attr:`rows` and the per-lossy-row fields) of each lossy one."""
        lossy = self.lossy[index]
        if isinstance(index, slice):
            index = np.arange(*index.indices(self.lossy.size))
        return lossy, np.searchsorted(self.rows, index[lossy])


def _headers(config: SLCConfig) -> tuple[int, int]:
    """Lossless and lossy header bits."""
    return (
        header_size_bits(False, config.block_size_bytes, config.num_pdw),
        header_size_bits(True, config.block_size_bytes, config.num_pdw),
    )


def analyze_code_lengths(
    config: SLCConfig,
    payload_bits: np.ndarray,
    code_lengths: Callable[[np.ndarray], np.ndarray],
    approximable: "bool | np.ndarray" = True,
    plan: BatchTreePlan | None = None,
) -> CompactDecisions:
    """Run the SLC mode decision for many blocks at once.

    Args:
        config: SLC parameters (MAG, threshold, variant, ...).
        payload_bits: ``(n_blocks,)`` sum of each block's code lengths.  An
            untrained model codes every symbol raw, so its payload is the
            block size and every block is stored uncompressed, as in the
            scalar path.  A block whose E2MC size is raw may pass any
            payload at which the lossless SLC size reaches the block size.
        code_lengths: maps the indices of the lossy candidates to their
            ``(k, symbols_per_block)`` per-symbol code lengths (a LUT
            gather); it is called once, and not at all without candidates.
        approximable: whether the blocks are safe to approximate: one flag
            for all, or an ``(n_blocks,)`` bool array, one per block.  Only
            a block that is safe to approximate is a lossy candidate.
        plan: optional precomputed tree layout (built from ``config`` when
            omitted; callers analyzing many regions should reuse one).
    """
    payload = np.asarray(payload_bits, dtype=np.int64)
    mag_bits = config.mag_bits
    lossless_header, lossy_header = _headers(config)
    comp = payload + lossless_header
    # Above one MAG the extra bits are the size past a MAG multiple; a
    # block at or below one MAG has a budget above its size and none.
    extra = comp % mag_bits
    candidate = (comp > mag_bits) & (comp < config.block_size_bits) & approximable
    candidate &= (extra > 0) & (extra <= config.lossy_threshold_bits)
    rows = np.flatnonzero(candidate)
    if not rows.size:
        empty = np.empty(0, dtype=np.int64)
        return CompactDecisions.build(config, payload.size, rows, empty, empty, empty, empty)

    if plan is None:
        plan = BatchTreePlan(
            config.symbols_per_block,
            extra_nodes=config.opt_extra_nodes if config.uses_optimized_tree else None,
            max_symbols=config.max_approx_symbols,
        )
    # The truncated sub-block must also absorb the larger lossy header.
    required = extra[rows] + (lossy_header - lossless_header)
    selection = select_subblocks(code_lengths(rows), required, plan)
    found = selection.found
    return CompactDecisions.build(
        config,
        payload.size,
        rows[found],
        selection.start_symbol[found],
        selection.symbol_count[found],
        selection.bits_removed[found],
        selection.used_extra_node[found],
    )


def stored_sizes(
    config: SLCConfig,
    payload_bits: np.ndarray,
    lossy_at: np.ndarray,
    bits_removed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stored bits and bursts per block, as the Fig. 4 decision sets them.

    Args:
        config: SLC parameters.
        payload_bits: ``(n,)`` payload bits of the blocks.
        lossy_at: positions of the lossy blocks among them.
        bits_removed: the bits each of those truncates.
    """
    payload = np.asarray(payload_bits, dtype=np.int64)
    lossless_header, lossy_header = _headers(config)
    comp = payload + lossless_header
    stored = np.minimum(comp, config.block_size_bits)  # raw at the cap
    stored_bytes = np.minimum((stored + 7) // 8, config.block_size_bytes)
    bursts = np.maximum(1, -(-stored_bytes // config.mag_bytes))
    if lossy_at.size:
        stored[lossy_at] = payload[lossy_at] - bits_removed + lossy_header
        # A lossy block fits its budget, the MAG multiple below its size.
        bursts[lossy_at] = np.maximum(1, comp[lossy_at] // config.mag_bits)
    return stored, bursts
