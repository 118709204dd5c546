"""Vectorized Fig. 4 mode decision: SLC analysis for all blocks at once.

Given the per-symbol code lengths of every block in a region (one LUT gather,
see :mod:`repro.kernels.lut`), this kernel evaluates the whole SLC decision
flow as array operations: payload sizes are row sums, bit budgets and extra
bits are elementwise arithmetic, the lossy-candidate filter is a boolean
mask, and the sub-block search runs through the vectorized adder tree of
:mod:`repro.kernels.tree`.  The output is bit-exact against
:meth:`repro.core.slc.SLCCompressor.analyze` (which remains the n = 1
reference implementation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SLCConfig, SLCMode
from repro.core.header import header_size_bits
from repro.kernels.tree import BatchTreePlan, select_subblocks

#: integer mode codes used inside the result arrays
MODE_UNCOMPRESSED = 0
MODE_LOSSLESS = 1
MODE_LOSSY = 2

_MODE_ENUMS = {
    MODE_UNCOMPRESSED: SLCMode.UNCOMPRESSED,
    MODE_LOSSLESS: SLCMode.LOSSLESS,
    MODE_LOSSY: SLCMode.LOSSY,
}


@dataclass(frozen=True)
class BatchDecisions:
    """Array-of-structs result of the batched Fig. 4 decision.

    One entry per block; every field mirrors the corresponding
    :class:`~repro.core.slc.SLCDecision` attribute.
    """

    mode: np.ndarray
    comp_size_bits: np.ndarray
    stored_size_bits: np.ndarray
    bit_budget_bits: np.ndarray
    extra_bits: np.ndarray
    bursts: np.ndarray
    approx_start: np.ndarray
    approx_count: np.ndarray
    bits_removed: np.ndarray
    used_extra_node: np.ndarray

    def __len__(self) -> int:
        return len(self.mode)

    @property
    def lossy_mask(self) -> np.ndarray:
        """Boolean mask of blocks that took the lossy path."""
        return self.mode == MODE_LOSSY

    def to_decisions(self) -> list:
        """Materialize scalar :class:`~repro.core.slc.SLCDecision` objects."""
        from repro.core.slc import SLCDecision

        return [
            SLCDecision(
                mode=_MODE_ENUMS[mode],
                comp_size_bits=comp,
                stored_size_bits=stored,
                bit_budget_bits=budget,
                extra_bits=extra,
                bursts=bursts,
                approx_start=start,
                approx_count=count,
                bits_removed=removed,
                used_extra_node=used_extra,
            )
            for mode, comp, stored, budget, extra, bursts, start, count, removed, used_extra in zip(
                self.mode.tolist(),
                self.comp_size_bits.tolist(),
                self.stored_size_bits.tolist(),
                self.bit_budget_bits.tolist(),
                self.extra_bits.tolist(),
                self.bursts.tolist(),
                self.approx_start.tolist(),
                self.approx_count.tolist(),
                self.bits_removed.tolist(),
                self.used_extra_node.tolist(),
            )
        ]


def analyze_code_lengths(
    config: SLCConfig,
    code_lengths: np.ndarray,
    trained: bool,
    approximable: bool = True,
    plan: BatchTreePlan | None = None,
) -> BatchDecisions:
    """Run the SLC mode decision for every block of a region at once.

    Args:
        config: SLC parameters (MAG, threshold, variant, ...).
        code_lengths: ``(n_blocks, symbols_per_block)`` per-symbol code
            lengths (the LUT gather of the region's symbol matrix).
        trained: whether the baseline model is trained; untrained models
            store every block uncompressed, as in the scalar path.
        approximable: whether the region is safe to approximate.
        plan: optional precomputed tree layout (built from ``config`` when
            omitted; callers analyzing many regions should reuse one).
    """
    lengths = np.asarray(code_lengths, dtype=np.int64)
    n_blocks = lengths.shape[0]
    block_bits = config.block_size_bits
    mag_bits = config.mag_bits

    lossless_header = header_size_bits(False, config.block_size_bytes, config.num_pdw)
    lossy_header = header_size_bits(True, config.block_size_bytes, config.num_pdw)

    payload = lengths.sum(axis=1, dtype=np.int64)
    comp = payload + lossless_header

    mode = np.full(n_blocks, MODE_UNCOMPRESSED, dtype=np.int64)
    comp_out = np.full(n_blocks, block_bits, dtype=np.int64)
    stored = np.full(n_blocks, block_bits, dtype=np.int64)
    budget_out = np.full(n_blocks, block_bits, dtype=np.int64)
    extra_out = np.zeros(n_blocks, dtype=np.int64)
    bursts = np.full(n_blocks, config.max_bursts, dtype=np.int64)
    approx_start = np.zeros(n_blocks, dtype=np.int64)
    approx_count = np.zeros(n_blocks, dtype=np.int64)
    bits_removed = np.zeros(n_blocks, dtype=np.int64)
    used_extra = np.zeros(n_blocks, dtype=bool)

    if not trained or n_blocks == 0:
        return BatchDecisions(
            mode, comp_out, stored, budget_out, extra_out, bursts,
            approx_start, approx_count, bits_removed, used_extra,
        )

    compressible = comp < block_bits
    # Bit budget: largest MAG multiple <= the compressed size, clamped below
    # to one MAG (the >= block-size clamp is the uncompressed branch above).
    budget = np.where(comp <= mag_bits, mag_bits, (comp // mag_bits) * mag_bits)
    # Blocks below one MAG have a budget above their size; their extra is 0.
    extra = np.maximum(0, comp - budget)

    # Lossless bookkeeping for every compressible block (the lossy rows are
    # overwritten below).
    mode[compressible] = MODE_LOSSLESS
    comp_out[compressible] = comp[compressible]
    stored[compressible] = comp[compressible]
    budget_out[compressible] = budget[compressible]
    extra_out[compressible] = extra[compressible]
    stored_bytes = np.minimum((comp + 7) // 8, config.block_size_bytes)
    lossless_bursts = np.maximum(1, -(-stored_bytes // config.mag_bytes))
    bursts[compressible] = lossless_bursts[compressible]

    candidate = (
        compressible
        & approximable
        & (extra > 0)
        & (extra <= config.lossy_threshold_bits)
    )
    if not candidate.any():
        return BatchDecisions(
            mode, comp_out, stored, budget_out, extra_out, bursts,
            approx_start, approx_count, bits_removed, used_extra,
        )

    if plan is None:
        plan = BatchTreePlan(
            config.symbols_per_block,
            extra_nodes=config.opt_extra_nodes if config.uses_optimized_tree else None,
            max_symbols=config.max_approx_symbols,
        )

    # The truncated sub-block must also absorb the larger lossy header.
    required = extra + (lossy_header - lossless_header)
    rows = np.nonzero(candidate)[0]
    selection = select_subblocks(lengths[rows], required[rows], plan)

    lossy_rows = rows[selection.found]
    if len(lossy_rows):
        chosen = selection.found
        mode[lossy_rows] = MODE_LOSSY
        stored[lossy_rows] = (
            payload[lossy_rows] - selection.bits_removed[chosen] + lossy_header
        )
        bursts[lossy_rows] = np.maximum(1, budget[lossy_rows] // mag_bits)
        approx_start[lossy_rows] = selection.start_symbol[chosen]
        approx_count[lossy_rows] = selection.symbol_count[chosen]
        bits_removed[lossy_rows] = selection.bits_removed[chosen]
        used_extra[lossy_rows] = selection.used_extra_node[chosen]

    return BatchDecisions(
        mode, comp_out, stored, budget_out, extra_out, bursts,
        approx_start, approx_count, bits_removed, used_extra,
    )
