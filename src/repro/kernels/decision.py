"""Vectorized Fig. 4 mode decision: SLC analysis for all blocks at once.

The decision reads two things per block: its payload bits (the sum of its
per-symbol code lengths) and, only for a lossy candidate, the code lengths
themselves.  Bit budgets, extra bits and the candidate filter are
elementwise arithmetic on the payload; the sub-block search runs through
the vectorized adder tree of :mod:`repro.kernels.tree` on the candidate
rows alone.  :func:`analyze_code_lengths` is that one decision.  Its
callers either sum the code lengths of a LUT gather
(:meth:`repro.core.slc.SLCCompressor.decide_symbols`) or read the payload
off the E2MC sizes an input already holds
(:class:`repro.replay.plan.ReplayCache`).

The result, :class:`CompactDecisions`, keeps a per-row lossy flag and the
truncated range of the lossy rows only: everything else follows from the
payload (:func:`stored_sizes`, :func:`expand`), so a held decision costs a
few bytes per row.  :func:`expand` gives the full per-row
:class:`BatchDecisions`, bit-exact against
:meth:`repro.core.slc.SLCCompressor.analyze` (the n = 1 reference).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

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
    approximable: bool = True,
    plan: BatchTreePlan | None = None,
) -> CompactDecisions:
    """Run the SLC mode decision for every block of a region at once.

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
        approximable: whether the region is safe to approximate.
        plan: optional precomputed tree layout (built from ``config`` when
            omitted; callers analyzing many regions should reuse one).
    """
    payload = np.asarray(payload_bits, dtype=np.int64)
    mag_bits = config.mag_bits
    lossless_header, lossy_header = _headers(config)
    rows = np.empty(0, dtype=np.int64)
    if approximable:
        comp = payload + lossless_header
        # Above one MAG the extra bits are the size past a MAG multiple; a
        # block at or below one MAG has a budget above its size and none.
        extra = comp % mag_bits
        candidate = (comp > mag_bits) & (comp < config.block_size_bits)
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


def expand(
    config: SLCConfig, payload_bits: np.ndarray, decisions: CompactDecisions
) -> BatchDecisions:
    """Every :class:`BatchDecisions` field of ``decisions``' rows, whose
    payload bits are ``payload_bits``."""
    payload = np.asarray(payload_bits, dtype=np.int64)
    n = payload.size
    block_bits = config.block_size_bits
    mag_bits = config.mag_bits
    comp = payload + _headers(config)[0]
    compressible = comp < block_bits
    budget = np.where(comp <= mag_bits, mag_bits, (comp // mag_bits) * mag_bits)
    rows = decisions.rows.astype(np.int64)
    stored, bursts = stored_sizes(config, payload, rows, decisions.bits_removed)

    mode = np.where(compressible, MODE_LOSSLESS, MODE_UNCOMPRESSED)
    mode[rows] = MODE_LOSSY
    approx_start = np.zeros(n, dtype=np.int64)
    approx_count = np.zeros(n, dtype=np.int64)
    bits_removed = np.zeros(n, dtype=np.int64)
    used_extra = np.zeros(n, dtype=bool)
    approx_start[rows] = decisions.start
    approx_count[rows] = decisions.count
    bits_removed[rows] = decisions.bits_removed
    used_extra[rows] = decisions.used_extra_node
    return BatchDecisions(
        mode=mode,
        comp_size_bits=np.where(compressible, comp, block_bits),
        stored_size_bits=stored,
        bit_budget_bits=np.where(compressible, budget, block_bits),
        extra_bits=np.where(compressible, np.maximum(0, comp - budget), 0),
        bursts=bursts,
        approx_start=approx_start,
        approx_count=approx_count,
        bits_removed=bits_removed,
        used_extra_node=used_extra,
    )
