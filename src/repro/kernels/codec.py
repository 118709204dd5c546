"""Batched TSLC reconstruction: the bytes a read of a lossy block returns.

A store never materializes the Huffman bitstream: the decision needs only
each block's per-symbol code lengths (:mod:`repro.kernels.lut`,
:mod:`repro.kernels.decision`), and a read of a lossy block returns its kept
symbols plus the truncated range rebuilt by the TSLC predictor.
:func:`reconstruct_rows` does that rebuilding for every lossy row of a
region at once, bit-exact against
:func:`~repro.core.prediction.predict_truncated_symbols`.  The scalar
``compress``/``decompress`` pair (``BitWriter``/``BitReader``) is the one
bitstream, and the oracle ``tests/test_codec.py`` pins the batched sizes and
reads to.
"""

from __future__ import annotations

import numpy as np


class HuffmanCodecLUT:
    """An empty class, kept only because the study benchmark names it.

    The harness (``studybench/layers.py``) resolves this name when it
    installs its wrappers and finds no methods to wrap, so its
    ``kernels.decode_calls`` reads 0.  The class goes once the harness stops
    listing it.
    """


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
