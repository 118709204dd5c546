"""Array model of the set-associative LRU L2 cache.

The scalar :class:`~repro.gpu.cache.SetAssociativeCache` walks one
``OrderedDict`` per access.  This module resolves a whole compiled trace at
once, from an empty cache: accesses are partitioned by set index, and hits
are decided by reuse distance — an access hits iff fewer than ``ways``
distinct lines in its set were touched since the line's previous use.  The
reuse distance is computed exactly by advancing a bounded LRU *stack* (the
``ways`` most recently touched distinct lines, most recent first) for every
set simultaneously: the per-set access streams are padded into a matrix and
the stacks advance one column at a time, so the Python-level loop runs
``O(max accesses per set)`` iterations instead of ``O(total accesses)`` —
each iteration a handful of NumPy operations over all sets.  A matched
stack position *is* the access's reuse distance; position ``>= ways`` (not
found) is a miss.

Dirty state rides along in a parallel stack, which makes eviction and
writeback accounting exact: the victim of a miss in a full set is the
stack's last entry, and a writeback is charged iff its dirty bit is set —
identical to the scalar model, which is kept as the n = 1 reference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.cache import SetAssociativeCache


@dataclass(frozen=True)
class L2Outcome:
    """What replaying an address stream from an empty cache counts."""

    #: counter increments: hits, misses, evictions, writebacks
    stats: tuple[int, int, int, int]

    def apply(self, cache: SetAssociativeCache) -> None:
        """Add the counters to ``cache``'s stats."""
        hits, misses, evictions, writebacks = self.stats
        cache.stats.hits += hits
        cache.stats.misses += misses
        cache.stats.evictions += evictions
        cache.stats.writebacks += writebacks


def resolve_l2(
    cache: SetAssociativeCache,
    addresses: np.ndarray,
    is_write: np.ndarray,
) -> tuple[np.ndarray, L2Outcome]:
    """Resolve a block-address stream through an empty cache of ``cache``'s geometry.

    Gives the misses and counters the equivalent sequence of
    :meth:`~repro.gpu.cache.SetAssociativeCache.access` calls on a new
    cache would.  Reads only ``cache``'s sets and ways; modifies nothing.

    Args:
        cache: the cache whose geometry to use.
        addresses: per-access global block addresses.
        is_write: per-access write flags.

    Returns:
        The boolean miss mask aligned with ``addresses`` and the counter
        increments.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    is_write = np.asarray(is_write, dtype=np.bool_)
    n = addresses.shape[0]
    miss_mask = np.zeros(n, dtype=np.bool_)
    if n == 0:
        return miss_mask, L2Outcome((0, 0, 0, 0))
    if addresses.min() < 0:
        raise ValueError("block address must be non-negative")

    num_sets, ways = cache.num_sets, cache.ways
    set_idx = addresses % num_sets

    # Stable partition by set: within a set, original order is preserved.
    order = np.argsort(set_idx, kind="stable")
    per_set = np.bincount(set_idx, minlength=num_sets)
    starts = np.cumsum(per_set) - per_set

    # Rows = active sets sorted by stream length (descending), so at column t
    # the active rows are a prefix and shorter streams simply drop out.
    active_sets = np.nonzero(per_set)[0]
    lengths = per_set[active_sets]
    by_length = np.argsort(-lengths, kind="stable")
    active_sets, lengths = active_sets[by_length], lengths[by_length]
    rows = active_sets.shape[0]
    max_len = int(lengths[0])
    row_of_set = np.full(num_sets, -1, dtype=np.int64)
    row_of_set[active_sets] = np.arange(rows)

    addr_mat = np.full((rows, max_len), -1, dtype=np.int64)
    write_mat = np.zeros((rows, max_len), dtype=np.bool_)
    pos_mat = np.zeros((rows, max_len), dtype=np.int64)
    sorted_sets = set_idx[order]
    row_col = (row_of_set[sorted_sets], np.arange(n) - starts[sorted_sets])
    addr_mat[row_col] = addresses[order]
    write_mat[row_col] = is_write[order]
    pos_mat[row_col] = order

    # LRU stacks (MRU first), empty (-1) to start with.
    stack = np.full((rows, ways), -1, dtype=np.int64)
    dirty = np.zeros((rows, ways), dtype=np.bool_)

    hits = misses = evictions = writebacks = 0
    col_idx = np.arange(ways)
    # Number of rows still active at each column (lengths are descending).
    active_at = np.searchsorted(-lengths, -np.arange(max_len), side="left")
    for t in range(max_len):
        k = int(active_at[t])
        stacks, dirts = stack[:k], dirty[:k]
        addr = addr_mat[:k, t]
        write = write_mat[:k, t]

        match = stacks == addr[:, None]
        found = match.any(axis=1)
        pos = match.argmax(axis=1)
        victim = stacks[:, -1].copy()
        victim_dirty = dirts[:, -1].copy()
        new_dirty = (found & dirts[np.arange(k), pos]) | write

        # Rotate each stack: entries up to the touch point shift right and
        # the accessed line becomes MRU; a miss rotates the whole row,
        # pushing the LRU victim out.
        shifted = np.empty_like(stacks)
        shifted[:, 0] = addr
        shifted[:, 1:] = stacks[:, :-1]
        shifted_dirty = np.empty_like(dirts)
        shifted_dirty[:, 0] = new_dirty
        shifted_dirty[:, 1:] = dirts[:, :-1]
        cut = np.where(found, pos, ways - 1)
        moved = col_idx[None, :] <= cut[:, None]
        stack[:k] = np.where(moved, shifted, stacks)
        dirty[:k] = np.where(moved, shifted_dirty, dirts)

        miss = ~found
        evicted = miss & (victim != -1)
        hits += int(found.sum())
        misses += int(miss.sum())
        evictions += int(evicted.sum())
        writebacks += int((evicted & victim_dirty).sum())
        miss_mask[pos_mat[:k, t][miss]] = True

    return miss_mask, L2Outcome((hits, misses, evictions, writebacks))
