"""Set-associative cache model with LRU replacement.

Used for the shared L2 cache of the GPU model (and reusable for the per-SM L1
if a finer model is needed).  Operates at block (line) granularity on the
global addresses the simulator assigns to workload regions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss/writeback counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit rate; 0.0 when no access has been made."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


class SetAssociativeCache:
    """A write-back, write-allocate, LRU set-associative cache.

    Args:
        size_bytes: total capacity.
        line_bytes: line (block) size.
        ways: associativity.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 128, ways: int = 16) -> None:
        if size_bytes <= 0 or line_bytes <= 0 or ways <= 0:
            raise ValueError("cache geometry must be positive")
        if size_bytes % (line_bytes * ways):
            raise ValueError(
                f"cache size {size_bytes} is not divisible by line×ways "
                f"({line_bytes}×{ways})"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        # Each set maps line address -> dirty flag, ordered by recency.  A
        # set is built on its first access: the array replay only adds to
        # the counters of a cache, so most caches never build one.
        self._sets: dict[int, OrderedDict[int, bool]] = {}
        self.stats = CacheStats()

    def _set_index(self, block_address: int) -> int:
        return block_address % self.num_sets

    def access(self, block_address: int, is_write: bool = False) -> bool:
        """Access a block; returns ``True`` on a hit.

        On a miss the line is allocated (write-allocate); the victim, if
        dirty, increments the writeback counter so the memory controller can
        account for the extra traffic.
        """
        if block_address < 0:
            raise ValueError("block address must be non-negative")
        index = self._set_index(block_address)
        target_set = self._sets.get(index)
        if target_set is None:
            target_set = self._sets[index] = OrderedDict()
        if block_address in target_set:
            target_set.move_to_end(block_address)
            if is_write:
                target_set[block_address] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(target_set) >= self.ways:
            _, dirty = target_set.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
        target_set[block_address] = is_write
        return False

    def contains(self, block_address: int) -> bool:
        """Whether a block is currently cached (does not update LRU/stats)."""
        return block_address in self._sets.get(self._set_index(block_address), ())

    def flush(self) -> int:
        """Write back all dirty lines and empty the cache.

        Every resident line leaves the cache, so the ``evictions`` counter
        grows by the pre-flush occupancy — the same accounting as a capacity
        eviction in :meth:`access` (it used to count only capacity evictions,
        silently undercounting lines removed by a flush).

        Returns:
            The number of dirty lines written back.
        """
        writebacks = 0
        for cache_set in self._sets.values():
            for _, dirty in cache_set.items():
                if dirty:
                    writebacks += 1
            self.stats.evictions += len(cache_set)
            cache_set.clear()
        self.stats.writebacks += writebacks
        return writebacks

    @property
    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets.values())
