"""Array model of the memory controller's metadata cache (MDC).

Every miss-path event touches the MDC: an L2 read miss does a ``lookup``
followed by an ``update`` (:meth:`MemoryController.read_block`), and a write
miss or store does an ``update`` (:meth:`MemoryController.store_block`).
Since every event ends with the address inserted most-recently-used, the MDC
behaves as a plain fully-associative LRU over the *event* stream.  Every
replay starts from an empty MDC, and the burst counts it stores never
change a hit, so :func:`replay_mdc` takes one controller's whole stream (the
host-copy fills, then the misses) and no values.

Two regimes:

* **No evictions possible** — the stream's distinct addresses fit in the
  capacity.  Then a lookup hits iff its address occurred earlier in the
  stream: one first-occurrence scan (counted as ``mdc.fast_path``).  This is
  the regime every real simulation at benchmark scale runs in.
* **Evictions possible** — the distinct count exceeds the capacity.  The
  events are replayed through the real :class:`~repro.core.metadata_cache.
  MetadataCache` methods, exact by construction (counted as
  ``mdc.fallback``).  This only occurs for workloads whose footprint
  overflows the 8192-entry MDC, where the per-event cost is still far below
  the full scalar miss path.
"""

from __future__ import annotations

import numpy as np

from repro.core.metadata_cache import MetadataCache
from repro.obs import metrics


def replay_mdc(
    capacity_entries: int,
    addresses: np.ndarray,
    is_lookup: np.ndarray,
) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """Replay one event stream through an empty MDC of ``capacity_entries``.

    Each event ``i`` is a ``lookup(addresses[i])`` (iff ``is_lookup[i]``)
    followed by an ``update`` of the address.

    Returns:
        A boolean array aligned with the events, ``True`` where a lookup
        hit, and the counter increments of the equivalent method calls:
        hits, misses, evictions, updates.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    is_lookup = np.asarray(is_lookup, dtype=np.bool_)
    n = addresses.shape[0]
    unique, first_index = np.unique(addresses, return_index=True)
    if unique.size > capacity_entries:
        if metrics.enabled():
            metrics.inc("mdc.fallback")
        mdc = MetadataCache(capacity_entries=capacity_entries, max_bursts=1)
        hits = np.zeros(n, dtype=np.bool_)
        for i, (address, lookup) in enumerate(zip(addresses.tolist(), is_lookup.tolist())):
            if lookup:
                hits[i] = mdc.lookup(address) is not None
            mdc.update(address, 1)
        stats = mdc.stats
        return hits, (stats.hits, stats.misses, stats.evictions, stats.updates)

    if metrics.enabled():
        metrics.inc("mdc.fast_path")
    seen_before = np.ones(n, dtype=np.bool_)
    seen_before[first_index] = False
    hits = is_lookup & seen_before
    n_hits = int(hits.sum())
    return hits, (n_hits, int(is_lookup.sum()) - n_hits, 0, n)
