"""Array model of the memory controller's metadata cache (MDC).

Every miss-path event touches the MDC: an L2 read miss does a ``lookup``
followed by an ``update`` (:meth:`MemoryController.read_block`), and a write
miss or store does an ``update`` (:meth:`MemoryController.store_block`).
Since every event ends with the address inserted most-recently-used, the MDC
behaves as a plain fully-associative LRU over the *event* stream, and a
lookup hits iff fewer than ``capacity_entries`` distinct addresses were
touched since the address's previous event — the same reuse-distance
condition the L2 model uses.

Two regimes:

* **No evictions possible** — the total distinct address count (resident
  entries plus the event stream's addresses) fits in the capacity.  Then a
  lookup hits iff the address was touched by an earlier event or is already
  resident, which is a couple of vectorized first-occurrence scans.  This is
  the regime every real simulation at benchmark scale runs in.
* **Evictions possible** — the distinct count exceeds the capacity.  The
  events are replayed through the real :class:`~repro.core.metadata_cache.
  MetadataCache` methods (exact by construction).  This only occurs for
  workloads whose footprint overflows the 8192-entry MDC, where the
  per-event cost is still far below the full scalar miss path.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.core.metadata_cache import MetadataCache
from repro.obs import metrics


def replay_mdc(
    mdc: MetadataCache,
    addresses: np.ndarray,
    is_lookup: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Replay a controller's MDC event stream.

    Each event ``i`` is a ``lookup(addresses[i])`` (iff ``is_lookup[i]``)
    followed by an ``update(addresses[i], values[i])``.  Mutates ``mdc``
    (stats and resident entries, including LRU order) exactly as the
    equivalent method-call sequence would.

    Returns:
        Boolean array aligned with events: ``True`` where a lookup hit
        (``False`` on lookup misses and on non-lookup events).
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    is_lookup = np.asarray(is_lookup, dtype=np.bool_)
    values = np.asarray(values, dtype=np.int64)
    n = addresses.shape[0]
    hits = np.zeros(n, dtype=np.bool_)
    if n == 0:
        return hits

    unique, first_index = np.unique(addresses, return_index=True)
    resident = np.fromiter(mdc._entries, np.int64, len(mdc._entries))
    keep = ~np.isin(resident, unique)
    untouched = resident[keep]
    if len(unique) + len(untouched) > mdc.capacity_entries:
        # Evictions are possible: replay through the exact scalar MDC.
        if metrics.enabled():
            metrics.inc("mdc.fallback")
        for i, (address, lookup, value) in enumerate(
            zip(addresses.tolist(), is_lookup.tolist(), values.tolist())
        ):
            if lookup:
                hits[i] = mdc.lookup(address) is not None
            mdc.update(address, value)
        return hits

    # No eviction can occur: a lookup hits iff the address was touched by an
    # earlier event or is already resident.
    if metrics.enabled():
        metrics.inc("mdc.fast_path")
    if values.min() < 1 or values.max() > mdc.max_bursts:
        raise ValueError(f"burst count must be 1..{mdc.max_bursts}")
    first_occurrence = np.zeros(n, dtype=np.bool_)
    first_occurrence[first_index] = True
    present_before = ~first_occurrence | np.isin(addresses, resident)
    hits = is_lookup & present_before
    lookups = int(is_lookup.sum())
    mdc.stats.hits += int(hits.sum())
    mdc.stats.misses += lookups - int(hits.sum())
    mdc.stats.updates += n

    # Rebuild the entries: untouched residents keep their relative LRU order
    # below every touched address; touched addresses rank by last event.
    last_index = n - 1 - np.unique(addresses[::-1], return_index=True)[1]
    recency = np.argsort(last_index)
    resident_values = np.fromiter(mdc._entries.values(), np.int64, len(mdc._entries))
    keys = np.concatenate([untouched, unique[recency]])
    entry_values = np.concatenate([resident_values[keep], values[last_index[recency]]])
    mdc._entries = OrderedDict(zip(keys.tolist(), entry_values.tolist()))
    return hits
