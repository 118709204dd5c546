"""The vectorized trace-replay engine.

Reproduces the scalar kernel-execution loop of
:func:`~repro.replay.reference.replay_trace_scalar` — per-access L2 lookups,
per-miss memory-controller method chains — as a handful of array passes,
bit-exact on every counter the simulation result is assembled from:

1. the trace is compiled to flat address/write/count arrays
   (:meth:`~repro.gpu.trace.MemoryTrace.compile`),
2. the L2 resolves all hits at once (:func:`~repro.replay.l2.replay_l2`)
   yielding the miss stream in trace order,
3. write misses take their rows from the run's row matrix by address and go
   through the backend's batched analysis kernels *and* batched payload
   codec (``store_batch``: vectorized Fig. 4 decision plus one
   truncation/prediction pass over the lossy rows, see
   :mod:`repro.kernels.codec`), grouped by the region's ``approximable``
   flag,
4. the miss stream is partitioned per memory controller
   (``CHANNEL_INTERLEAVE_BLOCKS`` interleave) and each controller's events
   run through a vectorized storage-timeline forward fill (the burst count a
   read fetches is the one recorded by the latest preceding store, seeded
   from the shared :class:`~repro.gpu.memory_controller.BlockStore`), the
   MDC model (:func:`~repro.replay.mdc.replay_mdc`) and the grouped DRAM
   row-buffer scan (:func:`~repro.replay.dram.replay_dram`),
5. each write batch's final stores go back to the block store in one
   assignment.

The mutated objects (L2, controllers, their MDCs and channels, the block
store and the backend's own counters) end up in the same state the scalar
loop leaves them in, so result assembly and the degraded-input error
computation are unchanged.  :func:`record_host_stores` does the
controllers' book-keeping of the host-to-device copy the same way.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.memory_controller import BlockStore, MemoryController, controller_index
from repro.gpu.trace import MemoryTrace
from repro.obs import metrics
from repro.obs.tracing import span
from repro.replay.dram import replay_dram
from repro.replay.l2 import replay_l2
from repro.replay.mdc import replay_mdc
from repro.utils.blocks import block_count
from repro.workloads.base import Region


def _shared_store(controllers: list[MemoryController]) -> BlockStore:
    """The one block store every controller of a run shares."""
    store = controllers[0].store
    if any(controller.store is not store for controller in controllers):
        raise ValueError("the controllers of one run must share one BlockStore")
    return store


def record_host_stores(
    controllers: list[MemoryController],
    addresses: np.ndarray,
    interleave_blocks: int,
) -> None:
    """Book-keep host-to-device copies already written to the block store.

    Equivalent to ``store_block(address, ..., count_traffic=False)`` on the
    owning controller for each address in order: each controller counts its
    compressions and lossy blocks and refreshes its MDC entries with the
    stored burst counts (update-only events through
    :func:`~repro.replay.mdc.replay_mdc`, whose exact path covers
    evictions).
    """
    store = _shared_store(controllers)
    owner = controller_index(addresses, interleave_blocks, len(controllers))
    for c, controller in enumerate(controllers):
        mine = addresses[owner == c]
        if not mine.size:
            continue
        replay_mdc(
            controller.mdc, mine, np.zeros(mine.shape, dtype=np.bool_),
            store.bursts[mine],
        )
        controller.stats.compress_invocations += int(mine.size)
        controller.stats.lossy_blocks += int(store.lossy[mine].sum())


def replay_trace(
    trace: MemoryTrace,
    *,
    all_regions: dict[str, Region],
    rows: np.ndarray,
    base_addresses: dict[str, int],
    l2: SetAssociativeCache,
    controllers: list[MemoryController],
    interleave_blocks: int,
    chunk_accesses: int | None = None,
) -> None:
    """Replay the kernel's block trace at array speed.

    Same signature and same observable effects as
    :func:`~repro.replay.reference.replay_trace_scalar`.

    With ``chunk_accesses`` set, the compiled trace is processed in bounded
    windows of at most that many compiled (RLE) entries, threading the L2,
    MDC, DRAM open-row and storage-timeline state across chunk boundaries
    through the mutable model objects themselves — every replay stage
    composes (:func:`~repro.replay.l2.replay_l2` seeds from and writes back
    the cache; block store, MDC and channel state advance in place), so
    all counters and stored payloads are bit-identical to the unchunked
    replay while peak memory stays O(chunk) instead of O(trace).
    """
    if chunk_accesses is not None:
        if chunk_accesses <= 0:
            raise ValueError("chunk_accesses must be positive")
        n_chunks = 0
        for compiled in trace.compile_chunks(base_addresses, chunk_accesses):
            n_chunks += 1
            with span("replay.chunk", cat="replay", entries=len(compiled)):
                _replay_compiled(
                    compiled,
                    all_regions=all_regions,
                    rows=rows,
                    l2=l2,
                    controllers=controllers,
                    interleave_blocks=interleave_blocks,
                )
        if metrics.enabled():
            metrics.inc("replay.chunks", n_chunks)
            metrics.observe("replay.peak_rss_mib", metrics.peak_rss_mib())
        return
    with span("replay.compile", cat="replay"):
        compiled = trace.compile(base_addresses)
    _replay_compiled(
        compiled,
        all_regions=all_regions,
        rows=rows,
        l2=l2,
        controllers=controllers,
        interleave_blocks=interleave_blocks,
    )
    if metrics.enabled():
        metrics.observe("replay.peak_rss_mib", metrics.peak_rss_mib())


def _replay_compiled(
    compiled,
    *,
    all_regions: dict[str, Region],
    rows: np.ndarray,
    l2: SetAssociativeCache,
    controllers: list[MemoryController],
    interleave_blocks: int,
) -> None:
    """Replay one compiled window (the whole trace, or one chunk)."""
    store = _shared_store(controllers)
    with span("replay.l2", cat="replay", accesses=int(compiled.addresses.shape[0])):
        miss_mask = replay_l2(
            l2, compiled.addresses, compiled.is_write, compiled.counts
        )
    if metrics.enabled():
        metrics.inc("replay.accesses", int(compiled.counts.sum()))
        metrics.inc("replay.l2_misses", int(miss_mask.sum()))
    if not miss_mask.any():
        return

    miss_addr = compiled.addresses[miss_mask]
    miss_write = compiled.is_write[miss_mask]
    miss_region = compiled.region_index[miss_mask]
    n_miss = miss_addr.shape[0]
    backend = controllers[0].backend

    # ------------------------------------------------------------------ #
    # write misses: batched compression decisions + batched payload codec,
    # grouped by approximable flag (per-block results and the backend's own
    # counters are identical to per-miss ``store`` calls; only the call
    # grouping differs).
    miss_bursts = np.zeros(n_miss, dtype=np.int64)
    miss_lossy = np.zeros(n_miss, dtype=np.bool_)
    write_backs = []
    write_indices = np.nonzero(miss_write)[0]
    if write_indices.size:
        with span("replay.store_batch", cat="replay",
                  writes=int(write_indices.size)):
            regions = [all_regions[name] for name in compiled.regions]
            _check_write_bounds(
                regions,
                miss_region[write_indices],
                compiled.block_index[miss_mask][write_indices],
                rows.shape[1],
            )
            approximable = np.fromiter(
                (region.approximable for region in regions), np.bool_, len(regions)
            )
            write_approx = approximable[miss_region[write_indices]]
            for flag in (True, False):
                selected = write_indices[write_approx == flag]
                if not selected.size:
                    continue
                addresses = miss_addr[selected]
                batch = backend.store_batch(rows[addresses], approximable=flag)
                miss_bursts[selected] = batch.bursts
                miss_lossy[selected] = batch.lossy
                write_backs.append((addresses, batch))

    # ------------------------------------------------------------------ #
    # per-controller miss-path accounting, seeded from the store as it was
    # before this window's writes
    with span("replay.controllers", cat="replay", misses=n_miss):
        initial_bursts = store.bursts_at(miss_addr)
        owner = controller_index(miss_addr, interleave_blocks, len(controllers))
        by_controller = np.argsort(owner, kind="stable")
        counts = np.bincount(owner, minlength=len(controllers))
        offsets = np.cumsum(counts) - counts
        for c, controller in enumerate(controllers):
            if not counts[c]:
                continue
            events = by_controller[offsets[c] : offsets[c] + counts[c]]
            _replay_controller(
                controller,
                addresses=miss_addr[events],
                is_write=miss_write[events],
                stored_bursts=miss_bursts[events],
                initial_bursts=initial_bursts[events],
                lossy=miss_lossy[events],
            )

    # The store ends up holding each written address's last stored block.
    for addresses, batch in write_backs:
        last = addresses.shape[0] - 1 - np.unique(addresses[::-1], return_index=True)[1]
        store.write(addresses[last], batch.take(last))


def _check_write_bounds(
    regions: list[Region],
    region_index: np.ndarray,
    block_index: np.ndarray,
    block_size: int,
) -> None:
    """Reject a write past the end of its region (there is no row for it)."""
    limits = np.fromiter(
        (block_count(region.array, block_size) for region in regions),
        np.int64,
        len(regions),
    )
    outside = np.nonzero(block_index >= limits[region_index])[0]
    if outside.size:
        first = outside[0]
        raise IndexError(
            f"write to block {int(block_index[first])} of region "
            f"{regions[region_index[first]].name!r}, which has "
            f"{int(limits[region_index[first]])} blocks"
        )


def _replay_controller(
    controller: MemoryController,
    *,
    addresses: np.ndarray,
    is_write: np.ndarray,
    stored_bursts: np.ndarray,
    initial_bursts: np.ndarray,
    lossy: np.ndarray,
) -> None:
    """Account one controller's miss events (in service order).

    ``initial_bursts`` holds each event's address's stored burst count
    before the window (0 if never stored); ``stored_bursts`` and ``lossy``
    describe the write events' new stores.
    """
    n = addresses.shape[0]
    is_read = ~is_write

    # Storage timeline: the burst count a read fetches is the one recorded
    # by the latest preceding store of that address — seeded from the block
    # store (host-to-device copies, earlier windows; never-stored blocks
    # read uncompressed), advanced by write misses.  Computed as a
    # per-address forward fill over events sorted by (address, time).
    seed = np.where(initial_bursts > 0, initial_bursts, controller.backend.max_bursts)
    unique = np.unique(addresses)
    by_address = np.argsort(addresses, kind="stable")
    sorted_addresses = addresses[by_address]
    sorted_writes = is_write[by_address]
    sorted_bursts = stored_bursts[by_address]
    group = np.searchsorted(unique, sorted_addresses)
    group_start = np.searchsorted(sorted_addresses, unique)
    last_store = np.maximum.accumulate(
        np.where(sorted_writes, np.arange(n), -1)
    )
    stored_before = last_store >= group_start[group]
    sorted_actual = np.where(
        stored_before,
        sorted_bursts[np.maximum(last_store, 0)],
        seed[by_address],
    )
    actual = np.empty(n, dtype=np.int64)
    actual[by_address] = sorted_actual

    # MDC: reads do a lookup (miss -> conservative worst-case fetch), every
    # event refreshes the entry with the current burst count.
    values = np.where(is_write, stored_bursts, actual)
    mdc_hit = replay_mdc(controller.mdc, addresses, is_read, values)
    fetched = np.where(
        is_write,
        stored_bursts,
        np.where(mdc_hit, actual, controller.mdc.max_bursts),
    )

    stats = controller.stats
    n_reads = int(is_read.sum())
    n_writes = n - n_reads
    stats.reads += n_reads
    stats.writes += n_writes
    stats.read_bursts += int(fetched[is_read].sum())
    stats.write_bursts += int(stored_bursts[is_write].sum())
    stats.decompress_invocations += n_reads
    stats.compress_invocations += n_writes
    stats.mdc_extra_bursts += int((fetched[is_read] - actual[is_read]).sum())
    stats.lossy_blocks += int(lossy[is_write].sum())

    replay_dram(
        controller.channel,
        addresses * controller.block_size_bytes,
        fetched,
    )
