"""Replay plans: the scheme-independent part of a trace replay, built once.

Every replay starts from a fresh machine: an empty L2, empty MDCs and
precharged DRAM banks.  So most of what the kernel-execution phase decides
does not depend on the compression backend.  It depends only on the trace,
the run's layout and the simulator geometry: the L2 size, line and ways,
the controller count and interleave, the MDC entries and the DRAM timing.

* which accesses miss the L2, and the L2's counters
  (:func:`~repro.replay.l2.resolve_l2`);
* which controller serves each miss, and in what order;
* which store each read fetches: the latest earlier write miss of its
  address, else what the block store held when the replay started (the host
  copy), else nothing, which reads uncompressed;
* every MDC hit and the MDC's counters, from one pass per controller over
  the fills of its unbooked host copies followed by its misses
  (:func:`~repro.replay.mdc.replay_mdc`; stored values never change a hit);
* each DRAM channel's row misses and precharges
  (:func:`~repro.replay.dram.scan_rows`);
* the write misses, and the last of them to store each address.

A :class:`ReplayPlan` holds all of it as read-only arrays, and
:func:`evaluate` does the backend's part per job: the write misses' stores,
the burst gathers and sums, the range check of the burst counts the MDC
records (``1..max_bursts``), the DRAM busy cycles and the final stores.  It
writes counters into the run's L2, controllers, MDCs and channels, never
their contents.  A :class:`ReplayCache` keeps one prepared input's plans,
keyed by geometry, its lossless per-row sizes and its compact Fig. 4
decisions, so every scheme and MAG simulated on the input shares them: an
SLC store reads its decision (built once per model, MAG, threshold and
tree layout, from the E2MC sizes and each row's approximable flag) and
only refills its lossy rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.gpu.backends import CompressionBackend, StoredBatch, compressed_sizes
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.memory_controller import (
    MemoryController,
    controller_index,
    shared_store,
    unbooked_host_copies,
)
from repro.gpu.trace import CompiledTrace, MemoryTrace
from repro.obs import metrics
from repro.obs.tracing import span
from repro.replay.dram import RowScan, apply_rows, scan_rows
from repro.replay.l2 import L2Outcome, resolve_l2
from repro.replay.mdc import replay_mdc
from repro.utils.blocks import block_count
from repro.workloads.base import Region

if TYPE_CHECKING:
    from repro.kernels.decision import CompactDecisions


@dataclass(frozen=True, eq=False)
class ControllerPlan:
    """One memory controller's part of a :class:`ReplayPlan`."""

    #: indices of the misses it serves, in service order
    events: np.ndarray
    #: indices into :attr:`ReplayPlan.host_addresses` of its host copies
    host: np.ndarray
    #: MDC counter increments: hits, misses, evictions, updates
    mdc_stats: tuple[int, int, int, int]
    #: the channel's row-buffer outcome
    rows: RowScan


@dataclass(frozen=True, eq=False)
class ReplayPlan:
    """The backend-independent outcome of one trace's replay on a fresh machine."""

    #: accesses replayed
    accesses: int
    l2: L2Outcome
    #: the L2 miss stream in trace order: block address and write flag
    addresses: np.ndarray
    is_write: np.ndarray
    #: per miss: the write miss whose store it sees (itself for a write),
    #: or -1 for the store's state before the replay
    source: np.ndarray
    #: per miss: whether its MDC lookup hits (never for a write)
    mdc_hit: np.ndarray
    #: indices of the write misses, and the entry of :attr:`writes` that
    #: stores each written address last
    writes: np.ndarray
    last: np.ndarray
    #: the host copies the replay books first, ascending
    host_addresses: np.ndarray
    controllers: tuple[ControllerPlan, ...]


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


def _check_bounds(compiled: CompiledTrace, regions: list[Region], block_size: int) -> None:
    """Reject an access past the end of its region (there is no row for it)."""
    limits = np.fromiter(
        (block_count(region.array, block_size) for region in regions),
        np.int64,
        len(regions),
    )
    outside = np.flatnonzero(compiled.block_index >= limits[compiled.region_index])
    if outside.size:
        first = outside[0]
        region = compiled.region_index[first]
        verb = "write to" if compiled.is_write[first] else "read of"
        raise IndexError(
            f"{verb} block {int(compiled.block_index[first])} of region "
            f"{regions[region].name!r}, which has {int(limits[region])} blocks"
        )


def _store_sources(addresses: np.ndarray, is_write: np.ndarray) -> np.ndarray:
    """Per miss, the latest write miss of its address up to and including it.

    A per-address forward fill over the misses sorted by (address, time);
    -1 where the address has no write miss yet.
    """
    n = addresses.shape[0]
    by_address = np.argsort(addresses, kind="stable")
    sorted_addresses = addresses[by_address]
    last_write = np.maximum.accumulate(
        np.where(is_write[by_address], np.arange(n), -1)
    )
    group_start = np.searchsorted(sorted_addresses, sorted_addresses)
    source = np.empty(n, dtype=np.int64)
    source[by_address] = np.where(
        last_write >= group_start, by_address[np.maximum(last_write, 0)], -1
    )
    return source


def _plan_mdc(
    capacity_entries: int,
    host: np.ndarray,
    addresses: np.ndarray,
    is_read: np.ndarray,
) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """MDC hits and counters of one controller: its host fills, then its
    miss events, in one pass from an empty MDC.

    Returns the events' hits and the counter increments.
    """
    hits, stats = replay_mdc(
        capacity_entries,
        np.concatenate([host, addresses]),
        np.concatenate([np.zeros(host.size, dtype=np.bool_), is_read]),
    )
    return hits[host.size:], stats


def build_plan(
    compiled: CompiledTrace,
    *,
    regions: list[Region],
    block_size: int,
    l2: SetAssociativeCache,
    controllers: list[MemoryController],
    interleave_blocks: int,
) -> ReplayPlan:
    """Plan the replay of ``compiled`` on a fresh machine of the objects' geometry.

    ``regions`` are ``compiled.regions`` in order.  The host copies the plan
    books are the store's unbooked ones.  Nothing is modified.

    Raises:
        IndexError: if an access lies past the end of its region.
    """
    _check_bounds(compiled, regions, block_size)
    with span("replay.l2", cat="replay", accesses=len(compiled)):
        miss, l2_outcome = resolve_l2(l2, compiled.addresses, compiled.is_write)
    addresses = compiled.addresses[miss]
    is_write = compiled.is_write[miss]
    owner = controller_index(addresses, interleave_blocks, len(controllers))
    host = unbooked_host_copies(controllers)
    host_owner = controller_index(host, interleave_blocks, len(controllers))

    writes = np.flatnonzero(is_write)
    written = addresses[writes]
    last = written.size - 1 - np.unique(written[::-1], return_index=True)[1]

    mdc_hit = np.zeros(addresses.shape[0], dtype=np.bool_)
    parts = []
    with span("replay.controllers", cat="replay", misses=int(addresses.shape[0])):
        for c, controller in enumerate(controllers):
            events = np.flatnonzero(owner == c)
            mine = np.flatnonzero(host_owner == c)
            hits, mdc_stats = _plan_mdc(
                controller.mdc.capacity_entries,
                host[mine], addresses[events], ~is_write[events],
            )
            mdc_hit[events] = hits
            _read_only(events, mine)
            parts.append(ControllerPlan(
                events=events,
                host=mine,
                mdc_stats=mdc_stats,
                rows=scan_rows(
                    controller.channel.timing,
                    addresses[events] * controller.block_size_bytes,
                ),
            ))

    plan = ReplayPlan(
        accesses=len(compiled),
        l2=l2_outcome,
        addresses=addresses,
        is_write=is_write,
        source=_store_sources(addresses, is_write),
        mdc_hit=mdc_hit,
        writes=writes,
        last=last,
        host_addresses=host,
        controllers=tuple(parts),
    )
    _read_only(
        plan.addresses, plan.is_write, plan.source, plan.mdc_hit, plan.writes,
        plan.last, plan.host_addresses,
    )
    return plan


def evaluate(
    plan: ReplayPlan,
    *,
    cache: "ReplayCache",
    l2: SetAssociativeCache,
    controllers: list[MemoryController],
) -> None:
    """Apply ``plan`` with the controllers' backend.

    The objects must be fresh and their store must hold the host copies the
    plan books.  Write misses are stored through ``cache`` (its per-row
    sizes where the backend has them).

    Raises:
        ValueError: if a burst count the MDC would record lies outside
            ``1..max_bursts``.
    """
    store = shared_store(controllers)
    backend = controllers[0].backend
    n = plan.addresses.shape[0]

    bursts = np.zeros(n, dtype=np.int64)
    lossy = np.zeros(n, dtype=np.bool_)
    written = plan.addresses[plan.writes]
    if written.size:
        with span("replay.store_batch", cat="replay", writes=int(written.size)):
            batch = cache.store(backend, written)
        bursts[plan.writes] = batch.bursts
        lossy[plan.writes] = batch.lossy

    # The bursts each miss's block is stored with: its source write's, else
    # the store's before the replay (a never-stored block reads uncompressed).
    before = store.bursts_at(plan.addresses)
    actual = np.where(
        plan.source >= 0,
        bursts[plan.source],
        np.where(before > 0, before, backend.max_bursts),
    )
    host_bursts = store.bursts[plan.host_addresses]
    host_lossy = store.lossy[plan.host_addresses]

    for controller, part in zip(controllers, plan.controllers):
        mdc = controller.mdc
        write = plan.is_write[part.events]
        read = ~write
        values = actual[part.events]
        recorded = np.concatenate([host_bursts[part.host], values])
        if recorded.size and (recorded.min() < 1 or recorded.max() > mdc.max_bursts):
            raise ValueError(f"burst count must be 1..{mdc.max_bursts}")
        # A read that misses the MDC fetches the worst case.
        fetched = np.where(write | plan.mdc_hit[part.events], values, mdc.max_bursts)
        read_bursts = int(fetched[read].sum())
        write_bursts = int(values[write].sum())
        n_reads = int(read.sum())
        n_writes = part.events.size - n_reads

        stats = controller.stats
        stats.reads += n_reads
        stats.writes += n_writes
        stats.read_bursts += read_bursts
        stats.write_bursts += write_bursts
        stats.decompress_invocations += n_reads
        stats.compress_invocations += n_writes + part.host.size
        stats.mdc_extra_bursts += read_bursts - int(values[read].sum())
        stats.lossy_blocks += (
            int(lossy[part.events].sum()) + int(host_lossy[part.host].sum())
        )

        hits, misses, evictions, updates = part.mdc_stats
        mdc.stats.hits += hits
        mdc.stats.misses += misses
        mdc.stats.evictions += evictions
        mdc.stats.updates += updates
        apply_rows(controller.channel, part.rows, read_bursts + write_bursts)

    plan.l2.apply(l2)
    if written.size:
        store.write(written[plan.last], batch.take(plan.last))
    if metrics.enabled():
        metrics.inc("replay.accesses", plan.accesses)
        metrics.inc("replay.l2_misses", n)


def _geometry(
    l2: SetAssociativeCache, controllers: list[MemoryController], interleave_blocks: int
) -> tuple:
    """Everything besides the trace that a plan depends on."""
    return (
        l2.size_bytes, l2.line_bytes, l2.ways, interleave_blocks,
        tuple(
            (c.block_size_bytes, c.mdc.capacity_entries, c.channel.timing)
            for c in controllers
        ),
    )


def _fresh(l2: SetAssociativeCache, controllers: list[MemoryController]) -> bool:
    """Whether nothing has run on these objects yet: their counters read 0."""
    return not l2.stats.accesses and all(
        not (c.mdc.stats.accesses or c.mdc.stats.updates or c.channel.stats.requests)
        for c in controllers
    )


class ReplayCache:
    """What the runs on one prepared input share: plans, sizes, decisions.

    A :class:`~repro.gpu.simulator.PreparedInput` holds one; it is dropped
    with the input.

    * :attr:`plans` maps a geometry (:func:`_geometry`) to the plan of a
      replay on a fresh machine of that geometry.
    * :attr:`sizes` maps a compressor's
      :attr:`~repro.compression.base.BlockCompressor.size_key` to the
      stored bits of every row, computed once
      (:func:`~repro.gpu.backends.compressed_sizes`, which bounds its own
      temporaries).  Another MAG then only re-rounds the bursts.
    * :attr:`decisions` maps an SLC backend's
      :attr:`~repro.gpu.backends.SLCBackend.decision_key` to the compact
      Fig. 4 decision of every row
      (:class:`~repro.kernels.decision.CompactDecisions`, a few bytes per
      row).  The decision reads each row's payload off its baseline's E2MC
      sizes (shared with the E2MC runs), takes each row's own
      :attr:`approximable` flag, so only rows of safe-to-approximate
      regions are lossy candidates, and gathers code lengths for those
      candidates only.  TSLC-SIMP and TSLC-PRED share one decision per MAG
      and threshold; each store then only refills its lossy rows.

    Every array it holds is read-only.  Threads sharing an input may race
    to build the same plan, sizes or decision; both results are equal, and
    either is kept.

    Args:
        trace: the input's block trace.
        rows: the input's row matrix, row ``a`` holding block address ``a``.
        approximable: ``(n_rows,)`` bool: whether row ``a`` lies in a
            safe-to-approximate region (kept read-only).
    """

    def __init__(self, trace: MemoryTrace, rows: np.ndarray, approximable: np.ndarray) -> None:
        _read_only(approximable)
        self.trace = trace
        self.rows = rows
        self.approximable = approximable
        self.plans: dict[tuple, ReplayPlan] = {}
        self.sizes: dict[tuple, np.ndarray] = {}
        self.decisions: dict[tuple, CompactDecisions] = {}

    def _sizes(self, key: tuple, compute: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """The sizes memoized under ``key``, else ``compute(rows)`` (kept)."""
        sizes = self.sizes.get(key)
        if sizes is None:
            sizes = compute(self.rows)
            _read_only(sizes)
            self.sizes[key] = sizes
        return sizes

    def store(
        self, backend: CompressionBackend, addresses: "slice | np.ndarray"
    ) -> StoredBatch:
        """``backend.store_batch(rows[addresses], approximable[addresses])``,
        from the memoized sizes or decision when the backend has a key for
        them."""
        key = backend.size_key
        if key is not None:
            sizes = self._sizes(key, backend.size_bits)
            return backend.from_sizes(sizes[addresses], self.rows[addresses])
        key = backend.decision_key
        if key is None:
            return backend.store_batch(
                self.rows[addresses], approximable=self.approximable[addresses]
            )
        baseline = backend.slc.baseline
        sizes = self._sizes(
            baseline.size_key, lambda rows: compressed_sizes(baseline, rows)
        )
        decisions = self.decisions.get(key)
        if decisions is None:
            _, decisions = backend.decide(
                self.rows, self.approximable, backend.payload_bits(sizes)
            )
            _read_only(*decisions.arrays())
            self.decisions[key] = decisions
        return backend.from_decisions(
            self.rows, backend.payload_bits(sizes[addresses]), decisions, addresses
        )

    def plan(
        self,
        trace: MemoryTrace,
        rows: np.ndarray,
        l2: SetAssociativeCache,
        controllers: list[MemoryController],
        interleave_blocks: int,
        build: Callable[[], ReplayPlan],
    ) -> ReplayPlan:
        """The cached plan for this geometry, else ``build()``'s (kept).

        Counts ``replay.plan.reuse`` on a hit under
        :func:`repro.obs.metrics.enabled`.

        Raises:
            ValueError: if ``trace`` or ``rows`` belong to another input, or
                the objects are not fresh, or their store holds other host
                copies than the cached plan books.
        """
        if trace is not self.trace or rows is not self.rows:
            raise ValueError("the replay cache belongs to another prepared input")
        if not _fresh(l2, controllers):
            raise ValueError(
                "a cached replay plan starts from fresh L2, MDC and DRAM state"
            )
        key = _geometry(l2, controllers, interleave_blocks)
        plan = self.plans.get(key)
        if plan is None:
            plan = self.plans[key] = build()
            return plan
        if not np.array_equal(unbooked_host_copies(controllers), plan.host_addresses):
            raise ValueError("the block store holds other host copies than the plan")
        if metrics.enabled():
            metrics.inc("replay.plan.reuse")
        return plan
