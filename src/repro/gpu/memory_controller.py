"""Memory controller with integrated (de)compressor and metadata cache.

As in Fig. 3 of the paper, the compressor, decompressor and metadata cache
(MDC) live in the memory controller.  Data travels to/from DRAM in compressed
form; the controller fetches only the number of MAG bursts recorded for the
block (falling back to the full block on an MDC miss) and decompresses on the
way to the L2.

What is stored lives in a :class:`BlockStore`: one address-indexed set of
arrays per run, shared by all of the run's controllers (an address belongs
to exactly one controller, so sharing changes nothing any controller sees).

A batched host-to-device copy only writes the store.  The run's replay
books those blocks (MDC fill, compression and lossy counts) before the
kernel's misses, while every MDC is still untouched
(:func:`unbooked_host_copies`): the vectorized engine counts them in its
plan, the scalar loop books them one at a time (:func:`book_host_copies`).
:meth:`MemoryController.store_block`, the per-block store of
``replay_mode="scalar"``, books a block as it stores it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.metadata_cache import MetadataCache
from repro.gpu.backends import CompressionBackend, StoredBatch, StoredBlock
from repro.gpu.dram import DRAMChannel, GDDR5Timing


def controller_index(addresses, interleave_blocks: int, n_controllers: int):
    """The controller serving each block address (an int or an int array).

    Groups of ``interleave_blocks`` consecutive blocks rotate across the
    ``n_controllers`` controllers.
    """
    return (addresses // interleave_blocks) % n_controllers


def shared_store(controllers: list["MemoryController"]) -> "BlockStore":
    """The one block store every controller of a run shares."""
    store = controllers[0].store
    if any(controller.store is not store for controller in controllers):
        raise ValueError("the controllers of one run must share one BlockStore")
    return store


def unbooked_host_copies(controllers: list["MemoryController"]) -> np.ndarray:
    """Addresses of the stored blocks no controller has booked yet, ascending.

    While every controller's MDC is untouched, everything in the shared
    store is a host-to-device copy written without booking; afterwards
    nothing is.
    """
    if any(c.mdc.stats.updates or len(c.mdc) for c in controllers):
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(shared_store(controllers).bursts)


def book_host_copies(controllers: list["MemoryController"], interleave_blocks: int) -> None:
    """Book every unbooked host copy on its controller, one block at a time.

    The n = 1 form of what a replay plan does before the kernel's misses.
    """
    for address in unbooked_host_copies(controllers).tolist():
        controllers[
            controller_index(address, interleave_blocks, len(controllers))
        ].book_stored(address)


class BlockStore:
    """The stored state of every block of one run, indexed by block address.

    Attributes:
        bursts: MAG bursts a read of each block fetches; 0 means the address
            was never stored.
        stored_bits: bits stored per block.
        lossy: whether the stored block's symbols were approximated.
        data: ``(n, block_size_bytes)`` uint8: what a read returns.

    The arrays are dense over the address space (a run sizes them to its
    layout) and grow on demand when a store lands beyond them; an address
    beyond them reads as never stored.
    """

    def __init__(self, block_size_bytes: int = 128, n_blocks: int = 0) -> None:
        self.block_size_bytes = block_size_bytes
        self.bursts = np.zeros(n_blocks, dtype=np.int64)
        self.stored_bits = np.zeros(n_blocks, dtype=np.int64)
        self.lossy = np.zeros(n_blocks, dtype=np.bool_)
        self.data = np.zeros((n_blocks, block_size_bytes), dtype=np.uint8)

    def __len__(self) -> int:
        return int(self.bursts.shape[0])

    def _reserve(self, n_blocks: int) -> None:
        if n_blocks <= len(self):
            return
        size = max(n_blocks, 2 * len(self))
        for name in ("bursts", "stored_bits", "lossy", "data"):
            old = getattr(self, name)
            grown = np.zeros((size,) + old.shape[1:], dtype=old.dtype)
            grown[: old.shape[0]] = old
            setattr(self, name, grown)

    def write(self, addresses: "slice | np.ndarray", batch: StoredBatch) -> None:
        """Store entry ``i`` of ``batch`` at ``addresses[i]``.

        ``addresses`` is a slice or an array of distinct addresses.
        """
        if isinstance(addresses, slice):
            end = addresses.stop
        else:
            end = int(addresses.max()) + 1 if len(addresses) else 0
        self._reserve(end)
        self.bursts[addresses] = batch.bursts
        self.stored_bits[addresses] = batch.stored_bits
        self.lossy[addresses] = batch.lossy
        self.data[addresses] = batch.data

    def put(self, address: int, stored: StoredBlock) -> None:
        """Store one block (the n = 1 path of :meth:`write`)."""
        self._reserve(address + 1)
        self.bursts[address] = stored.bursts
        self.stored_bits[address] = stored.stored_bits
        self.lossy[address] = stored.lossy
        self.data[address] = np.frombuffer(stored.data, dtype=np.uint8)

    def get(self, address: int) -> StoredBlock | None:
        """The block stored at ``address``, or ``None`` if it never was."""
        if address >= len(self) or not self.bursts[address]:
            return None
        return StoredBlock(
            bursts=int(self.bursts[address]),
            stored_bits=int(self.stored_bits[address]),
            data=self.data[address].tobytes(),
            lossy=bool(self.lossy[address]),
        )

    def bursts_at(self, addresses: np.ndarray) -> np.ndarray:
        """Stored burst counts at ``addresses`` (0 where never stored)."""
        out = np.zeros(addresses.shape, dtype=np.int64)
        inside = addresses < len(self)
        out[inside] = self.bursts[addresses[inside]]
        return out

    def read_rows(self, addresses: slice, original: np.ndarray) -> np.ndarray:
        """The rows at ``addresses`` (inside the store) as reads return them.

        Stored rows come from the store, never-stored ones from ``original``
        (the same rows before any store).
        """
        stored = self.bursts[addresses] > 0
        return np.where(stored[:, None], self.data[addresses], original)

    @property
    def stored_blocks(self) -> int:
        """Number of distinct addresses stored."""
        return int(np.count_nonzero(self.bursts))

    @property
    def total_stored_bits(self) -> int:
        """Bits stored over every stored block."""
        return int(self.stored_bits.sum())

    def digest(self) -> str:
        """SHA-256 over every stored block's state, in address order.

        Hashes address, burst count, stored bits, lossy flag and the stored
        (possibly degraded) data bytes, so two runs agree iff their store
        paths produced identical storage.
        """
        addresses = np.nonzero(self.bursts)[0]
        digest = hashlib.sha256()
        for address, bursts, bits, lossy in zip(
            addresses.tolist(),
            self.bursts[addresses].tolist(),
            self.stored_bits[addresses].tolist(),
            self.lossy[addresses].tolist(),
        ):
            digest.update(f"{address}:{bursts}:{bits}:{int(lossy)}:".encode())
            digest.update(self.data[address])
        return digest.hexdigest()


@dataclass
class MemoryControllerStats:
    """Traffic counters for one memory controller."""

    reads: int = 0
    writes: int = 0
    read_bursts: int = 0
    write_bursts: int = 0
    lossy_blocks: int = 0
    mdc_extra_bursts: int = 0
    compress_invocations: int = 0
    decompress_invocations: int = 0

    @property
    def total_bursts(self) -> int:
        """Bursts moved in either direction."""
        return self.read_bursts + self.write_bursts


class MemoryController:
    """One memory partition: compression backend + MDC + GDDR5 channel.

    Args:
        store: the run's shared :class:`BlockStore`; a controller used on
            its own gets a private one.
    """

    def __init__(
        self,
        controller_id: int,
        backend: CompressionBackend,
        mag_bytes: int = 32,
        block_size_bytes: int = 128,
        mdc_entries: int = 8192,
        timing: GDDR5Timing | None = None,
        store: BlockStore | None = None,
    ) -> None:
        self.controller_id = controller_id
        self.backend = backend
        self.mag_bytes = mag_bytes
        self.block_size_bytes = block_size_bytes
        self.mdc = MetadataCache(
            capacity_entries=mdc_entries,
            max_bursts=max(block_size_bytes // mag_bytes, backend.max_bursts),
        )
        self.channel = DRAMChannel(timing=timing, mag_bytes=mag_bytes)
        self.stats = MemoryControllerStats()
        self.store = store if store is not None else BlockStore(block_size_bytes)

    # ------------------------------------------------------------------ #
    # stores (host copies and kernel writebacks)

    def store_block(
        self,
        block_address: int,
        block: bytes,
        approximable: bool = True,
        count_traffic: bool = True,
    ) -> StoredBlock:
        """Compress and store a block.

        Args:
            block_address: global block address.
            block: raw block contents.
            approximable: whether the block's region is safe to approximate.
            count_traffic: whether to charge write bursts and DRAM busy time
                (host-to-device copies before the kernel are not charged).
        """
        stored = self.backend.store(block, approximable=approximable)
        self.store.put(block_address, stored)
        self.book_stored(block_address)
        if count_traffic:
            self.stats.writes += 1
            self.stats.write_bursts += stored.bursts
            self.channel.service(block_address * self.block_size_bytes, stored.bursts)
        return stored

    def book_stored(self, block_address: int) -> None:
        """Book a block already in the store: MDC entry and compression counts."""
        self.mdc.update(block_address, int(self.store.bursts[block_address]))
        self.stats.compress_invocations += 1
        if self.store.lossy[block_address]:
            self.stats.lossy_blocks += 1

    # ------------------------------------------------------------------ #
    # loads (L2 misses)

    def read_block(self, block_address: int) -> bytes:
        """Serve an L2 miss: fetch the recorded bursts and decompress.

        Blocks never written through this controller (e.g. constant data that
        the trace touches without a prior store) are treated as uncompressed.
        """
        stored = self.store.get(block_address)
        mdc_bursts = self.mdc.bursts_to_fetch(block_address)
        if stored is None:
            actual_bursts = self.backend.max_bursts
            data = bytes(self.block_size_bytes)
        else:
            actual_bursts = stored.bursts
            data = stored.data
        # On an MDC miss the controller conservatively fetches the worst case.
        bursts = max(actual_bursts, mdc_bursts) if mdc_bursts else actual_bursts
        self.stats.mdc_extra_bursts += max(0, bursts - actual_bursts)
        self.mdc.update(block_address, actual_bursts)

        self.stats.reads += 1
        self.stats.read_bursts += bursts
        self.stats.decompress_invocations += 1
        self.channel.service(block_address * self.block_size_bytes, bursts)
        return data

    # ------------------------------------------------------------------ #
    # queries

    @property
    def bytes_transferred(self) -> int:
        """Bytes moved over the DRAM bus (bursts × the controller's MAG)."""
        return self.stats.total_bursts * self.mag_bytes

    @property
    def busy_memory_cycles(self) -> int:
        """DRAM-channel busy time in memory-clock cycles."""
        return self.channel.busy_cycles
