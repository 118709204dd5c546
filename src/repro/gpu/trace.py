"""Memory access traces.

Workloads describe their DRAM-visible traffic as a sequence of block-level
accesses over named memory regions.  The trace is deliberately block-granular
(128 B) because that is the granularity at which the L2, the compressors and
the DRAM burst accounting all operate.

Internally a trace is a list of *segments*: either a single
:class:`MemoryAccess` (appended individually) or a compact array-backed
stream built by :meth:`MemoryTrace.add_stream`.  Million-access streaming
traces therefore never materialize per-access Python objects; the scalar
replay path generates :class:`MemoryAccess` objects lazily while iterating,
and the vectorized replay engine (:mod:`repro.replay`) consumes the flat
arrays produced by :meth:`MemoryTrace.as_arrays` / :meth:`MemoryTrace.compile`
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np


class AccessType(Enum):
    """Read or write, as seen at the L2 / memory-controller boundary."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class MemoryAccess:
    """One block-granular memory access.

    Attributes:
        region: name of the memory region (allocation) being accessed.
        block_index: index of the 128 B block within that region.
        access_type: read or write.
        count: how many times this access is repeated back to back (a compact
            representation for streaming loops).
    """

    region: str
    block_index: int
    access_type: AccessType = AccessType.READ
    count: int = 1

    def __post_init__(self) -> None:
        if self.block_index < 0:
            raise ValueError("block_index must be non-negative")
        if self.count <= 0:
            raise ValueError("count must be positive")

    @property
    def is_write(self) -> bool:
        """Whether the access is a write."""
        return self.access_type is AccessType.WRITE


@dataclass(frozen=True)
class _StreamSegment:
    """A run of single-count accesses to one region, stored as an array."""

    region: str
    block_indices: np.ndarray  # int64, one entry per access
    is_write: bool


@dataclass(frozen=True)
class TraceArrays:
    """A trace flattened to per-access NumPy columns (region-relative).

    Attributes:
        region_index: per-access index into :attr:`regions`.
        block_index: per-access block index within its region.
        is_write: per-access write flag.
        counts: per-access back-to-back repeat count (RLE, never expanded).
        regions: region names, in first-use order.
    """

    region_index: np.ndarray
    block_index: np.ndarray
    is_write: np.ndarray
    counts: np.ndarray
    regions: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.region_index.shape[0])


@dataclass(frozen=True)
class CompiledTrace:
    """A trace compiled against a region layout: flat global addresses.

    This is the input format of the vectorized replay engine
    (:mod:`repro.replay`).  ``counts`` keeps the run-length encoding of
    back-to-back repeats: the engine resolves a repeated access as one real
    L2 lookup plus ``count - 1`` guaranteed hits, so repeats are never
    expanded on the hot path.  :meth:`expanded` materializes the full
    per-access sequence for reference models and tests.
    """

    #: per-access global block address (region base + block index)
    addresses: np.ndarray
    #: per-access write flag
    is_write: np.ndarray
    #: per-access back-to-back repeat count
    counts: np.ndarray
    #: per-access index into :attr:`regions`
    region_index: np.ndarray
    #: per-access block index within the region
    block_index: np.ndarray
    #: region names, in first-use order
    regions: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.addresses.shape[0])

    @property
    def total_accesses(self) -> int:
        """Number of accesses including repeat counts."""
        return int(self.counts.sum())

    def expanded(self) -> tuple[np.ndarray, np.ndarray]:
        """RLE-expanded ``(addresses, is_write)`` with repeats materialized."""
        return (
            np.repeat(self.addresses, self.counts),
            np.repeat(self.is_write, self.counts),
        )


class MemoryTrace:
    """An ordered sequence of :class:`MemoryAccess` entries."""

    def __init__(self, accesses: Iterable[MemoryAccess] | None = None) -> None:
        self._segments: list[MemoryAccess | _StreamSegment] = []
        if accesses:
            self.extend(accesses)

    def __len__(self) -> int:
        return sum(
            1 if isinstance(seg, MemoryAccess) else len(seg.block_indices)
            for seg in self._segments
        )

    def __iter__(self) -> Iterator[MemoryAccess]:
        for seg in self._segments:
            if isinstance(seg, MemoryAccess):
                yield seg
            else:
                access_type = AccessType.WRITE if seg.is_write else AccessType.READ
                for block in seg.block_indices.tolist():
                    yield MemoryAccess(
                        region=seg.region, block_index=block, access_type=access_type
                    )

    @property
    def accesses(self) -> tuple[MemoryAccess, ...]:
        """A read-only materialized view of the trace.

        Stream segments are expanded into :class:`MemoryAccess` objects on
        every call, so this is O(n) — iterate the trace or use
        :meth:`as_arrays` on hot paths.  The view is a tuple precisely so
        that mutating it (the old ``accesses`` backing list allowed
        ``trace.accesses.append(...)``) fails loudly instead of silently
        editing a throwaway copy; use :meth:`append` / :meth:`extend` /
        :meth:`add_stream` to grow a trace.
        """
        return tuple(self)

    def append(self, access: MemoryAccess) -> None:
        """Add one access to the end of the trace."""
        self._segments.append(access)

    def extend(self, accesses: Iterable[MemoryAccess]) -> None:
        """Add many accesses to the end of the trace."""
        self._segments.extend(accesses)

    def add_stream(
        self,
        region: str,
        num_blocks: int,
        access_type: AccessType = AccessType.READ,
        passes: int = 1,
        stride: int = 1,
    ) -> None:
        """Append a streaming sweep over a region.

        The sweep is stored as one array-backed segment — block indices are
        computed with NumPy and no per-access objects are created.

        Args:
            region: region name.
            num_blocks: number of blocks in the region.
            access_type: read or write.
            passes: how many times the whole region is swept.
            stride: block stride of the sweep (1 = fully sequential; larger
                strides model strided/column-major kernels such as transpose).
        """
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        if stride <= 0:
            raise ValueError("stride must be positive")
        blocks = np.arange(num_blocks, dtype=np.int64)
        if stride > 1:
            # One pass visits offset, offset+stride, ... for each offset in
            # range(stride): a stable sort of the indices by (index % stride).
            blocks = blocks[np.argsort(blocks % stride, kind="stable")]
        if passes > 1:
            blocks = np.tile(blocks, passes)
        self._segments.append(
            _StreamSegment(
                region=region,
                block_indices=blocks,
                is_write=access_type is AccessType.WRITE,
            )
        )

    def add_blocks(
        self,
        region: str,
        block_indices,
        access_type: AccessType = AccessType.READ,
    ) -> None:
        """Append an explicit sequence of single-count accesses to one region.

        The array-backed sibling of :meth:`add_stream` for callers that
        already hold the block indices — trace ingestion
        (:mod:`repro.workloads.traceio`) rebuilds captured traces through
        it without materializing per-access objects.
        """
        indices = np.ascontiguousarray(np.asarray(block_indices, dtype=np.int64))
        if indices.ndim != 1:
            raise ValueError("block_indices must be one-dimensional")
        if indices.size == 0:
            return
        if int(indices.min()) < 0:
            raise ValueError("block indices must be non-negative")
        self._segments.append(
            _StreamSegment(
                region=region,
                block_indices=indices,
                is_write=access_type is AccessType.WRITE,
            )
        )

    @property
    def total_accesses(self) -> int:
        """Total number of accesses including repeat counts."""
        return sum(
            seg.count if isinstance(seg, MemoryAccess) else len(seg.block_indices)
            for seg in self._segments
        )

    @property
    def read_accesses(self) -> int:
        """Total number of read accesses."""
        return self.total_accesses - self.write_accesses

    @property
    def write_accesses(self) -> int:
        """Total number of write accesses."""
        total = 0
        for seg in self._segments:
            if isinstance(seg, MemoryAccess):
                total += seg.count if seg.is_write else 0
            elif seg.is_write:
                total += len(seg.block_indices)
        return total

    def regions(self) -> list[str]:
        """Names of all regions referenced by the trace, in first-use order.

        Runs in one pass over the trace's segments using an order-preserving
        dict (a long trace over many regions used to pay an O(n²) list
        membership scan here).
        """
        return list(dict.fromkeys(seg.region for seg in self._segments))

    # ------------------------------------------------------------------ #
    # array compilation (consumed by the vectorized replay engine)

    def as_arrays(self) -> TraceArrays:
        """Flatten the trace to per-access NumPy columns.

        Array-backed stream segments are concatenated directly; individually
        appended accesses are converted in one pass.
        """
        regions = self.regions()
        region_ids = {name: i for i, name in enumerate(regions)}
        region_cols: list[np.ndarray] = []
        block_cols: list[np.ndarray] = []
        write_cols: list[np.ndarray] = []
        count_cols: list[np.ndarray] = []
        # Batch runs of individually appended accesses between stream segments.
        run: list[MemoryAccess] = []

        def flush_run() -> None:
            if not run:
                return
            region_cols.append(
                np.fromiter((region_ids[a.region] for a in run), np.int64, len(run))
            )
            block_cols.append(
                np.fromiter((a.block_index for a in run), np.int64, len(run))
            )
            write_cols.append(
                np.fromiter((a.is_write for a in run), np.bool_, len(run))
            )
            count_cols.append(np.fromiter((a.count for a in run), np.int64, len(run)))
            run.clear()

        for seg in self._segments:
            if isinstance(seg, MemoryAccess):
                run.append(seg)
                continue
            flush_run()
            n = len(seg.block_indices)
            region_cols.append(np.full(n, region_ids[seg.region], dtype=np.int64))
            block_cols.append(seg.block_indices)
            write_cols.append(np.full(n, seg.is_write, dtype=np.bool_))
            count_cols.append(np.ones(n, dtype=np.int64))
        flush_run()

        def cat(cols: list[np.ndarray], dtype) -> np.ndarray:
            if not cols:
                return np.empty(0, dtype=dtype)
            return np.concatenate(cols)

        return TraceArrays(
            region_index=cat(region_cols, np.int64),
            block_index=cat(block_cols, np.int64),
            is_write=cat(write_cols, np.bool_),
            counts=cat(count_cols, np.int64),
            regions=tuple(regions),
        )

    def compile(self, base_addresses: dict[str, int]) -> CompiledTrace:
        """Compile the trace against a region layout.

        Args:
            base_addresses: global base block address of every region the
                trace references (the simulator's flat address layout).

        Returns:
            A :class:`CompiledTrace` whose ``addresses`` column holds the
            global block address of every access.
        """
        arrays = self.as_arrays()
        bases = np.fromiter(
            (base_addresses[name] for name in arrays.regions),
            np.int64,
            len(arrays.regions),
        )
        addresses = (
            bases[arrays.region_index] + arrays.block_index
            if len(arrays)
            else np.empty(0, dtype=np.int64)
        )
        return CompiledTrace(
            addresses=addresses,
            is_write=arrays.is_write,
            counts=arrays.counts,
            region_index=arrays.region_index,
            block_index=arrays.block_index,
            regions=arrays.regions,
        )
