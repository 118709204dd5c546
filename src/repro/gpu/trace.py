"""Memory access traces.

Workloads describe their DRAM-visible traffic as a sequence of block-level
accesses over named memory regions.  The trace is deliberately block-granular
(128 B) because that is the granularity at which the L2, the compressors and
the DRAM burst accounting all operate.

A :class:`MemoryTrace` holds only NumPy data: per access, the index of its
region in the trace's region table, its block index within the region and a
write flag.  Workloads build it from streaming sweeps
(:meth:`MemoryTrace.add_stream`) and explicit block sequences
(:meth:`MemoryTrace.add_blocks`); trace ingestion builds it from saved
columns (:meth:`MemoryTrace.from_columns`).  Its one output is those
columns, as they are (:meth:`MemoryTrace.columns`) or compiled against a
region layout into global block addresses (:meth:`MemoryTrace.compile`),
which both replay engines consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np


class AccessType(Enum):
    """Read or write, as seen at the L2 / memory-controller boundary."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class CompiledTrace:
    """A trace compiled against a region layout: flat global addresses.

    This is the input of both replay engines (:mod:`repro.replay`).
    """

    #: per-access global block address (region base + block index)
    addresses: np.ndarray
    #: per-access write flag
    is_write: np.ndarray
    #: per-access index into :attr:`regions`
    region_index: np.ndarray
    #: per-access block index within the region
    block_index: np.ndarray
    #: the trace's region table
    regions: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.addresses.shape[0])


class MemoryTrace:
    """An ordered sequence of block accesses, held as per-access columns."""

    def __init__(self) -> None:
        #: region name -> index in the region table, in first-use order
        self._regions: dict[str, int] = {}
        #: appended columns: region index, block index, write flag
        self._parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    @classmethod
    def from_columns(
        cls,
        regions: Iterable[str],
        region_index,
        block_index,
        is_write,
    ) -> MemoryTrace:
        """The trace whose region table is ``regions`` and whose per-access
        columns are the given ones.

        Raises:
            ValueError: if a region name repeats, the columns are not
                one-dimensional and of one length, a region index lies
                outside the table or a block index is negative.
        """
        names = list(regions)
        if len(set(names)) != len(names):
            raise ValueError("trace region names must be unique")
        columns = (
            np.asarray(region_index, dtype=np.int64),
            np.asarray(block_index, dtype=np.int64),
            np.asarray(is_write, dtype=np.bool_),
        )
        if any(column.ndim != 1 for column in columns) or len(
            {column.shape[0] for column in columns}
        ) != 1:
            raise ValueError("trace columns must be one-dimensional and of one length")
        outside = np.flatnonzero((columns[0] < 0) | (columns[0] >= len(names)))
        if outside.size:
            raise ValueError(
                f"trace region index {int(columns[0][outside[0]])} lies outside "
                f"the region table of {len(names)} regions"
            )
        if columns[1].size and int(columns[1].min()) < 0:
            raise ValueError("block indices must be non-negative")
        trace = cls()
        trace._regions = {name: index for index, name in enumerate(names)}
        if columns[0].size:
            trace._parts.append(columns)
        return trace

    def __len__(self) -> int:
        return sum(part[1].shape[0] for part in self._parts)

    def _append(self, region: str, blocks: np.ndarray, access_type: AccessType) -> None:
        index = self._regions.setdefault(region, len(self._regions))
        n = blocks.shape[0]
        self._parts.append((
            np.full(n, index, dtype=np.int64),
            blocks,
            np.full(n, access_type is AccessType.WRITE),
        ))

    def add_stream(
        self,
        region: str,
        num_blocks: int,
        access_type: AccessType = AccessType.READ,
        passes: int = 1,
        stride: int = 1,
    ) -> None:
        """Append a streaming sweep over a region.

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
        self._append(region, blocks, access_type)

    def add_blocks(
        self,
        region: str,
        block_indices,
        access_type: AccessType = AccessType.READ,
    ) -> None:
        """Append an explicit sequence of accesses to one region.

        A block repeated back to back is accessed that many times.
        """
        indices = np.ascontiguousarray(np.asarray(block_indices, dtype=np.int64))
        if indices.ndim != 1:
            raise ValueError("block_indices must be one-dimensional")
        if indices.size == 0:
            return
        if int(indices.min()) < 0:
            raise ValueError("block indices must be non-negative")
        self._append(region, indices, access_type)

    def regions(self) -> list[str]:
        """The region table: every region name, in first-use order (or in
        the order :meth:`from_columns` was given)."""
        return list(self._regions)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The per-access columns: region index (into :meth:`regions`),
        block index within the region and write flag."""
        if not self._parts:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.bool_),
            )
        region_index, block_index, is_write = (
            np.concatenate(column) for column in zip(*self._parts)
        )
        return region_index, block_index, is_write

    def compile(self, base_addresses: dict[str, int]) -> CompiledTrace:
        """Compile the trace against a region layout.

        Args:
            base_addresses: global base block address of every region in
                the trace's region table (the simulator's flat address
                layout).

        Returns:
            A :class:`CompiledTrace` whose ``addresses`` column holds the
            global block address of every access.
        """
        region_index, block_index, is_write = self.columns()
        regions = tuple(self._regions)
        bases = np.fromiter(
            (base_addresses[name] for name in regions), np.int64, len(regions)
        )
        return CompiledTrace(
            addresses=bases[region_index] + block_index,
            is_write=is_write,
            region_index=region_index,
            block_index=block_index,
            regions=regions,
        )
