"""The scalar trace-replay loop, kept as the n = 1 reference.

This is the loop that used to live inline in ``GPUSimulator.run``: one L2
lookup per access of the compiled trace
(:meth:`~repro.gpu.trace.MemoryTrace.compile`), one memory-controller
method chain per miss.  It defines the semantics the vectorized engine
(:mod:`repro.replay.engine`) must reproduce bit-exactly.
``GPUSimulator(replay_mode="scalar")`` runs it after storing the host
copies block by block
(:meth:`~repro.gpu.memory_controller.MemoryController.store_block`), which
makes the whole run the per-block oracle for audits and benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.memory_controller import (
    MemoryController,
    book_host_copies,
    controller_index,
)
from repro.gpu.trace import MemoryTrace
from repro.utils.blocks import block_count
from repro.workloads.base import Region


def replay_trace_scalar(
    trace: MemoryTrace,
    *,
    all_regions: dict[str, Region],
    rows: np.ndarray,
    base_addresses: dict[str, int],
    l2: SetAssociativeCache,
    controllers: list[MemoryController],
    interleave_blocks: int,
) -> None:
    """Replay the kernel's block trace through the L2, one access at a time.

    Args:
        trace: the workload's block-granular memory trace.
        all_regions: every region the trace references.
        rows: the raw blocks of the run's flat address space, one
            ``block_size``-byte row per block address.
        base_addresses: global base block address of every region.
        l2: the shared L2 cache.
        controllers: the memory controllers (block addresses interleave
            across them in groups of ``interleave_blocks``).
        interleave_blocks: consecutive blocks kept on one controller.

    Host copies written to the store but not yet booked (see
    :func:`~repro.gpu.memory_controller.unbooked_host_copies`) are booked
    first, one block at a time.
    """
    book_host_copies(controllers, interleave_blocks)
    num_controllers = len(controllers)
    compiled = trace.compile(base_addresses)
    regions = [all_regions[name] for name in compiled.regions]
    limits = [block_count(region.array, rows.shape[1]) for region in regions]
    for address, region_index, block, is_write in zip(
        compiled.addresses.tolist(),
        compiled.region_index.tolist(),
        compiled.block_index.tolist(),
        compiled.is_write.tolist(),
    ):
        region = regions[region_index]
        if block >= limits[region_index]:
            verb = "write to" if is_write else "read of"
            raise IndexError(
                f"{verb} block {block} of region "
                f"{region.name!r}, which has {limits[region_index]} blocks"
            )
        if l2.access(address, is_write=is_write):
            continue
        controller = controllers[
            controller_index(address, interleave_blocks, num_controllers)
        ]
        if is_write:
            controller.store_block(
                address,
                rows[address].tobytes(),
                approximable=region.approximable,
                count_traffic=True,
            )
        else:
            controller.read_block(address)
