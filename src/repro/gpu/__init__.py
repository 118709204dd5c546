"""Trace-driven GPU performance and energy model.

This package stands in for the GPGPU-Sim + GPUSimPow infrastructure of the
paper.  It is *trace driven*: workloads emit the stream of memory-block
accesses their kernels generate, an L2 cache model filters that stream, and
memory controllers with integrated (de)compressors turn the resulting misses
into GDDR5 bursts.  An analytic bounded-overlap timing model combines compute
and memory cycles into execution time, and an energy model derived from the
same counters produces energy and energy-delay product.

Absolute cycle counts differ from the cycle-accurate simulator used by the
authors, but the quantities SLC influences — DRAM burst counts, memory-bound
execution time, DRAM transfer energy — are modelled explicitly, so relative
results (speedup, bandwidth, energy, EDP versus the E2MC baseline) retain the
paper's shape.
"""

from repro.gpu.backends import (
    CompressionBackend,
    LosslessBackend,
    NoCompressionBackend,
    SLCBackend,
    StoredBatch,
    StoredBlock,
)
from repro.gpu.cache import CacheStats, SetAssociativeCache
from repro.gpu.config import GPUConfig, LatencyConfig
from repro.gpu.dram import DRAMChannel, DRAMStats, GDDR5Timing
from repro.gpu.energy import EnergyBreakdown, EnergyModel
from repro.gpu.memory_controller import BlockStore, MemoryController, MemoryControllerStats
from repro.gpu.simulator import GPUSimulator, PreparedInput, SimulationResult
from repro.gpu.trace import AccessType, MemoryTrace

__all__ = [
    "CompressionBackend",
    "NoCompressionBackend",
    "LosslessBackend",
    "SLCBackend",
    "StoredBatch",
    "StoredBlock",
    "BlockStore",
    "GPUConfig",
    "LatencyConfig",
    "SetAssociativeCache",
    "CacheStats",
    "DRAMChannel",
    "DRAMStats",
    "GDDR5Timing",
    "MemoryController",
    "MemoryControllerStats",
    "EnergyModel",
    "EnergyBreakdown",
    "GPUSimulator",
    "PreparedInput",
    "SimulationResult",
    "MemoryTrace",
    "AccessType",
]
