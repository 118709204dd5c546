"""Workload interface shared by all nine benchmarks."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.trace import AccessType, MemoryTrace
from repro.utils.blocks import DEFAULT_BLOCK_SIZE


@dataclass
class Region:
    """One memory allocation of a workload.

    Attributes:
        name: region name (unique within the workload).
        array: the data stored in the region.
        approximable: the paper's ``safeToApprox`` flag from the extended
            ``cudaMalloc`` — only blocks of approximable regions may take the
            lossy path.
        is_output: whether the region is written (rather than read) by the
            kernel.
        read_passes: how many times the kernel streams through the region.
        stride: block-level access stride (1 = sequential streaming).
    """

    name: str
    array: np.ndarray
    approximable: bool = False
    is_output: bool = False
    read_passes: int = 1
    stride: int = 1

    @property
    def size_bytes(self) -> int:
        """Size of the allocation in bytes."""
        return int(self.array.nbytes)

    def num_blocks(self, block_size_bytes: int = DEFAULT_BLOCK_SIZE) -> int:
        """Number of blocks the allocation spans (last block zero-padded)."""
        return max(1, -(-self.size_bytes // block_size_bytes))


@dataclass
class WorkloadOutput:
    """Outputs of one kernel execution, keyed by output-region name."""

    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self.arrays

    def names(self) -> list[str]:
        """Names of the produced outputs."""
        return list(self.arrays)


class Workload(ABC):
    """Base class for the paper's benchmarks.

    Subclasses define data generation, the kernel, the error metric and the
    DRAM traffic pattern; the GPU simulator consumes all four.

    Args:
        scale: linear scaling factor on the paper's input size.  The default
            of 1/256 keeps trace-driven simulation fast enough for tests while
            preserving the data-value distributions; pass ``1.0`` to match the
            input sizes of Table III.
        seed: RNG seed for data generation (results are deterministic).
    """

    #: short name used in the paper's figures (JM, BS, DCT, ...)
    name: str = "workload"
    #: one-line description (the "Short Description" column of Table III)
    description: str = ""
    #: the "Input" column of Table III (at scale = 1.0)
    input_description: str = ""
    #: the "Error Metric" column of Table III
    error_metric: str = "MRE"
    #: the "#AR" column of Table III (number of approximable memory regions)
    approx_region_count: int = 0
    #: average scalar operations executed per byte of DRAM-resident data;
    #: used by the timing model (all nine benchmarks are memory bound, i.e.
    #: this stays below the GPU's compute/bandwidth balance point)
    ops_per_byte: float = 4.0

    def __init__(self, scale: float = 1.0 / 256.0, seed: int = 2019) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # to be provided by each benchmark

    @abstractmethod
    def generate(self) -> dict[str, Region]:
        """Create the input regions (deterministic given the seed)."""

    @abstractmethod
    def run(self, arrays: dict[str, np.ndarray]) -> WorkloadOutput:
        """Execute the kernel on the given input arrays."""

    @abstractmethod
    def error(self, exact: WorkloadOutput, approx: WorkloadOutput) -> float:
        """Application-specific error in percent (Table III metric)."""

    # ------------------------------------------------------------------ #
    # defaults shared by the benchmarks

    def scaled(self, full_size: int, minimum: int = 64) -> int:
        """Scale an element count from the paper's input size."""
        return max(minimum, int(round(full_size * self.scale)))

    def scaled_dim(self, full_dim: int, minimum: int = 16) -> int:
        """Scale one dimension of a 2-D input (area scales with ``scale``)."""
        return max(minimum, int(round(full_dim * float(np.sqrt(self.scale)))))

    def input_arrays(self, regions: dict[str, Region]) -> dict[str, np.ndarray]:
        """Convenience: region name → array for all input regions."""
        return {
            name: region.array for name, region in regions.items() if not region.is_output
        }

    def output_regions(self, outputs: WorkloadOutput) -> dict[str, Region]:
        """Wrap kernel outputs into (non-approximable) output regions."""
        return {
            name: Region(name=name, array=array, approximable=False, is_output=True)
            for name, array in outputs.arrays.items()
        }

    def trace(
        self,
        regions: dict[str, Region],
        block_size_bytes: int = DEFAULT_BLOCK_SIZE,
    ) -> MemoryTrace:
        """Block-granular DRAM traffic of the kernel.

        The default trace streams every input region ``read_passes`` times at
        its declared stride and writes every output region once — the pattern
        of the streaming, memory-bound kernels in Table III.  Benchmarks with
        more structured reuse override this.
        """
        trace = MemoryTrace()
        for region in regions.values():
            blocks = region.num_blocks(block_size_bytes)
            if region.is_output:
                trace.add_stream(region.name, blocks, AccessType.WRITE)
            else:
                trace.add_stream(
                    region.name,
                    blocks,
                    AccessType.READ,
                    passes=region.read_passes,
                    stride=region.stride,
                )
        return trace

    def compute_ops(self, regions: dict[str, Region]) -> float:
        """Total scalar operations of the kernel (for the timing model)."""
        total_bytes = sum(region.size_bytes for region in regions.values())
        return self.ops_per_byte * total_bytes

    def table3_row(self) -> tuple[str, str, str, str, int]:
        """This benchmark's row of Table III."""
        return (
            self.name,
            self.description,
            self.input_description,
            self.error_metric,
            self.approx_region_count,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(scale={self.scale}, seed={self.seed})"
