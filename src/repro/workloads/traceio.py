"""Trace ingestion: replay externally captured address/data traces.

An interchange file (NumPy ``.npz``) carries everything the simulator
consumes from a workload — the memory regions (names, data arrays,
approximable/output flags, in layout order) and the block-granular access
trace as flat columns (``trace_region_index`` into the ``trace_regions``
table, ``trace_block_index``, ``trace_is_write`` and ``trace_counts``, where
a count of k stands for k back-to-back accesses; :func:`save_trace` writes
1s) — so a trace captured outside this repository (or exported from a
registry workload by ``repro trace export``) replays through the vectorized
engine exactly like any registry workload:

* :func:`capture_trace` snapshots a workload into a :class:`TraceBundle`,
* :func:`save_trace` / :func:`load_trace` round-trip a bundle through the
  ``.npz`` interchange format (:func:`load_bundle` expands repeat counts and
  rejects a malformed trace, such as a float column or a block past its
  region's end, with ``ValueError``),
* :class:`TraceWorkload` wraps a bundle as a :class:`Workload`, and
* :func:`register_trace` plugs a trace file into the workload registry.

A :class:`TraceWorkload` reproduces the captured run bit-exactly: same
region layout, same backend training sample, same compiled trace, hence
identical counters and payload digest (pinned by the round-trip test).
The captured file carries data, not the kernel, so ``error_percent`` is 0
by construction — the statistical fidelity panel, which compares the
degraded approximable regions against their exact data, still reports how
much the lossy path damaged the stored values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.gpu.trace import MemoryTrace
from repro.utils.blocks import DEFAULT_BLOCK_SIZE, block_count
from repro.workloads.base import Region, Workload, WorkloadOutput
from repro.workloads.registry import register_workload

#: bumped whenever the interchange layout changes incompatibly
TRACE_FORMAT_VERSION = 1


@dataclass
class TraceBundle:
    """One captured run: regions in layout order plus the flat trace."""

    #: trace name (uppercased; becomes the workload name on ingest)
    name: str
    #: block size the trace was captured at
    block_size_bytes: int
    #: the captured workload's compute intensity (drives the timing model,
    #: so the replay reproduces the original compute/memory overlap)
    ops_per_byte: float = 1.0
    #: regions in the simulator's layout order (inputs first, then outputs)
    regions: list[Region] = field(default_factory=list)
    #: the access trace
    trace: MemoryTrace | None = None

    def input_regions(self) -> list[Region]:
        """The captured input regions, in layout order."""
        return [region for region in self.regions if not region.is_output]

    def output_regions(self) -> list[Region]:
        """The captured output regions, in layout order."""
        return [region for region in self.regions if region.is_output]


def capture_trace(
    workload: Workload, block_size_bytes: int = DEFAULT_BLOCK_SIZE
) -> TraceBundle:
    """Snapshot a workload's regions and trace into a :class:`TraceBundle`.

    Runs the same generate → kernel → trace pipeline the simulator runs,
    so replaying the bundle reproduces the original run bit-exactly.
    """
    input_regions = workload.generate()
    exact_outputs = workload.run(workload.input_arrays(input_regions))
    all_regions: dict[str, Region] = dict(input_regions)
    all_regions.update(workload.output_regions(exact_outputs))
    trace = workload.trace(all_regions, block_size_bytes=block_size_bytes)
    return TraceBundle(
        name=workload.name.upper(),
        block_size_bytes=block_size_bytes,
        ops_per_byte=float(workload.ops_per_byte),
        regions=list(all_regions.values()),
        trace=trace,
    )


def save_trace(path: str | Path, bundle: TraceBundle) -> Path:
    """Write a bundle to the ``.npz`` interchange format."""
    if bundle.trace is None:
        raise ValueError("bundle has no trace to save")
    names = [region.name for region in bundle.regions]
    if len(set(names)) != len(names):
        raise ValueError("region names must be unique")
    trace_regions = bundle.trace.regions()
    unknown = set(trace_regions) - set(names)
    if unknown:
        raise ValueError(f"trace references unknown regions: {sorted(unknown)}")
    meta = {
        "format": TRACE_FORMAT_VERSION,
        "name": bundle.name.upper(),
        "block_size_bytes": int(bundle.block_size_bytes),
        "ops_per_byte": float(bundle.ops_per_byte),
        "regions": [
            {
                "name": region.name,
                "approximable": bool(region.approximable),
                "is_output": bool(region.is_output),
                "dtype": str(region.array.dtype),
                "shape": list(region.array.shape),
            }
            for region in bundle.regions
        ],
        "trace_regions": trace_regions,
    }
    arrays = {
        f"region_{index}": region.array
        for index, region in enumerate(bundle.regions)
    }
    region_index, block_index, is_write = bundle.trace.columns()
    path = Path(path)
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        trace_region_index=region_index,
        trace_block_index=block_index,
        trace_is_write=is_write,
        trace_counts=np.ones(region_index.shape[0], dtype=np.int64),
        **arrays,
    )
    # np.savez appends .npz when missing; report the real on-disk path
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


def load_bundle(path: str | Path) -> TraceBundle:
    """Read a :class:`TraceBundle` back from an interchange file.

    An access with a repeat count of k loads as k back-to-back accesses.

    Raises:
        ValueError: if the file's format or a region does not match its
            metadata, or its trace has a column that is not an integer
            column, a count below 1, a negative block index, a block index
            at or past its region's block count, a region index outside its
            region table or a region the file does not hold.
    """
    path = Path(path)
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]))
        if meta.get("format") != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported trace format {meta.get('format')!r} "
                f"(expected {TRACE_FORMAT_VERSION})"
            )
        regions: list[Region] = []
        for index, spec in enumerate(meta["regions"]):
            array = data[f"region_{index}"]
            if str(array.dtype) != spec["dtype"] or list(array.shape) != spec["shape"]:
                raise ValueError(
                    f"{path}: region {spec['name']!r} does not match its "
                    f"declared dtype/shape"
                )
            regions.append(
                Region(
                    name=spec["name"],
                    array=array,
                    approximable=spec["approximable"],
                    is_output=spec["is_output"],
                )
            )
        columns = {
            column: data[f"trace_{column}"]
            for column in ("region_index", "block_index", "is_write", "counts")
        }
        block_size_bytes = int(meta["block_size_bytes"])
        try:
            by_name = {region.name: region for region in regions}
            unknown = set(meta["trace_regions"]) - set(by_name)
            if unknown:
                raise ValueError(f"trace references unknown regions: {sorted(unknown)}")
            for column, values in columns.items():
                if values.dtype.kind not in "biu":
                    raise ValueError(
                        f"trace column 'trace_{column}' holds {values.dtype}, not integers"
                    )
            counts = columns.pop("counts")
            if counts.size and int(counts.min()) < 1:
                raise ValueError("trace repeat counts must be at least 1")
            trace = MemoryTrace.from_columns(
                meta["trace_regions"],
                *(np.repeat(values, counts) for values in columns.values()),
            )
            _check_block_range(trace, by_name, block_size_bytes)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return TraceBundle(
        name=meta["name"],
        block_size_bytes=block_size_bytes,
        ops_per_byte=float(meta.get("ops_per_byte", 1.0)),
        regions=regions,
        trace=trace,
    )


def _check_block_range(
    trace: MemoryTrace, regions: dict[str, Region], block_size_bytes: int
) -> None:
    """Raise ``ValueError`` if an access lies at or past its region's end."""
    names = trace.regions()
    region_index, block_index, _ = trace.columns()
    blocks = np.array(
        [block_count(regions[name].array, block_size_bytes) for name in names],
        dtype=np.int64,
    )
    past = np.flatnonzero(block_index >= blocks[region_index])
    if past.size:
        region = int(region_index[past[0]])
        raise ValueError(
            f"block index {int(block_index[past[0]])} lies past the end of region "
            f"{names[region]!r}, which has {int(blocks[region])} blocks"
        )


class TraceWorkload(Workload):
    """A captured trace as a first-class workload.

    ``generate()`` returns the captured input regions, ``run()`` replays
    the captured outputs (the file carries data, not the kernel — see the
    module docstring) and ``trace()`` returns the captured trace, so the
    simulator reproduces the original run bit-exactly.
    """

    description = "Ingested address/data trace"
    input_description = "captured trace"
    error_metric = "n/a (fidelity panel)"

    def __init__(self, bundle: TraceBundle, scale: float = 1.0, seed: int = 2019) -> None:
        super().__init__(scale=scale, seed=seed)
        if bundle.trace is None:
            raise ValueError("bundle has no trace")
        self.bundle = bundle
        self.name = bundle.name
        self.ops_per_byte = bundle.ops_per_byte
        self.approx_region_count = sum(
            region.approximable for region in bundle.regions
        )

    def generate(self) -> dict[str, Region]:
        return {
            region.name: Region(
                name=region.name,
                array=region.array,
                approximable=region.approximable,
                is_output=False,
            )
            for region in self.bundle.input_regions()
        }

    def run(self, arrays: dict[str, np.ndarray]) -> WorkloadOutput:
        return WorkloadOutput(
            arrays={
                region.name: region.array
                for region in self.bundle.output_regions()
            }
        )

    def error(self, exact: WorkloadOutput, approx: WorkloadOutput) -> float:
        # The captured outputs are data, not a re-runnable kernel, so both
        # sides are identical by construction; data-level damage appears in
        # the fidelity panel instead.
        return 0.0

    def trace(
        self,
        regions: dict[str, Region],
        block_size_bytes: int = DEFAULT_BLOCK_SIZE,
    ) -> MemoryTrace:
        if block_size_bytes != self.bundle.block_size_bytes:
            raise ValueError(
                f"trace was captured at {self.bundle.block_size_bytes} B blocks, "
                f"cannot replay at {block_size_bytes} B"
            )
        return self.bundle.trace


def load_trace(path: str | Path, seed: int = 2019) -> TraceWorkload:
    """Load an interchange file as a ready-to-simulate workload."""
    return TraceWorkload(load_bundle(path), seed=seed)


def register_trace(path: str | Path, name: str | None = None) -> str:
    """Register an interchange file in the workload registry.

    The trace then behaves like any registry workload for in-process use
    (``get_workload(name)``); the factory ignores ``scale`` because a
    captured trace has a fixed size.  Returns the registered name.
    """
    bundle = load_bundle(path)
    registered = (name or bundle.name).upper()

    def factory(scale: float = 1.0, seed: int = 2019) -> TraceWorkload:
        workload = TraceWorkload(bundle, seed=seed)
        workload.name = registered
        return workload

    register_workload(registered, factory, family="trace")
    return registered
