"""Per-layer spans recorded from outside the simulator.

:func:`install` wraps the public functions of each ``repro`` layer at the
bindings their callers use (module attributes for functions, class
attributes for methods), so the program itself stays uninstrumented.  Every
wrapped call records a span ``[name, start, end, parent, info]`` in the
process's :data:`TRACER`; per-block functions, called up to a million times
per run, are counted instead of timed.

The campaign executor's ``execute_job`` binding is wrapped too: it opens a
root ``job`` span and, when the job returns, moves the job's spans and
counts into the job record's ``metrics`` snapshot under :data:`RECORD_KEY`.
The record already travels from pool workers to the result store, so
worker-side spans need no transport of their own.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

#: key of the job record's ``metrics`` snapshot that carries spans and counts
RECORD_KEY = "studybench"

#: (module, function) pairs timed as one layer each, wrapped at every binding
FUNCTION_LAYERS = {
    ("repro.utils.blocks", "array_to_blocks"): "utils.array_to_blocks",
    ("repro.utils.blocks", "blocks_to_array"): "utils.blocks_to_array",
    ("repro.kernels.lossless", "bdi_size_bits"): "kernels.lossless",
    ("repro.kernels.lossless", "fpc_size_bits"): "kernels.lossless",
    ("repro.kernels.lossless", "cpack_size_bits"): "kernels.lossless",
    ("repro.kernels.lossless", "bpc_size_bits"): "kernels.lossless",
    ("repro.replay.engine", "replay_trace"): "replay.replay",
    ("repro.metrics.fidelity", "ks_statistic"): "metrics.ks",
}

#: (module, base class, method) triples timed as one layer each; the method
#: is wrapped on the base class and on every subclass that defines it
METHOD_LAYERS = {
    ("repro.workloads.base", "Workload", "generate"): "workloads.generate",
    ("repro.workloads.base", "Workload", "run"): "workloads.run",
    ("repro.workloads.base", "Workload", "error"): "workloads.error",
    ("repro.workloads.base", "Workload", "trace"): "workloads.trace",
    ("repro.gpu.backends", "CompressionBackend", "train"): "compression.train",
    ("repro.gpu.backends", "CompressionBackend", "store_batch"): "compression.store_batch",
    ("repro.gpu.simulator", "GPUSimulator", "run"): "gpu.simulator",
    ("repro.campaign.store", "ResultStore", "put"): "campaign.store_put",
    ("repro.studies.base", "Study", "aggregate"): "studies.aggregate",
}

#: methods counted rather than timed: per-block ones, and the payload
#: decoders, which no study calls today
COUNTED_METHODS = {
    ("repro.gpu.memory_controller", "MemoryController", "record_stored"): "gpu.record_stored",
    ("repro.gpu.memory_controller", "MemoryController", "stored_data"): "gpu.stored_data",
    ("repro.core.metadata_cache", "MetadataCache", "update"): "gpu.mdc_update",
    ("repro.kernels.codec", "HuffmanCodecLUT", "decode_rows"): "kernels.decode",
    ("repro.kernels.codec", "HuffmanCodecLUT", "decode_rows_lockstep"): "kernels.decode",
}

#: modules imported before wrapping, so every subclass and binding exists
PRELOAD = (
    "repro.campaign.executor",
    "repro.studies",
    "repro.workloads.registry",
    "repro.compression.registry",
)


class Tracer:
    """One process's open and finished spans plus its call counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, list[int]] = {}

    def reset(self) -> None:
        """Forget everything (a forked worker starts from a clean slate)."""
        self.spans.clear()
        self.stack.clear()
        for cell in self.counters.values():
            cell[0] = 0

    def open(self, name: str, info=None) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, info])

    def close(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def counter(self, name: str) -> list[int]:
        """The one-element cell a counted wrapper increments."""
        return self.counters.setdefault(name, [0])

    def take(self, mark: int) -> tuple[list[list], dict[str, int]]:
        """Remove the spans recorded since ``mark`` and drain the counters.

        Parent indices are re-based so the batch stands alone; a parent
        outside the batch becomes ``-1``.
        """
        batch = self.spans[mark:]
        del self.spans[mark:]
        for span in batch:
            span[3] = span[3] - mark if span[3] >= mark else -1
        counts = {name: cell[0] for name, cell in self.counters.items() if cell[0]}
        for cell in self.counters.values():
            cell[0] = 0
        return batch, counts


#: the process's tracer; the installed wrappers close over it
TRACER = Tracer()

_originals: dict[str, object] = {}


def _timed(fn, name: str, info=None):
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name, info(*args, **kwargs) if info is not None else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()

    return wrapper


def _counted(fn, name: str):
    cell = TRACER.counter(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _workload_key(workload, *args, **kwargs) -> str:
    """Identity of a generated input: (workload, scale, seed)."""
    return f"{workload.name}|{workload.scale!r}|{workload.seed!r}"


def _batch_size(backend, blocks, *args, **kwargs) -> int:
    return len(blocks)


def _same_bytes(exact, approx) -> bool:
    return (
        approx is not None
        and exact.shape == approx.shape
        and exact.dtype == approx.dtype
        and exact.tobytes() == approx.tobytes()
    )


def _fidelity(fn):
    """``fidelity_summary`` timed, plus how many regions came back unchanged.

    The byte comparison runs before the span opens, so its few milliseconds
    land in the caller's self time (``gpu.simulator``), not in the panel's.
    """
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(exact_arrays, approx_arrays, *args, **kwargs):
        unchanged = sum(
            _same_bytes(exact_arrays[name], approx_arrays.get(name))
            for name in exact_arrays
        )
        tracer.open("metrics.fidelity", [len(exact_arrays), unchanged])
        try:
            return fn(exact_arrays, approx_arrays, *args, **kwargs)
        finally:
            tracer.close()

    return wrapper


_INFO = {
    "workloads.generate": _workload_key,
    "compression.store_batch": _batch_size,
}


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return list(dict.fromkeys(found))


def _wrap_methods(module: str, base: str, method: str, make) -> None:
    for cls in _subclasses(getattr(importlib.import_module(module), base)):
        original = cls.__dict__.get(method)
        if original is None or getattr(original, "__isabstractmethod__", False):
            continue
        setattr(cls, method, make(original))


def install() -> None:
    """Wrap every layer listed above; idempotent within a process."""
    if _originals:
        return
    for name in PRELOAD:
        importlib.import_module(name)
    for (module, attr), layer in FUNCTION_LAYERS.items():
        original = getattr(importlib.import_module(module), attr)
        _rebind(original, _timed(original, layer))
    fidelity = importlib.import_module("repro.metrics.fidelity")
    _rebind(fidelity.fidelity_summary, _fidelity(fidelity.fidelity_summary))
    for (module, base, method), layer in METHOD_LAYERS.items():
        _wrap_methods(module, base, method,
                      lambda fn, layer=layer: _timed(fn, layer, _INFO.get(layer)))
    for (module, base, method), layer in COUNTED_METHODS.items():
        _wrap_methods(module, base, method, lambda fn, layer=layer: _counted(fn, layer))
    worker = importlib.import_module("repro.campaign.worker")
    _originals["execute_job"] = worker.execute_job
    _rebind(worker.execute_job, execute_job)
    os.register_at_fork(after_in_child=TRACER.reset)


def execute_job(job_dict: dict) -> dict:
    """The campaign's ``execute_job`` under a root ``job`` span.

    Top-level so the executor's process pool can pickle it.  A worker
    started by ``spawn`` imports unwrapped code, so the first job there
    installs the wrappers.
    """
    install()
    mark = len(TRACER.spans)
    TRACER.open("job")
    try:
        payload = _originals["execute_job"](job_dict)
    finally:
        TRACER.close()
    spans, counts = TRACER.take(mark)
    payload.setdefault("metrics", {})[RECORD_KEY] = {
        "pid": os.getpid(),
        "spans": spans,
        "counts": counts,
    }
    return payload


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]
