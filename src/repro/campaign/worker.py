"""Job execution: the function a campaign worker process runs.

Kept in its own module so :func:`execute_job` is importable at top level —
the executor pickles it by name to its pool processes — and so the
campaign package depends only on the core/gpu/workload layers (the
studies build on the campaign engine, not the other way around).

Each process keeps the last prepared workload input in
:data:`INPUT_CACHE`, so consecutive jobs on one input generate it, run its
exact kernel and fit its symbol model once.  The local pool sends each
worker the jobs of the input it holds back to back
(:func:`repro.campaign.executor.pick_input`); distributed workers take
leases in the queue's grouped first-in-first-out order.
"""

from __future__ import annotations

import os
import socket
import time
import traceback
from datetime import datetime, timezone
from typing import Callable

from repro.campaign.spec import (
    BASELINE_SCHEME,
    KNOWN_SCHEMES,
    LOSSLESS_SCHEMES,
    SCHEME_VARIANTS,
    Job,
    overrides_to_config,
)
from repro.obs import metrics, tracing
from repro.compression.e2mc import E2MCCompressor
from repro.compression.registry import get_compressor
from repro.core.config import SLCConfig
from repro.core.slc import SLCCompressor
from repro.gpu.backends import CompressionBackend, LosslessBackend, SLCBackend
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import GPUSimulator, PreparedInput, SimulationResult
from repro.workloads.registry import workload_factory


def build_backend(
    scheme: str,
    config: GPUConfig,
    lossy_threshold_bytes: int = 16,
    mag_bytes: int | None = None,
    batch_codec: bool = True,
) -> CompressionBackend:
    """Build the memory-controller backend for a scheme label.

    ``"E2MC"`` yields the lossless baseline (46/20-cycle latencies from the
    GPU latency config); the other lossless labels (``"BDI"``, ``"FPC"``,
    ``"CPACK"``, ``"BPC"``) come from the compression registry with the
    registry's per-scheme latencies; the TSLC labels yield an SLC backend of
    the matching variant (60/20 cycles).  ``batch_codec=False`` routes SLC
    batched stores through the scalar per-block payload path (the codec
    microbenchmark's reference).
    """
    mag = mag_bytes if mag_bytes is not None else config.mag_bytes
    latency = config.latency
    if scheme == BASELINE_SCHEME:
        compressor = E2MCCompressor(
            block_size_bytes=config.block_size_bytes,
            symbol_bytes=2,
            num_pdw=4,
        )
        return LosslessBackend(
            compressor,
            mag_bytes=mag,
            compress_cycles=latency.e2mc_compress_cycles,
            decompress_cycles=latency.e2mc_decompress_cycles,
        )
    if scheme in LOSSLESS_SCHEMES:
        compressor = get_compressor(
            scheme, block_size_bytes=config.block_size_bytes
        )
        # latencies resolve from the registry inside LosslessBackend
        return LosslessBackend(compressor, mag_bytes=mag)
    if scheme not in SCHEME_VARIANTS:
        raise KeyError(
            f"unknown scheme {scheme!r}; available: {', '.join(KNOWN_SCHEMES)}"
        )
    slc_config = SLCConfig(
        block_size_bytes=config.block_size_bytes,
        mag_bytes=mag,
        lossy_threshold_bytes=lossy_threshold_bytes,
        variant=SCHEME_VARIANTS[scheme],
    )
    return SLCBackend(
        SLCCompressor(slc_config),
        compress_cycles=latency.tslc_compress_cycles,
        decompress_cycles=latency.tslc_decompress_cycles,
        batch_codec=batch_codec,
    )


def default_chunk_accesses() -> int | None:
    """The replay chunk budget from ``REPRO_CHUNK_ACCESSES`` (unset → None).

    Campaign pool workers and distributed workers inherit the environment,
    so a single variable bounds replay memory for a whole fleet without
    plumbing through job hashes (chunking never changes results, so it must
    not participate in result identity).  A malformed or non-positive value
    raises rather than silently running unbounded.
    """
    raw = os.environ.get("REPRO_CHUNK_ACCESSES", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"REPRO_CHUNK_ACCESSES must be a positive integer, got {raw!r}"
        ) from exc
    if value <= 0:
        raise ValueError(
            f"REPRO_CHUNK_ACCESSES must be a positive integer, got {raw!r}"
        )
    return value


class InputCache:
    """One prepared workload input, kept while consecutive jobs share it.

    A pool worker's jobs share its input until that input's jobs run out
    (:func:`repro.campaign.executor.pick_input`), so each input is
    prepared about once per campaign, not once per worker.

    The key names everything preparation depends on: the registered
    factory object (so a re-registered name never serves the old input),
    the workload name, scale, seed and block size.  A miss evicts the held
    input *before* building the next, so two inputs are never alive at
    once and a worker's memory stays that of one job.  Held arrays are
    read-only.  The input's replay plans and per-row sizes
    (:attr:`~repro.gpu.simulator.PreparedInput.replay_cache`) live and die
    with it.  Under :func:`repro.obs.metrics.enabled` every lookup counts
    ``sim.input_cache.hit`` or ``sim.input_cache.miss``.
    """

    def __init__(self) -> None:
        #: (key, prepared input), read and replaced as one attribute: a
        #: lookup never pairs one input's key with another's data, even
        #: with threads (in-process distributed workers) racing; the worst
        #: a race does is prepare an input twice.  No lock, because a lock
        #: held across a pool's fork would deadlock the child.
        self._slot: tuple[tuple, PreparedInput] | None = None

    def get(self, key: tuple, build: Callable[[], PreparedInput]) -> PreparedInput:
        """The input held under ``key``, else ``build()``'s (which is kept)."""
        slot = self._slot
        hit = slot is not None and slot[0] == key
        if metrics.enabled():
            metrics.inc("sim.input_cache.hit" if hit else "sim.input_cache.miss")
        if hit:
            return slot[1]
        slot = None  # the local reference would keep the old input alive
        self.clear()
        prepared = build()
        prepared.make_read_only()
        self._slot = (key, prepared)
        return prepared

    def clear(self) -> None:
        """Drop the held input."""
        self._slot = None


#: the process's input cache: :func:`simulate_job` takes every input from
#: it; an in-process :func:`~repro.campaign.executor.run_jobs` clears it on
#: return, pool and distributed workers keep it for their lifetime
INPUT_CACHE = InputCache()


def simulate_job(
    job: Job,
    batch_store: bool = True,
    replay_mode: str = "vectorized",
    batch_codec: bool = True,
    chunk_accesses: int | None = None,
    payload_digest: bool = False,
) -> SimulationResult:
    """Run one job to completion and return its simulation result.

    The workload input comes from :data:`INPUT_CACHE`: a job on the input
    the previous job used skips preparing it.  Results are identical
    either way.

    Args:
        job: the campaign job description.
        batch_store: route the simulator's host-to-device store phase through
            the vectorized analysis kernels (:mod:`repro.kernels`).  Results
            are identical either way; the kernels microbenchmark flips this
            off to measure the scalar path.
        replay_mode: trace-replay engine for the kernel-execution phase —
            ``"vectorized"`` (default, :mod:`repro.replay`) or ``"scalar"``
            (the per-access reference loop).  Results are identical either
            way; the replay microbenchmark flips this to measure both.
        batch_codec: materialize stored payload bytes with the vectorized
            payload codec (:mod:`repro.kernels.codec`) instead of per-block
            ``apply_decision`` calls.  Results are identical either way; the
            codec microbenchmark flips this off to measure the scalar path.
        chunk_accesses: bounded-memory replay chunk budget (compiled RLE
            entries per window; see :class:`GPUSimulator`).  ``None`` falls
            back to the ``REPRO_CHUNK_ACCESSES`` environment variable, which
            is how ``--chunk-accesses`` reaches pool and distributed
            workers.  Results are identical either way.
        payload_digest: record ``extra_metrics["payload_sha256"]`` over the
            final stored state (see :class:`GPUSimulator`); used by the
            golden-result regression suite.
    """
    config = overrides_to_config(job.config_overrides)
    if chunk_accesses is None:
        chunk_accesses = default_chunk_accesses()
    simulator = GPUSimulator(
        config=config,
        batch_store=batch_store,
        replay_mode=replay_mode,
        chunk_accesses=chunk_accesses,
        payload_digest=payload_digest,
    )
    kwargs: dict = {"seed": job.seed}
    if job.scale is not None:
        kwargs["scale"] = job.scale
    factory = workload_factory(job.workload)
    prepared = INPUT_CACHE.get(
        (factory, *job.input_key),
        lambda: simulator.prepare(factory(**kwargs)),
    )
    backend = build_backend(
        job.scheme,
        config,
        lossy_threshold_bytes=job.lossy_threshold_bytes,
        mag_bytes=job.mag_bytes,
        batch_codec=batch_codec,
    )
    return simulator.run_prepared(prepared, backend, compute_error=job.compute_error)


def execute_job(job_dict: dict) -> dict:
    """Worker entry point: run one job, never raise.

    Takes and returns plain dicts so the payload crossing the process
    boundary is cheap to pickle and identical to what the store persists.
    Failures are captured as an ``"error"`` record with the traceback, so
    one bad job never kills a sweep.

    Every record carries provenance (hostname, pid, ISO-8601 start time).
    When observability is enabled (see :mod:`repro.obs`), the job runs
    under a root span and the payload additionally carries the spans and
    the per-job metrics snapshot, which the executor merges back into the
    parent process.
    """
    job = Job.from_dict(job_dict)
    provenance = {
        "hostname": socket.gethostname(),
        "pid": os.getpid(),
        "started_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    metrics_on = metrics.enabled()
    if metrics_on:
        # Pool workers are long-lived: isolate this job's snapshot from the
        # previous job's (and, in-process, from campaign-level counters).
        metrics.clear()
    tracking_memory = metrics.start_tracemalloc()
    span_mark = tracing.mark()
    start = time.perf_counter()
    try:
        with tracing.span(f"job:{job.label()}", cat="job",
                          workload=job.workload, scheme=job.scheme):
            result = simulate_job(job)
        status, result_dict, error = "ok", result.to_dict(), None
    except Exception:
        status, result_dict, error = "error", None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if tracking_memory:
        metrics.stop_tracemalloc()
    payload = {
        "job_hash": job.content_hash,
        "job": job.to_dict(),
        "status": status,
        "result": result_dict,
        "error": error,
        "elapsed_s": elapsed,
        "provenance": provenance,
    }
    if metrics_on:
        metrics.observe("job.elapsed_s", elapsed)
        payload["metrics"] = metrics.snapshot()
        metrics.clear()
    if tracing.enabled():
        payload["spans"] = tracing.drain(span_mark)
    return payload
