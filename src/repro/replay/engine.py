"""The vectorized trace-replay engine.

Reproduces the scalar kernel-execution loop of
:func:`~repro.replay.reference.replay_trace_scalar` — per-access L2 lookups,
per-miss memory-controller method chains — as a handful of array passes,
bit-exact on every counter the simulation result is assembled from.  A
replay runs once per run, on a fresh machine, in two steps
(:mod:`repro.replay.plan`):

1. a **plan** of everything the backend cannot change: the compiled trace
   (:meth:`~repro.gpu.trace.MemoryTrace.compile`), the L2 miss stream, each
   controller's events, which store each read fetches, the MDC hits of one
   pass per controller over its unbooked host copies' fills and its misses,
   and each DRAM channel's row hits;
2. an **evaluation** with the run's backend: the write misses' stores,
   burst gathers and sums, DRAM busy cycles and the final stores.

Every replay takes its plan from the prepared input's
:class:`~repro.replay.plan.ReplayCache`, so every scheme and MAG simulated
on the input shares one plan per geometry.  The replay leaves the block
store and every counter of the L2, the controllers, their MDCs and
channels as the scalar loop does; it does not fill the L2 sets, the MDC
entries or the banks' open rows, which no result reads.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.memory_controller import MemoryController, shared_store
from repro.gpu.trace import MemoryTrace
from repro.obs import metrics
from repro.obs.tracing import span
from repro.replay.plan import ReplayCache, ReplayPlan, build_plan, evaluate
from repro.workloads.base import Region


def replay_trace(
    trace: MemoryTrace,
    *,
    all_regions: dict[str, Region],
    rows: np.ndarray,
    base_addresses: dict[str, int],
    l2: SetAssociativeCache,
    controllers: list[MemoryController],
    interleave_blocks: int,
    cache: ReplayCache,
) -> None:
    """Replay the kernel's block trace at array speed, on a fresh machine.

    Same arguments as :func:`~repro.replay.reference.replay_trace_scalar`,
    and the same result, block store and counters.

    Args:
        cache: the prepared input's :class:`~repro.replay.plan.ReplayCache`
            (it must hold ``trace`` and ``rows``).  The replay takes its
            plan from it, building and keeping it on first use, and stores
            write misses through its per-row sizes.
    """
    shared_store(controllers)

    def compile_and_plan() -> ReplayPlan:
        with span("replay.compile", cat="replay"):
            compiled = trace.compile(base_addresses)
        with span("replay.plan", cat="replay", entries=len(compiled)):
            if metrics.enabled():
                metrics.inc("replay.plan.build")
            return build_plan(
                compiled,
                regions=[all_regions[name] for name in compiled.regions],
                block_size=rows.shape[1],
                l2=l2,
                controllers=controllers,
                interleave_blocks=interleave_blocks,
            )

    plan = cache.plan(trace, rows, l2, controllers, interleave_blocks, compile_and_plan)
    evaluate(plan, cache=cache, l2=l2, controllers=controllers)
    if metrics.enabled():
        metrics.observe("replay.peak_rss_mib", metrics.peak_rss_mib())
