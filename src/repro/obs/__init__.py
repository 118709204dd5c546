"""Cross-layer observability: tracing, metrics and the perf trajectory.

Three concerns, one package, all **off by default** so the simulation hot
path pays (almost) nothing when nobody is watching:

* :mod:`repro.obs.tracing` — a zero-dependency, contextvar-based span
  tracer.  The simulator phases, the replay engine and the campaign
  executor are instrumented with :func:`~repro.obs.tracing.span` blocks;
  ``repro campaign run``/``repro study run`` expose ``--trace out.json``
  which writes the collected spans (main process *and* worker processes,
  merged) as Chrome trace-event JSON viewable in ``chrome://tracing`` or
  Perfetto.
* :mod:`repro.obs.metrics` — a process-local registry of counters and
  value statistics (blocks compressed, bits stored, SLC store time,
  L2/MDC hit rates, per-phase wall time …).  Worker snapshots ride back
  on each :class:`~repro.campaign.store.JobRecord` and ``repro campaign
  status --metrics`` aggregates them across a whole store.
* :mod:`repro.obs.trajectory` — committed ``BENCH_*.json`` performance
  snapshots plus the comparison logic behind ``repro bench check``, the
  CI regression gate that keeps "fast as the hardware allows" measured
  instead of remembered.

:func:`state` / :func:`apply_state` carry the enable flags into campaign
pool and distributed worker processes, so spans and metrics recorded
there are collected exactly like the parent's.
"""

from __future__ import annotations

from repro.obs import metrics, tracing

__all__ = [
    "metrics",
    "tracing",
    "state",
    "apply_state",
]


def state() -> dict:
    """The process's observability switches as a picklable dict."""
    return {
        "tracing": tracing.enabled(),
        "metrics": metrics.enabled(),
        "tracemalloc": metrics.tracemalloc_enabled(),
    }


def apply_state(obs_state: dict) -> None:
    """Apply a :func:`state` dict to this process (used in workers)."""
    tracing.enable(bool(obs_state.get("tracing")))
    metrics.enable(bool(obs_state.get("metrics")))
    metrics.enable_tracemalloc(bool(obs_state.get("tracemalloc")))
