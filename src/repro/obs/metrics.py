"""Process-local metrics registry: counters and value statistics.

Two primitive kinds cover everything the simulator needs:

* **counters** (:func:`inc`) — monotonically accumulated totals: blocks
  compressed, codec bits stored, MDC fast-path vs. fallback invocations,
  campaign cache hits.
* **values** (:func:`observe`) — summary statistics (count/sum/min/max,
  so mean is derivable) over observed samples: L2 hit rate per job,
  per-phase wall time, codec throughput.

The registry is module-global and process-local.  Workers snapshot it per
job (:func:`snapshot` + :func:`clear`), the snapshot rides back on the
:class:`~repro.campaign.store.JobRecord`, and :func:`merge` folds any
number of snapshots together — which is also how ``repro campaign status
--metrics`` aggregates a whole store.

Like :mod:`repro.obs.tracing`, collection is **off by default** and every
instrumentation site guards on :func:`enabled`, so the disabled cost is a
single module attribute read.

``tracemalloc`` peak tracking is a further opt-in on top (it slows
allocation-heavy code measurably): :func:`enable_tracemalloc`, or the
``REPRO_OBS_TRACEMALLOC=1`` environment variable.
"""

from __future__ import annotations

import os
import sys
import tracemalloc

__all__ = [
    "enabled",
    "enable",
    "disable",
    "inc",
    "observe",
    "snapshot",
    "clear",
    "merge",
    "format_metrics",
    "enable_tracemalloc",
    "tracemalloc_enabled",
    "start_tracemalloc",
    "stop_tracemalloc",
    "peak_rss_mib",
    "measure_peak_mib",
]

_enabled: bool = False
_counters: dict[str, float] = {}
_values: dict[str, dict] = {}

_tracemalloc: bool = bool(os.environ.get("REPRO_OBS_TRACEMALLOC"))


def enabled() -> bool:
    """Whether metric collection is on in this process."""
    return _enabled


def enable(on: bool = True) -> None:
    """Turn metric collection on (or off with ``on=False``)."""
    global _enabled
    _enabled = bool(on)


def disable() -> None:
    """Turn metric collection off."""
    enable(False)


def inc(name: str, value: float = 1) -> None:
    """Add ``value`` to the counter ``name`` (no-op while disabled)."""
    if not _enabled:
        return
    _counters[name] = _counters.get(name, 0) + value


def observe(name: str, value: float) -> None:
    """Fold one sample into the value statistic ``name`` (no-op while disabled)."""
    if not _enabled:
        return
    stat = _values.get(name)
    if stat is None:
        _values[name] = {"count": 1, "sum": value, "min": value, "max": value}
    else:
        stat["count"] += 1
        stat["sum"] += value
        if value < stat["min"]:
            stat["min"] = value
        if value > stat["max"]:
            stat["max"] = value


def snapshot() -> dict:
    """The registry's current contents as a plain (picklable) dict."""
    return {
        "counters": dict(_counters),
        "values": {name: dict(stat) for name, stat in _values.items()},
    }


def clear() -> None:
    """Reset every counter and value statistic."""
    _counters.clear()
    _values.clear()


def merge(*snapshots: dict) -> dict:
    """Fold snapshots together: counters sum, value statistics combine."""
    counters: dict[str, float] = {}
    values: dict[str, dict] = {}
    for snap in snapshots:
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, stat in (snap.get("values") or {}).items():
            merged = values.get(name)
            if merged is None:
                values[name] = dict(stat)
            else:
                merged["count"] += stat["count"]
                merged["sum"] += stat["sum"]
                merged["min"] = min(merged["min"], stat["min"])
                merged["max"] = max(merged["max"], stat["max"])
    return {"counters": counters, "values": values}


def format_metrics(snap: dict) -> str:
    """Render a snapshot as aligned, sorted text lines."""
    lines: list[str] = []
    counters = snap.get("counters") or {}
    values = snap.get("values") or {}
    width = max((len(name) for name in (*counters, *values)), default=0)
    for name in sorted(counters):
        value = counters[name]
        rendered = f"{value:g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<{width}}  {rendered}")
    for name in sorted(values):
        stat = values[name]
        mean = stat["sum"] / stat["count"] if stat["count"] else 0.0
        lines.append(
            f"  {name:<{width}}  mean {mean:g}  min {stat['min']:g}  "
            f"max {stat['max']:g}  n {stat['count']}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# optional tracemalloc peak tracking


def tracemalloc_enabled() -> bool:
    """Whether per-job tracemalloc peak tracking is requested."""
    return _tracemalloc


def enable_tracemalloc(on: bool = True) -> None:
    """Request per-job tracemalloc peak tracking (workers inherit it)."""
    global _tracemalloc
    _tracemalloc = bool(on)


def start_tracemalloc() -> bool:
    """Begin a peak measurement; returns False when not requested/available."""
    if not (_enabled and _tracemalloc):
        return False
    tracemalloc.start()
    return True


def stop_tracemalloc() -> None:
    """End a peak measurement, recording ``job.tracemalloc_peak_kb``."""
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    observe("job.tracemalloc_peak_kb", peak / 1024.0)


# --------------------------------------------------------------------- #
# peak-memory observability


def peak_rss_mib() -> float:
    """This process's high-water resident set size, in MiB.

    Reads ``getrusage(RUSAGE_SELF).ru_maxrss`` — kibibytes on Linux, bytes
    on macOS.  A process-lifetime high-water mark: it never decreases, so
    it bounds (rather than equals) any one phase's footprint.  Returns 0.0
    where the resource module is unavailable.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is in bytes
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def measure_peak_mib(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` under tracemalloc, returning
    ``(result, peak_mib)``.

    The peak is the tracemalloc high-water mark of Python allocations made
    *during the call* — unlike :func:`peak_rss_mib` it resets per
    measurement, which is what a test needs to show that a call bounds its
    working set.  If tracemalloc is already
    tracing (e.g. ``REPRO_OBS_TRACEMALLOC``), the outer trace is left
    running and its peak is reset rather than stopped.
    """
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak / (1024.0 * 1024.0)
