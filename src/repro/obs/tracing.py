"""Lightweight span tracer (zero-dependency, contextvar-based).

A *span* is one timed phase — ``sim.replay``, ``sim.h2d_store``,
``campaign.run`` — recorded as a plain dict compatible with the Chrome
trace-event format, so a whole campaign's timeline (parent process and
every pool worker) can be inspected in ``chrome://tracing`` or Perfetto.

Design constraints, in order:

1. **Disabled means free.**  Tracing is off by default and
   :func:`span` then returns a shared no-op context manager: one module
   attribute read, no allocation, no clock call.  The instrumented hot
   paths (simulator phases, replay stages, batched stores) cost ≲2%
   even with instrumentation compiled in.
2. **Process-portable.**  Spans carry wall-clock microsecond timestamps
   (``time.time_ns``), which all processes on a host share, plus their
   ``pid``/``tid`` — so worker spans serialized back from the campaign
   pool's processes merge into one coherent timeline.
   Durations come from ``time.perf_counter_ns`` (monotonic).
3. **Context-aware.**  A :data:`contextvars.ContextVar` tracks the
   innermost open span, so each span records its parent's name without
   the instrumentation sites threading anything through.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from pathlib import Path

__all__ = [
    "enabled",
    "enable",
    "disable",
    "span",
    "drain",
    "extend",
    "collected",
    "chrome_trace",
    "write_chrome_trace",
]

_enabled: bool = False

#: finished spans of this process (plus any merged via :func:`extend`),
#: already in serialized dict form
_collected: list[dict] = []

#: name of the innermost open span in the current context (parent tracking)
_current_span: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def enabled() -> bool:
    """Whether span collection is on in this process."""
    return _enabled


def enable(on: bool = True) -> None:
    """Turn span collection on (or off with ``on=False``)."""
    global _enabled
    _enabled = bool(on)


def disable() -> None:
    """Turn span collection off."""
    enable(False)


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """One open span; records itself into :data:`_collected` on exit."""

    __slots__ = ("name", "cat", "args", "_token", "_wall_ns", "_perf_ns")

    def __init__(self, name: str, cat: str, args: dict) -> None:
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_ActiveSpan":
        parent = _current_span.get()
        if parent is not None:
            self.args.setdefault("parent", parent)
        self._token = _current_span.set(self.name)
        self._wall_ns = time.time_ns()
        self._perf_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        dur_ns = time.perf_counter_ns() - self._perf_ns
        _current_span.reset(self._token)
        _collected.append(
            {
                "name": self.name,
                "cat": self.cat,
                "ts": self._wall_ns // 1000,
                "dur": max(1, dur_ns // 1000),
                "pid": os.getpid(),
                "tid": threading.get_native_id(),
                "args": self.args,
            }
        )
        # Per-phase wall time doubles as a metric when the registry is on.
        from repro.obs import metrics

        if metrics.enabled():
            metrics.observe(f"phase.{self.name}.wall_s", dur_ns / 1e9)
        return False


def span(name: str, cat: str = "repro", **args):
    """Context manager timing one phase; free when tracing is disabled."""
    if not _enabled:
        return _NULL_SPAN
    return _ActiveSpan(name, cat, args)


def mark() -> int:
    """Current buffer position, for :func:`drain` with ``from_index``."""
    return len(_collected)


def drain(from_index: int = 0) -> list[dict]:
    """Return collected span dicts from ``from_index`` on and remove them.

    ``execute_job`` drains from a mark taken at job start, so in-process
    execution attaches only the job's own spans to its record — spans the
    campaign executor opened earlier stay in the buffer.
    """
    global _collected
    spans = _collected[from_index:]
    del _collected[from_index:]
    return spans


def extend(spans: list[dict]) -> None:
    """Merge externally collected span dicts (e.g. from pool workers)."""
    _collected.extend(spans)


def collected() -> list[dict]:
    """The collected spans without draining (mainly for tests)."""
    return list(_collected)


def chrome_trace(spans: list[dict]) -> dict:
    """Wrap span dicts as a Chrome trace-event JSON object.

    Every span becomes a complete (``"ph": "X"``) event; one
    ``process_name`` metadata event per distinct pid labels the main
    process vs. the pool workers in the viewer.
    """
    main_pid = os.getpid()
    events: list[dict] = []
    for pid in sorted({s["pid"] for s in spans}):
        label = "repro (main)" if pid == main_pid else f"repro worker {pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    for s in spans:
        events.append(
            {
                "name": s["name"],
                "cat": s.get("cat", "repro"),
                "ph": "X",
                "ts": s["ts"],
                "dur": s["dur"],
                "pid": s["pid"],
                "tid": s["tid"],
                "args": s.get("args", {}),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, spans: list[dict]) -> int:
    """Write spans as Chrome trace-event JSON; returns the span count."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(spans)) + "\n", encoding="utf-8")
    return len(spans)
