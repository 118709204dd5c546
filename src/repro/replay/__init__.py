"""Vectorized trace-replay engine.

Replaces the simulator's per-access Python loop — one ``OrderedDict`` L2
lookup per block access plus a chain of per-block memory-controller /
metadata-cache / DRAM-channel method calls per miss — with array-speed
equivalents that reproduce, from a fresh machine, the scalar loop's block
store and every counter a result reads **bit-exactly**:

* :func:`repro.replay.l2.resolve_l2` — exact set-associative LRU over a
  compiled trace's address column
  (:meth:`~repro.gpu.trace.MemoryTrace.compile`), resolved per set via
  reuse distance (an access hits iff fewer than ``ways`` distinct lines in
  its set were touched since its previous use), with dirty tracking for
  eviction/writeback counts.
* :func:`repro.replay.mdc.replay_mdc` — exact fully-associative LRU
  metadata-cache replay of one controller's event stream (its host-copy
  fills, then its misses) from an empty MDC.
* :func:`repro.replay.dram.scan_rows` — grouped per-(controller, bank)
  row-hit/row-miss scan replacing per-request ``DRAMChannel.service`` calls.
* :mod:`repro.replay.plan` — the backend-independent outcome of a replay
  (:class:`~repro.replay.plan.ReplayPlan`), built once per prepared input
  and geometry, and its per-job evaluation.
* :func:`repro.replay.engine.replay_trace` — the simulator's replay entry
  point and ``replay_mode="vectorized"``, its default.
* :func:`repro.replay.reference.replay_trace_scalar` — the original scalar
  loop and, after per-block host stores, ``replay_mode="scalar"``: the
  n = 1 reference the equivalence suite checks against.
"""

from repro.replay.engine import replay_trace
from repro.replay.mdc import replay_mdc
from repro.replay.reference import replay_trace_scalar

__all__ = [
    "replay_mdc",
    "replay_trace",
    "replay_trace_scalar",
]
