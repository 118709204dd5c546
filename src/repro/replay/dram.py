"""Batched row-buffer accounting for a GDDR5 channel.

Replaces per-request :meth:`~repro.gpu.dram.DRAMChannel.service` calls with
one grouped scan over a channel whose banks all start precharged: requests
are partitioned by bank (stable, so per-bank order is the service order),
the first request of each bank opens its row, a later one hits iff it asks
for its predecessor's row and otherwise precharges and opens its own, and
the busy-cycle total is a handful of reductions over the burst counts and
miss penalties.

The scan (:func:`scan_rows`) depends on the request addresses alone, not on
their burst counts, so a replay plan keeps it and every job applies it
(:func:`apply_rows`) with its own bursts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.dram import DRAMChannel, GDDR5Timing


@dataclass(frozen=True)
class RowScan:
    """What a request stream counts on a freshly precharged channel."""

    requests: int
    row_misses: int
    #: row misses that first close another open row
    precharges: int


def scan_rows(timing: GDDR5Timing, byte_addresses: np.ndarray) -> RowScan:
    """Row hits and misses of a request stream, every bank starting precharged."""
    byte_addresses = np.asarray(byte_addresses, dtype=np.int64)
    n = byte_addresses.shape[0]
    if n == 0:
        return RowScan(0, 0, 0)

    rows = byte_addresses // timing.row_bytes
    banks = rows % timing.num_banks
    order = np.argsort(banks, kind="stable")
    sorted_banks = banks[order]
    sorted_rows = rows[order]

    # A bank's first request opens its row; a later one misses iff its row
    # differs from its predecessor's, which it must close first.
    same_bank = sorted_banks[1:] == sorted_banks[:-1]
    opened = n - int(same_bank.sum())
    precharges = int((same_bank & (sorted_rows[1:] != sorted_rows[:-1])).sum())
    return RowScan(requests=n, row_misses=opened + precharges, precharges=precharges)


def apply_rows(channel: DRAMChannel, scan: RowScan, bursts: int) -> None:
    """Account a scanned stream that moves ``bursts`` bursts in total on ``channel``."""
    timing = channel.timing
    stats = channel.stats
    stats.requests += scan.requests
    stats.bursts += bursts
    stats.row_hits += scan.requests - scan.row_misses
    stats.row_misses += scan.row_misses
    stats.busy_cycles += (
        bursts * max(timing.burst_cycles, timing.t_ccd)
        + scan.row_misses * timing.t_rcd
        + scan.precharges * timing.t_rp
    )
