"""Batched row-buffer accounting for a GDDR5 channel.

Replaces per-request :meth:`~repro.gpu.dram.DRAMChannel.service` calls with
one grouped scan: requests are partitioned by bank (stable, so per-bank
order is the service order), row hits and misses fall out of comparing each
request's row with its predecessor in the same bank — seeded from the
channel's currently open rows, so state composes across kernels and a
:meth:`~repro.gpu.dram.DRAMChannel.reset_rows` between two scans is honored
— and the busy-cycle total is a handful of reductions over the burst counts
and miss penalties.

The scan (:func:`scan_rows`) depends on the request addresses alone, not on
their burst counts, so a replay plan keeps it and every job applies it
(:func:`apply_rows`) with its own bursts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.dram import DRAMChannel


@dataclass(frozen=True)
class RowScan:
    """What a request stream does to one channel's row buffers."""

    requests: int
    row_misses: int
    #: row misses that first close another open row
    precharges: int
    #: ``(bank, row)`` left open in every bank the stream touched
    open_rows: tuple[tuple[int, int], ...]


def scan_rows(channel: DRAMChannel, byte_addresses: np.ndarray) -> RowScan:
    """Row hits and misses of a request stream, starting from ``channel``'s open rows.

    Does not modify the channel.
    """
    byte_addresses = np.asarray(byte_addresses, dtype=np.int64)
    n = byte_addresses.shape[0]
    if n == 0:
        return RowScan(0, 0, 0, ())

    timing = channel.timing
    rows = byte_addresses // timing.row_bytes
    banks = rows % timing.num_banks

    order = np.argsort(banks, kind="stable")
    sorted_banks = banks[order]
    sorted_rows = rows[order]

    # Previous row in the same bank; the first request of each bank group
    # compares against the bank's currently open row (-1 = precharged).
    previous_rows = np.empty(n, dtype=np.int64)
    previous_rows[1:] = sorted_rows[:-1]
    group_start = np.empty(n, dtype=np.bool_)
    group_start[0] = True
    group_start[1:] = sorted_banks[1:] != sorted_banks[:-1]
    start_indices = np.nonzero(group_start)[0]
    open_rows = np.fromiter(
        (
            -1 if (open_row := channel._open_rows[int(bank)]) is None else open_row
            for bank in sorted_banks[start_indices]
        ),
        np.int64,
        len(start_indices),
    )
    previous_rows[start_indices] = open_rows

    miss = sorted_rows != previous_rows
    # The last request of each bank group leaves its row open.
    end_indices = np.append(start_indices[1:] - 1, n - 1)
    return RowScan(
        requests=n,
        row_misses=int(miss.sum()),
        precharges=int((miss & (previous_rows != -1)).sum()),
        open_rows=tuple(zip(
            sorted_banks[end_indices].tolist(), sorted_rows[end_indices].tolist()
        )),
    )


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
    channel._open_rows.update(scan.open_rows)


def replay_dram(
    channel: DRAMChannel, byte_addresses: np.ndarray, bursts: np.ndarray
) -> None:
    """Serve a request stream on ``channel`` at array speed.

    Mutates the channel (stats and per-bank open rows) exactly as the
    equivalent sequence of ``channel.service(address, bursts)`` calls would.

    Args:
        channel: the channel to account the requests on.
        byte_addresses: per-request byte addresses, in service order.
        bursts: per-request MAG burst counts.
    """
    bursts = np.asarray(bursts, dtype=np.int64)
    if bursts.shape[0] and bursts.min() <= 0:
        raise ValueError("bursts must be positive")
    apply_rows(channel, scan_rows(channel, byte_addresses), int(bursts.sum()))
