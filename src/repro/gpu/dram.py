"""GDDR5 DRAM channel model with row-buffer and burst timing.

Each memory controller owns one channel.  A channel serves block requests as
a number of MAG-sized bursts (1–4 for a 128 B block); each burst occupies the
data bus for ``burst_length / 2`` memory-clock cycles (double data rate), and
requests that miss the open row pay precharge + activate latency.  The model
tracks per-bank open rows so sequential (streaming) traffic enjoys row hits
while strided traffic pays more row misses — the first-order behaviour that
determines achievable bandwidth on real GDDR5.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GDDR5Timing:
    """Key GDDR5 timing parameters in memory-controller command-clock cycles.

    The bandwidth figures of Table II (192.4 GB/s over six controllers at
    1002 MHz) imply that each controller moves one 32 B MAG burst per command
    cycle (a 64-bit partition at quad data rate), so ``burst_cycles`` defaults
    to 1; the row-management latencies are standard GDDR5 values.
    """

    #: column-to-column delay (back-to-back bursts to an open row)
    t_ccd: int = 1
    #: row-to-column delay (activate to read); bank-level parallelism hides
    #: part of the nominal latency, so an effective value is used
    t_rcd: int = 8
    #: row precharge (effective, see ``t_rcd``)
    t_rp: int = 8
    #: data-bus cycles per MAG burst at the command clock
    burst_cycles: int = 1
    #: number of banks per channel
    num_banks: int = 16
    #: row (page) size per bank in bytes
    row_bytes: int = 2048


@dataclass
class DRAMStats:
    """Counters accumulated by a DRAM channel."""

    requests: int = 0
    bursts: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_cycles: int = 0


class DRAMChannel:
    """One GDDR5 channel (attached to one memory controller)."""

    def __init__(self, timing: GDDR5Timing | None = None, mag_bytes: int = 32) -> None:
        self.timing = timing or GDDR5Timing()
        self.mag_bytes = mag_bytes
        self.stats = DRAMStats()
        # Per-bank currently open row (None = bank precharged).
        self._open_rows: dict[int, int | None] = {
            bank: None for bank in range(self.timing.num_banks)
        }

    def _bank_and_row(self, byte_address: int) -> tuple[int, int]:
        row = byte_address // self.timing.row_bytes
        bank = row % self.timing.num_banks
        return bank, row

    def service(self, byte_address: int, bursts: int) -> int:
        """Serve a block request of ``bursts`` MAG bursts.

        Returns:
            The number of memory-clock cycles the channel was busy with this
            request (row management plus data transfer).
        """
        if bursts <= 0:
            raise ValueError("bursts must be positive")
        bank, row = self._bank_and_row(byte_address)
        cycles = 0
        open_row = self._open_rows[bank]
        if open_row == row:
            self.stats.row_hits += 1
        else:
            self.stats.row_misses += 1
            if open_row is not None:
                cycles += self.timing.t_rp
            cycles += self.timing.t_rcd
            self._open_rows[bank] = row
        cycles += bursts * max(self.timing.burst_cycles, self.timing.t_ccd)
        self.stats.requests += 1
        self.stats.bursts += bursts
        self.stats.busy_cycles += cycles
        return cycles

    @property
    def bytes_transferred(self) -> int:
        """Total bytes moved over the data bus (bursts × the channel's MAG)."""
        return self.stats.bursts * self.mag_bytes

    @property
    def busy_cycles(self) -> int:
        """Total busy cycles accumulated so far."""
        return self.stats.busy_cycles
