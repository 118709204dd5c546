"""GPU configuration mirroring Table II of the paper (a GTX580-like GPU)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LatencyConfig:
    """(De)compression latencies in memory-controller cycles (Section IV-A)."""

    #: E2MC compression latency per block
    e2mc_compress_cycles: int = 46
    #: E2MC decompression latency per block
    e2mc_decompress_cycles: int = 20
    #: TSLC compression latency (E2MC + 12 cycles to fetch code lengths
    #: + 2 cycles to add them and select the sub-block)
    tslc_compress_cycles: int = 60
    #: TSLC decompression latency (same as E2MC; the extra logic is trivial)
    tslc_decompress_cycles: int = 20
    #: baseline DRAM access latency seen by an L2 miss (core cycles)
    dram_access_latency_cycles: int = 220
    #: L2 hit latency (core cycles)
    l2_hit_latency_cycles: int = 32
    #: fraction of (de)compression latency that cannot be hidden by the
    #: GPU's thread-level parallelism (GPUs hide most of it, Section III-C)
    exposed_latency_fraction: float = 0.01


@dataclass(frozen=True)
class GPUConfig:
    """Baseline simulator configuration (Table II).

    The defaults describe the GTX580-like GPU of the paper: 16 SMs at
    822 MHz, 768 KB L2, six GDDR5 memory controllers at 1002 MHz with a
    32-bit bus and burst length 8, for 192.4 GB/s of total bandwidth and a
    memory access granularity of 32 B.
    """

    num_sms: int = 16
    sm_freq_mhz: float = 822.0
    max_threads_per_sm: int = 1536
    max_cta_size: int = 512
    registers_per_sm: int = 32768
    shared_memory_per_sm_kb: int = 48
    l1_cache_per_sm_kb: int = 16
    l2_cache_kb: int = 768
    l2_line_bytes: int = 128
    l2_ways: int = 16
    memory_type: str = "GDDR5"
    num_memory_controllers: int = 6
    memory_clock_mhz: float = 1002.0
    memory_bandwidth_gbps: float = 192.4
    bus_width_bits: int = 32
    burst_length: int = 8
    latency: LatencyConfig = field(default_factory=LatencyConfig)

    def __post_init__(self) -> None:
        if self.num_sms <= 0 or self.num_memory_controllers <= 0:
            raise ValueError("SM and memory-controller counts must be positive")
        if self.sm_freq_mhz <= 0 or self.memory_clock_mhz <= 0:
            raise ValueError("clock frequencies must be positive")
        if self.l2_cache_kb <= 0 or self.l2_line_bytes <= 0:
            raise ValueError("L2 geometry must be positive")

    # ------------------------------------------------------------------ #
    # derived quantities

    @property
    def mag_bytes(self) -> int:
        """Memory access granularity: bus width × burst length (32 B here)."""
        return self.bus_width_bits // 8 * self.burst_length

    @property
    def block_size_bytes(self) -> int:
        """Memory block / L2 line size (128 B)."""
        return self.l2_line_bytes

    @property
    def bursts_per_block(self) -> int:
        """Bursts needed for an uncompressed block."""
        return self.block_size_bytes // self.mag_bytes

    @property
    def core_clock_hz(self) -> float:
        """SM clock in Hz."""
        return self.sm_freq_mhz * 1e6

    @property
    def memory_clock_hz(self) -> float:
        """Memory clock in Hz."""
        return self.memory_clock_mhz * 1e6

    @property
    def bandwidth_bytes_per_sec(self) -> float:
        """Total off-chip bandwidth in bytes/second."""
        return self.memory_bandwidth_gbps * 1e9

    @property
    def bandwidth_per_controller(self) -> float:
        """Off-chip bandwidth per memory controller in bytes/second."""
        return self.bandwidth_bytes_per_sec / self.num_memory_controllers

    @property
    def burst_transfer_seconds(self) -> float:
        """Time for one MAG burst on one controller at peak bandwidth."""
        return self.mag_bytes / self.bandwidth_per_controller

    def scaled(self, **overrides) -> "GPUConfig":
        """Return a copy of the configuration with the given fields replaced."""
        values = {
            "num_sms": self.num_sms,
            "sm_freq_mhz": self.sm_freq_mhz,
            "max_threads_per_sm": self.max_threads_per_sm,
            "max_cta_size": self.max_cta_size,
            "registers_per_sm": self.registers_per_sm,
            "shared_memory_per_sm_kb": self.shared_memory_per_sm_kb,
            "l1_cache_per_sm_kb": self.l1_cache_per_sm_kb,
            "l2_cache_kb": self.l2_cache_kb,
            "l2_line_bytes": self.l2_line_bytes,
            "l2_ways": self.l2_ways,
            "memory_type": self.memory_type,
            "num_memory_controllers": self.num_memory_controllers,
            "memory_clock_mhz": self.memory_clock_mhz,
            "memory_bandwidth_gbps": self.memory_bandwidth_gbps,
            "bus_width_bits": self.bus_width_bits,
            "burst_length": self.burst_length,
            "latency": self.latency,
        }
        values.update(overrides)
        return GPUConfig(**values)

    def table2_rows(self) -> list[tuple[str, str]]:
        """The configuration formatted as the rows of Table II."""
        return [
            ("#SMs", str(self.num_sms)),
            ("SM freq (MHz)", f"{self.sm_freq_mhz:g}"),
            ("Max #Threads/SM", str(self.max_threads_per_sm)),
            ("Max CTA size", str(self.max_cta_size)),
            ("L1 $ size/SM", f"{self.l1_cache_per_sm_kb} KB"),
            ("L2 $ size", f"{self.l2_cache_kb} KB"),
            ("#Registers/SM", f"{self.registers_per_sm // 1024} K"),
            ("Shared memory/SM", f"{self.shared_memory_per_sm_kb} KB"),
            ("Memory type", self.memory_type),
            ("# Memory controllers", str(self.num_memory_controllers)),
            ("Memory clock", f"{self.memory_clock_mhz:g} MHz"),
            ("Memory bandwidth", f"{self.memory_bandwidth_gbps:g} GB/s"),
            ("Bus width", f"{self.bus_width_bits}-bit"),
            ("Burst length", str(self.burst_length)),
        ]
