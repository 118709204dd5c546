"""Tests for the GPU substrate: config, trace, cache, DRAM, SM, energy."""

import time

import numpy as np
import pytest

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig, LatencyConfig
from repro.gpu.dram import DRAMChannel, GDDR5Timing
from repro.gpu.energy import EnergyModel, EnergyParameters
from repro.gpu.sm import SMCluster
from repro.gpu.trace import AccessType, MemoryTrace


# --------------------------------------------------------------------- #
# configuration (Table II)


def test_default_config_matches_table2():
    config = GPUConfig()
    assert config.num_sms == 16
    assert config.sm_freq_mhz == 822.0
    assert config.l2_cache_kb == 768
    assert config.num_memory_controllers == 6
    assert config.memory_clock_mhz == 1002.0
    assert config.bus_width_bits == 32
    assert config.burst_length == 8


def test_mag_derived_from_bus_and_burst():
    config = GPUConfig()
    assert config.mag_bytes == 32
    assert config.bursts_per_block == 4
    wider = config.scaled(bus_width_bits=64)
    assert wider.mag_bytes == 64


def test_bandwidth_derivations():
    config = GPUConfig()
    assert config.bandwidth_bytes_per_sec == pytest.approx(192.4e9)
    assert config.bandwidth_per_controller == pytest.approx(192.4e9 / 6)


def test_table2_rows_contains_every_field():
    rows = dict(GPUConfig().table2_rows())
    assert rows["#SMs"] == "16"
    assert rows["Memory bandwidth"] == "192.4 GB/s"
    assert rows["Burst length"] == "8"
    assert len(rows) == 14


def test_config_validation():
    with pytest.raises(ValueError):
        GPUConfig(num_sms=0)
    with pytest.raises(ValueError):
        GPUConfig(sm_freq_mhz=0)


def test_scaled_preserves_other_fields():
    config = GPUConfig().scaled(l2_cache_kb=256)
    assert config.l2_cache_kb == 256
    assert config.num_sms == 16


def test_latency_config_defaults_match_paper():
    latency = LatencyConfig()
    assert latency.e2mc_compress_cycles == 46
    assert latency.e2mc_decompress_cycles == 20
    assert latency.tslc_compress_cycles == 60
    assert latency.tslc_decompress_cycles == 20


# --------------------------------------------------------------------- #
# trace


def test_trace_streaming_and_counters():
    trace = MemoryTrace()
    trace.add_stream("a", 4, AccessType.READ, passes=2)
    trace.add_stream("b", 2, AccessType.WRITE)
    region_index, block_index, is_write = trace.columns()
    assert len(trace) == 10
    assert int((~is_write).sum()) == 8
    assert int(is_write.sum()) == 2
    assert region_index.tolist() == [0] * 8 + [1] * 2
    assert block_index.tolist() == [0, 1, 2, 3] * 2 + [0, 1]
    assert trace.regions() == ["a", "b"]


def test_trace_strided_stream_covers_all_blocks():
    trace = MemoryTrace()
    trace.add_stream("m", 10, stride=3)
    visited = trace.columns()[1].tolist()
    assert sorted(visited) == list(range(10))
    assert visited != list(range(10))  # actually strided


def test_trace_regions_first_use_order_on_long_multi_region_trace():
    """regions() reads the region table (it used to be an O(n²) list scan)."""
    trace = MemoryTrace()
    num_regions = 2000
    for i in range(20_000):
        trace.add_blocks(f"r{i % num_regions}", [i])
    start = time.perf_counter()
    regions = trace.regions()
    elapsed = time.perf_counter() - start
    assert regions == [f"r{i}" for i in range(num_regions)]
    assert trace.columns()[0].tolist() == [i % num_regions for i in range(20_000)]
    assert elapsed < 5.0, f"regions() took {elapsed:.1f}s on a 20k-access trace"


def test_trace_stream_segments_match_appended_accesses():
    """add_stream gives the same columns as add_blocks with its block indices."""
    streamed = MemoryTrace()
    streamed.add_stream("a", 10, AccessType.READ, passes=2, stride=3)
    streamed.add_stream("b", 4, AccessType.WRITE)
    appended = MemoryTrace()
    one_pass = [block for offset in range(3) for block in range(offset, 10, 3)]
    appended.add_blocks("a", one_pass)
    appended.add_blocks("a", one_pass)  # second pass
    appended.add_blocks("b", range(4), AccessType.WRITE)
    for streamed_column, appended_column in zip(streamed.columns(), appended.columns()):
        assert streamed_column.tolist() == appended_column.tolist()
    assert streamed.regions() == appended.regions() == ["a", "b"]
    assert len(streamed) == len(appended) == 24


def test_trace_columns_and_compile():
    trace = MemoryTrace()
    trace.add_stream("a", 3, AccessType.READ)
    trace.add_blocks("b", [1, 1], AccessType.WRITE)  # one block, twice
    region_index, block_index, is_write = trace.columns()
    assert trace.regions() == ["a", "b"]
    assert region_index.tolist() == [0, 0, 0, 1, 1]
    assert block_index.tolist() == [0, 1, 2, 1, 1]
    assert is_write.tolist() == [False, False, False, True, True]

    compiled = trace.compile({"a": 10, "b": 20})
    assert len(compiled) == len(trace) == 5
    assert compiled.regions == ("a", "b")
    assert compiled.addresses.tolist() == [10, 11, 12, 21, 21]
    assert compiled.is_write.tolist() == is_write.tolist()


def test_trace_from_columns_keeps_its_region_table():
    trace = MemoryTrace.from_columns(["x", "y", "z"], [2, 0, 2], [5, 0, 6], [1, 0, 0])
    assert trace.regions() == ["x", "y", "z"]
    assert len(trace) == 3
    region_index, block_index, is_write = trace.columns()
    assert region_index.tolist() == [2, 0, 2]
    assert block_index.tolist() == [5, 0, 6]
    assert is_write.tolist() == [True, False, False]
    trace.add_stream("y", 1)
    assert trace.regions() == ["x", "y", "z"]
    assert trace.compile({"x": 0, "y": 10, "z": 20}).addresses.tolist() == [25, 0, 26, 10]


@pytest.mark.parametrize("regions, region_index, block_index, is_write, match", [
    (["a", "a"], [0], [0], [False], "unique"),
    (["a"], [1], [0], [False], "region index 1 lies outside"),
    (["a"], [-1], [0], [False], "region index -1 lies outside"),
    (["a"], [0], [-1], [False], "non-negative"),
    (["a"], [0, 0], [0], [False, False], "one length"),
    (["a"], [[0]], [[0]], [[False]], "one-dimensional"),
], ids=["duplicate-name", "index-past-table", "negative-index", "negative-block",
        "uneven-columns", "two-dimensional"])
def test_trace_from_columns_validation(regions, region_index, block_index, is_write, match):
    with pytest.raises(ValueError, match=match):
        MemoryTrace.from_columns(regions, region_index, block_index, is_write)


def test_empty_trace_compiles_to_empty_arrays():
    compiled = MemoryTrace().compile({})
    assert len(compiled) == 0
    assert compiled.addresses.dtype == np.int64
    assert compiled.is_write.dtype == np.bool_


def test_memory_access_validation():
    with pytest.raises(ValueError):
        MemoryTrace().add_blocks("r", [0, -1])
    with pytest.raises(ValueError):
        MemoryTrace().add_stream("r", 0)
    with pytest.raises(ValueError):
        MemoryTrace().add_stream("r", 4, stride=0)


# --------------------------------------------------------------------- #
# cache


def test_cache_geometry_validation():
    with pytest.raises(ValueError):
        SetAssociativeCache(1000, line_bytes=128, ways=16)
    with pytest.raises(ValueError):
        SetAssociativeCache(0)


def test_cache_hit_after_miss():
    cache = SetAssociativeCache(16 * 1024)
    assert cache.access(5) is False
    assert cache.access(5) is True
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_cache_lru_eviction_within_set():
    cache = SetAssociativeCache(2 * 128 * 2, line_bytes=128, ways=2)  # 2 sets, 2 ways
    # addresses 0, 2, 4 all map to set 0
    cache.access(0)
    cache.access(2)
    cache.access(0)      # 0 becomes MRU
    cache.access(4)      # evicts 2
    assert cache.contains(0)
    assert not cache.contains(2)
    assert cache.stats.evictions == 1


def test_cache_dirty_eviction_counts_writeback():
    cache = SetAssociativeCache(2 * 128 * 1, line_bytes=128, ways=1)  # 2 sets, direct
    cache.access(0, is_write=True)
    cache.access(2)  # evicts dirty line 0
    assert cache.stats.writebacks == 1


def test_cache_flush_writes_back_dirty_lines():
    cache = SetAssociativeCache(16 * 1024)
    cache.access(1, is_write=True)
    cache.access(2)
    assert cache.flush() == 1
    assert cache.occupancy == 0


def test_cache_flush_counts_flushed_lines_as_evictions():
    """Every line a flush removes is an eviction, same as a capacity victim.

    (flush() used to leave the evictions counter untouched, undercounting
    removed lines against the documented counter semantics.)
    """
    cache = SetAssociativeCache(16 * 1024)
    cache.access(1, is_write=True)
    cache.access(2)
    cache.access(3)
    assert cache.stats.evictions == 0
    assert cache.flush() == 1
    assert cache.stats.evictions == 3
    assert cache.stats.writebacks == 1
    # a second flush of the now-empty cache adds nothing
    assert cache.flush() == 0
    assert cache.stats.evictions == 3


def test_cache_negative_address_rejected():
    with pytest.raises(ValueError):
        SetAssociativeCache(16 * 1024).access(-1)


def test_cache_builds_a_set_on_its_first_access():
    """The array replay only adds to a cache's counters, so a cache holds
    no set until a scalar access touches one."""
    cache = SetAssociativeCache(768 * 1024)
    assert not cache._sets
    assert not cache.contains(7) and cache.occupancy == 0 and cache.flush() == 0
    assert not cache._sets
    for address in (7, 7 + cache.num_sets, 9):
        cache.access(address)
    assert sorted(cache._sets) == [7, 9]
    assert cache.contains(7 + cache.num_sets) and cache.occupancy == 3


# --------------------------------------------------------------------- #
# DRAM


@pytest.mark.parametrize("mag", [16, 32, 64])
def test_dram_row_hit_vs_miss_cycles(mag):
    channel = DRAMChannel(mag_bytes=mag)
    bursts = 128 // mag                       # one 128 B block
    first = channel.service(0, bursts)        # row miss: activate + bursts
    second = channel.service(128, bursts)     # same row: just the bursts
    assert first > second
    assert channel.stats.row_hits == 1
    assert channel.stats.row_misses == 1
    assert channel.stats.bursts == 2 * bursts
    assert channel.bytes_transferred == 256


def test_dram_row_conflict_pays_precharge():
    timing = GDDR5Timing()
    channel = DRAMChannel(timing)
    channel.service(0, 1)
    conflict = channel.service(timing.row_bytes * timing.num_banks, 1)  # same bank, new row
    assert conflict == timing.t_rp + timing.t_rcd + timing.burst_cycles


def test_dram_busy_cycles_accumulate():
    channel = DRAMChannel()
    total = sum(channel.service(i * 128, 2) for i in range(10))
    assert channel.busy_cycles == total


def test_dram_rejects_zero_bursts():
    with pytest.raises(ValueError):
        DRAMChannel().service(0, 0)


# --------------------------------------------------------------------- #
# SM, energy


def test_sm_cluster_compute_cycles():
    cluster = SMCluster(GPUConfig(), efficiency=0.5)
    ops_per_cycle = cluster.sustained_ops_per_cycle
    assert cluster.compute_cycles(ops_per_cycle * 100) == pytest.approx(100)
    assert cluster.concurrency() == 16 * 1536
    with pytest.raises(ValueError):
        cluster.compute_cycles(-1)


def test_sm_cluster_validation():
    with pytest.raises(ValueError):
        SMCluster(GPUConfig(), efficiency=0.0)
    with pytest.raises(ValueError):
        SMCluster(GPUConfig(), lanes_per_sm=0)


def test_energy_breakdown_components():
    model = EnergyModel()
    breakdown = model.evaluate(
        exec_time_s=1e-3,
        compute_ops=1e9,
        l2_accesses=1_000_000,
        dram_bursts=100_000,
        dram_row_misses=10_000,
        compressed_blocks=1000,
        decompressed_blocks=1000,
    )
    assert breakdown.total_j == pytest.approx(
        breakdown.constant_j
        + breakdown.compute_j
        + breakdown.l2_j
        + breakdown.dram_j
        + breakdown.compression_j
    )
    assert breakdown.constant_j == pytest.approx(0.08)
    assert 0 < breakdown.dram_fraction < 1
    assert breakdown.edp(1e-3) == pytest.approx(breakdown.total_j * 1e-3)


def test_energy_scales_with_bursts():
    model = EnergyModel()
    few = model.evaluate(1e-3, 1e9, 0, 10_000, 0)
    many = model.evaluate(1e-3, 1e9, 0, 20_000, 0)
    assert many.dram_j == pytest.approx(2 * few.dram_j)


def test_energy_rejects_negative_time():
    with pytest.raises(ValueError):
        EnergyModel().evaluate(-1.0, 0, 0, 0, 0)


def test_energy_custom_parameters():
    params = EnergyParameters(constant_power_w=10.0)
    breakdown = EnergyModel(params).evaluate(1.0, 0, 0, 0, 0)
    assert breakdown.constant_j == pytest.approx(10.0)
