"""Integration tests for the trace-driven GPU simulator."""

import pytest

from repro.campaign import BASELINE_SCHEME, build_backend
from repro.gpu import GPUConfig, GPUSimulator, NoCompressionBackend
from repro.workloads import get_workload

SCALE = 1.0 / 1024.0


@pytest.fixture(scope="module")
def simulator():
    return GPUSimulator(GPUConfig())


@pytest.fixture(scope="module")
def results(simulator):
    """Simulate one workload under three backends (shared across tests)."""
    config = simulator.config
    out = {}
    out["none"] = simulator.run(
        get_workload("NN", scale=SCALE), NoCompressionBackend(), compute_error=False
    )
    out["e2mc"] = simulator.run(
        get_workload("NN", scale=SCALE), build_backend(BASELINE_SCHEME, config), compute_error=False
    )
    out["slc"] = simulator.run(
        get_workload("NN", scale=SCALE),
        build_backend("TSLC-OPT", config),
        compute_error=True,
    )
    return out


def test_simulator_validation():
    with pytest.raises(ValueError):
        GPUSimulator(overlap_penalty=2.0)
    with pytest.raises(ValueError):
        GPUSimulator(train_samples=0)


def test_result_fields_are_sane(results):
    for result in results.values():
        assert result.exec_time_s > 0
        assert result.total_bursts == result.read_bursts + result.write_bursts
        assert result.dram_bytes == result.total_bursts * 32
        assert result.l2_accesses > 0
        assert 0 <= result.l2_hit_rate <= 1
        assert result.stored_blocks > 0
        assert result.energy_j > 0
        assert result.edp == pytest.approx(result.energy_j * result.exec_time_s)
        assert 0 <= result.memory_bound_fraction <= 1


def test_compression_reduces_traffic(results):
    assert results["e2mc"].dram_bytes < results["none"].dram_bytes
    assert results["slc"].dram_bytes <= results["e2mc"].dram_bytes


def test_compression_reduces_execution_time(results):
    assert results["e2mc"].exec_time_s < results["none"].exec_time_s
    assert results["slc"].exec_time_s <= results["e2mc"].exec_time_s * 1.02


def test_slc_produces_lossy_blocks_and_bounded_error(results):
    slc = results["slc"]
    assert slc.lossy_blocks > 0
    assert 0.0 <= slc.error_percent < 50.0


def test_lossless_backends_report_zero_lossy_blocks(results):
    assert results["none"].lossy_blocks == 0
    assert results["e2mc"].lossy_blocks == 0
    assert results["none"].error_percent == 0.0


def test_normalized_helpers(results):
    baseline = results["e2mc"]
    slc = results["slc"]
    assert slc.speedup_over(baseline) == pytest.approx(
        baseline.exec_time_s / slc.exec_time_s
    )
    assert slc.bandwidth_ratio_over(baseline) <= 1.0
    assert slc.energy_ratio_over(baseline) == pytest.approx(
        slc.energy_j / baseline.energy_j
    )
    assert slc.edp_ratio_over(baseline) == pytest.approx(slc.edp / baseline.edp)


def test_uncompressed_baseline_uses_four_bursts_per_read(results):
    none = results["none"]
    reads = none.extra_metrics.get("mdc_extra_bursts", None)
    assert none.read_bursts % 4 == 0


def test_workload_and_backend_names_recorded(results):
    assert results["slc"].workload == "NN"
    assert results["slc"].backend.startswith("slc-")
    assert results["e2mc"].backend == "e2mc"
