"""Tests for the benchmark registry: data generation, kernels, error metrics.

Covers the paper's nine benchmarks plus the extended families (WEATHER,
DNNACT) through the same parametrized contract suite, and the plugin
registration hook.
"""

import numpy as np
import pytest

from repro.workloads import (
    available_workloads,
    get_workload,
    register_workload,
    table3_rows,
    unregister_workload,
    workload_family,
)
from repro.workloads.registry import EXTENDED_WORKLOAD_ORDER, PAPER_WORKLOAD_ORDER

SMALL_SCALE = 1.0 / 1024.0

ALL_BUILTIN = (*PAPER_WORKLOAD_ORDER, *EXTENDED_WORKLOAD_ORDER)


@pytest.fixture(scope="module", params=ALL_BUILTIN)
def workload(request):
    return get_workload(request.param, scale=SMALL_SCALE, seed=7)


def test_registry_order_matches_paper():
    assert available_workloads() == list(ALL_BUILTIN)
    assert PAPER_WORKLOAD_ORDER == (
        "JM", "BS", "DCT", "FWT", "TP", "BP", "NN", "SRAD1", "SRAD2",
    )
    assert EXTENDED_WORKLOAD_ORDER == ("WEATHER", "DNNACT")


def test_registry_unknown_workload():
    with pytest.raises(KeyError):
        get_workload("matmul")


def test_registry_case_insensitive():
    assert get_workload("srad1", scale=SMALL_SCALE).name == "SRAD1"


def test_workload_families():
    for name in PAPER_WORKLOAD_ORDER:
        assert workload_family(name) == "paper"
    assert workload_family("WEATHER") == "science"
    assert workload_family("dnnact") == "dnn"
    with pytest.raises(KeyError):
        workload_family("matmul")


def test_register_workload_plugin_hook():
    from repro.workloads.weather import WeatherWorkload

    def factory(scale=SMALL_SCALE, seed=2019):
        plugin = WeatherWorkload(scale=scale, seed=seed, members=2)
        plugin.name = "WEATHER2"
        return plugin

    name = "WEATHER2"
    register_workload(name, factory)
    try:
        assert name in available_workloads()
        assert workload_family(name) == "user"
        assert get_workload("weather2", scale=SMALL_SCALE).name == "WEATHER2"
        # duplicate names are rejected, case-insensitively
        with pytest.raises(ValueError, match="already registered"):
            register_workload("weather2", factory)
        with pytest.raises(ValueError, match="already registered"):
            register_workload("WEATHER", factory)
    finally:
        unregister_workload(name)
    assert name not in available_workloads()


def test_unregister_builtin_rejected():
    with pytest.raises(ValueError):
        unregister_workload("NN")


def test_table3_rows_structure():
    rows = table3_rows(scale=SMALL_SCALE)
    assert len(rows) == len(ALL_BUILTIN)
    assert [row[0] for row in rows[:9]] == list(PAPER_WORKLOAD_ORDER)
    by_name = {row[0]: row for row in rows}
    assert by_name["JM"][3] == "Miss rate"
    assert by_name["BS"][4] == 4
    assert by_name["SRAD1"][4] == 8
    assert by_name["SRAD2"][4] == 6
    assert by_name["NN"][2] == "20 M records"
    assert by_name["WEATHER"][3] == "IQR error"
    assert by_name["DNNACT"][3] == "MRE"


def test_generate_is_deterministic(workload):
    again = get_workload(workload.name, scale=SMALL_SCALE, seed=7)
    regions_a = workload.__class__(scale=SMALL_SCALE, seed=7).generate()
    regions_b = again.generate()
    assert set(regions_a) == set(regions_b)
    for name in regions_a:
        np.testing.assert_array_equal(regions_a[name].array, regions_b[name].array)


def test_generate_has_approximable_regions(workload):
    regions = workload.generate()
    assert regions, "workload must allocate at least one region"
    assert any(region.approximable for region in regions.values())
    for region in regions.values():
        assert region.size_bytes > 0
        assert region.num_blocks() >= 1


def test_run_produces_outputs(workload):
    regions = workload.generate()
    outputs = workload.run(workload.input_arrays(regions))
    assert outputs.names()
    for name in outputs.names():
        array = outputs[name]
        assert np.all(np.isfinite(np.asarray(array, dtype=np.float64)))


def test_error_zero_for_identical_outputs(workload):
    regions = workload.generate()
    outputs = workload.run(workload.input_arrays(regions))
    assert workload.error(outputs, outputs) == pytest.approx(0.0)


def test_error_positive_for_perturbed_inputs(workload):
    regions = workload.generate()
    arrays = workload.input_arrays(regions)
    exact = workload.run(arrays)
    perturbed = {}
    rng = np.random.default_rng(3)
    for name, array in arrays.items():
        if np.issubdtype(array.dtype, np.floating):
            noise = rng.normal(0.0, 0.05 * (np.abs(array).mean() + 1e-3), size=array.shape)
            perturbed[name] = (array + noise).astype(array.dtype)
        else:
            perturbed[name] = array
    approx = workload.run(perturbed)
    assert workload.error(exact, approx) >= 0.0
    assert np.isfinite(workload.error(exact, approx))


def test_trace_covers_every_region(workload):
    regions = workload.generate()
    outputs = workload.run(workload.input_arrays(regions))
    all_regions = dict(regions)
    all_regions.update(workload.output_regions(outputs))
    trace = workload.trace(all_regions)
    assert set(trace.regions()) == set(all_regions)
    region_index, block_index, is_write = trace.columns()
    limits = np.array([all_regions[name].num_blocks() for name in trace.regions()])
    assert len(trace) == block_index.size > 0
    assert (block_index >= 0).all() and (block_index < limits[region_index]).all()
    # outputs are written, inputs read
    outputs = np.array([all_regions[name].is_output for name in trace.regions()])
    np.testing.assert_array_equal(is_write, outputs[region_index])


def test_compute_ops_positive(workload):
    regions = workload.generate()
    assert workload.compute_ops(regions) > 0


def test_scale_changes_input_size(workload):
    small = workload.__class__(scale=SMALL_SCALE).generate()
    larger = workload.__class__(scale=SMALL_SCALE * 16).generate()
    small_bytes = sum(r.size_bytes for r in small.values())
    larger_bytes = sum(r.size_bytes for r in larger.values())
    assert larger_bytes > small_bytes


def test_invalid_scale_rejected(workload):
    with pytest.raises(ValueError):
        workload.__class__(scale=0.0)
