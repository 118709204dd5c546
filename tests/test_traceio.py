"""Trace interchange round trip: export → ingest → bit-identical replay.

The contract: a trace captured from a registry workload, saved to the
``.npz`` interchange format and loaded back replays through the simulator
with bit-identical memory-side counters and stored-state digest — on the
vectorized and the scalar pipeline alike.  Only ``error_percent`` differs
by design: the file carries data, not a re-runnable kernel, so the trace
workload's application error is 0 and data damage appears in the fidelity
panel instead (which must match the in-memory run exactly).
"""

import numpy as np
import pytest

from repro.campaign.worker import build_backend
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import GPUSimulator
from repro.gpu.trace import AccessType, MemoryAccess, MemoryTrace
from repro.workloads import (
    available_workloads,
    get_workload,
    load_trace,
    register_trace,
    unregister_workload,
)
from repro.workloads.traceio import (
    _rebuild_trace,
    capture_trace,
    load_bundle,
    save_trace,
)

SCALE = 1.0 / 512.0
SEED = 2019


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    bundle = capture_trace(get_workload("NN", scale=SCALE, seed=SEED))
    return save_trace(tmp_path_factory.mktemp("traces") / "nn", bundle)


def simulate(workload, scalar=False):
    config = GPUConfig()
    simulator = GPUSimulator(
        config=config,
        payload_digest=True,
        replay_mode="scalar" if scalar else "vectorized",
    )
    backend = build_backend(
        "TSLC-OPT", config, lossy_threshold_bytes=16, mag_bytes=32
    )
    return simulator.run(workload, backend, compute_error=True)


def test_round_trip_is_bit_identical(trace_path):
    original = simulate(get_workload("NN", scale=SCALE, seed=SEED)).to_dict()
    replayed = simulate(load_trace(trace_path)).to_dict()
    # the kernel is not in the file: its application error is 0 by design
    assert replayed.pop("error_percent") == 0.0
    original.pop("error_percent")
    assert replayed == original
    # spot-check the load-bearing fields survived the dict comparison
    assert (
        replayed["extra_metrics"]["payload_sha256"]
        == original["extra_metrics"]["payload_sha256"]
    )
    assert replayed["extra_metrics"]["fidelity_pearson"] == original[
        "extra_metrics"
    ]["fidelity_pearson"]


def test_round_trip_scalar_pipeline_matches(trace_path):
    vectorized = simulate(load_trace(trace_path)).to_dict()
    scalar = simulate(load_trace(trace_path), scalar=True).to_dict()
    assert scalar == vectorized


def test_saved_file_reports_npz_suffix(tmp_path):
    bundle = capture_trace(get_workload("NN", scale=SCALE, seed=SEED))
    path = save_trace(tmp_path / "no_suffix", bundle)
    assert path.suffix == ".npz"
    assert path.exists()


def test_bundle_survives_save_load(trace_path):
    original = capture_trace(get_workload("NN", scale=SCALE, seed=SEED))
    loaded = load_bundle(trace_path)
    assert loaded.name == original.name
    assert loaded.block_size_bytes == original.block_size_bytes
    assert loaded.ops_per_byte == original.ops_per_byte
    assert [r.name for r in loaded.regions] == [r.name for r in original.regions]
    for region_a, region_b in zip(original.regions, loaded.regions):
        np.testing.assert_array_equal(region_a.array, region_b.array)
        assert region_a.approximable == region_b.approximable
        assert region_a.is_output == region_b.is_output
    for column in ("region_index", "block_index", "is_write", "counts"):
        np.testing.assert_array_equal(
            getattr(original.trace, column), getattr(loaded.trace, column)
        )
    assert loaded.trace.regions == original.trace.regions


def test_rebuilt_trace_columns_are_bit_equal(trace_path):
    bundle = load_bundle(trace_path)
    rebuilt = _rebuild_trace(bundle.trace).as_arrays()
    for column in ("region_index", "block_index", "is_write", "counts"):
        np.testing.assert_array_equal(
            getattr(rebuilt, column), getattr(bundle.trace, column)
        )
    assert rebuilt.regions == bundle.trace.regions


def test_rebuild_preserves_repeat_counts():
    # mixed stream: single-count runs interleaved with RLE-repeated rows
    trace = MemoryTrace()
    trace.add_blocks("a", [0, 1, 2])
    trace.append(MemoryAccess(region="a", block_index=3, count=5))
    trace.append(
        MemoryAccess(
            region="b", block_index=0, access_type=AccessType.WRITE, count=2
        )
    )
    trace.add_blocks("b", [1, 2], AccessType.WRITE)
    arrays = trace.as_arrays()
    rebuilt = _rebuild_trace(arrays).as_arrays()
    for column in ("region_index", "block_index", "is_write", "counts"):
        np.testing.assert_array_equal(
            getattr(rebuilt, column), getattr(arrays, column)
        )
    assert rebuilt.regions == arrays.regions


def test_block_size_mismatch_rejected(trace_path):
    workload = load_trace(trace_path)
    with pytest.raises(ValueError, match="block"):
        workload.trace({}, block_size_bytes=workload.bundle.block_size_bytes * 2)


def test_register_trace_in_registry(trace_path):
    name = register_trace(trace_path, name="NNTRACE")
    try:
        assert name == "NNTRACE"
        assert "NNTRACE" in available_workloads()
        workload = get_workload("nntrace")
        assert workload.name == "NNTRACE"
        # the registered trace replays identically to a direct load
        # (modulo the workload label, which carries the registered name)
        direct = simulate(load_trace(trace_path)).to_dict()
        registered = simulate(get_workload("NNTRACE")).to_dict()
        assert registered.pop("workload") == "NNTRACE"
        assert direct.pop("workload") == "NN"
        assert registered == direct
        with pytest.raises(ValueError, match="already registered"):
            register_trace(trace_path, name="NNTRACE")
    finally:
        unregister_workload(name)
    assert "NNTRACE" not in available_workloads()


def test_cli_export_info_ingest_round_trip(tmp_path, capsys):
    from repro.campaign.cli import main as cli_main

    out_path = tmp_path / "nn.npz"
    assert cli_main([
        "trace", "export", "--workload", "NN", "--scale", str(SCALE),
        "--out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "captured NN" in out and str(out_path) in out

    assert cli_main(["trace", "info", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "NN: block size 128 B" in out
    assert "records" in out and "approximable" in out

    assert cli_main([
        "trace", "ingest", str(out_path), "--scheme", "TSLC-OPT", "--mag", "32",
    ]) == 0
    out = capsys.readouterr().out
    assert "replayed NN under TSLC-OPT" in out
    assert "fidelity_pearson" in out and "payload_sha256" in out

    # --json emits the full result dict
    import json as json_mod

    assert cli_main([
        "trace", "ingest", str(out_path), "--scheme", "E2MC", "--json",
    ]) == 0
    result = json_mod.loads(capsys.readouterr().out)
    assert result["workload"] == "NN"
    assert result["total_bursts"] > 0


def test_cli_errors_are_captured(tmp_path, capsys):
    from repro.campaign.cli import main as cli_main

    assert cli_main([
        "trace", "export", "--workload", "NOPE", "--out", str(tmp_path / "x"),
    ]) == 2
    assert cli_main(["trace", "info", str(tmp_path / "missing.npz")]) == 2
    bundle_path = save_trace(
        tmp_path / "ok", capture_trace(get_workload("NN", scale=SCALE))
    )
    assert cli_main([
        "trace", "ingest", str(bundle_path), "--scheme", "NOPE",
    ]) == 2


def test_add_blocks_validation():
    trace = MemoryTrace()
    with pytest.raises(ValueError):
        trace.add_blocks("a", [[0, 1]])
    with pytest.raises(ValueError):
        trace.add_blocks("a", [0, -1])
    trace.add_blocks("a", [])
    assert len(trace) == 0
