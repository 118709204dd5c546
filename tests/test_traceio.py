"""Trace interchange round trip: export → ingest → bit-identical replay.

The contract: a trace captured from a registry workload, saved to the
``.npz`` interchange format and loaded back replays through the simulator
with bit-identical memory-side counters and stored-state digest — on the
vectorized and the scalar pipeline alike.  Only ``error_percent`` differs
by design: the file carries data, not a re-runnable kernel, so the trace
workload's application error is 0 and data damage appears in the fidelity
panel instead (which must match the in-memory run exactly).
"""

import json

import numpy as np
import pytest

from repro.campaign.worker import build_backend
from repro.gpu.backends import NoCompressionBackend
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.gpu.memory_controller import BlockStore, MemoryController
from repro.gpu.simulator import GPUSimulator
from repro.gpu.trace import AccessType, MemoryTrace
from repro.replay import replay_trace, replay_trace_scalar
from repro.replay.plan import ReplayCache
from repro.utils.blocks import array_to_rows
from repro.workloads import (
    available_workloads,
    get_workload,
    load_trace,
    register_trace,
    unregister_workload,
)
from repro.workloads.base import Region
from repro.workloads.traceio import (
    TraceBundle,
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
    for original_column, loaded_column in zip(
        original.trace.columns(), loaded.trace.columns()
    ):
        np.testing.assert_array_equal(original_column, loaded_column)
    assert loaded.trace.regions() == original.trace.regions()
    with np.load(trace_path) as data:
        assert data["trace_counts"].tolist() == [1] * len(original.trace)


def test_rebuilt_trace_columns_are_bit_equal(trace_path):
    """The trace a loaded workload replays has the captured columns."""
    captured = capture_trace(get_workload("NN", scale=SCALE, seed=SEED)).trace
    workload = load_trace(trace_path)
    replayed = workload.trace({})
    assert replayed is workload.bundle.trace
    for captured_column, replayed_column in zip(captured.columns(), replayed.columns()):
        assert replayed_column.dtype == captured_column.dtype
        np.testing.assert_array_equal(replayed_column, captured_column)
    assert replayed.regions() == captured.regions()


def _rewrite(source, target, **columns):
    """Copy the interchange file ``source`` to ``target`` with ``columns``
    (``trace_*`` arrays or ``trace_regions``) replaced; returns ``target``."""
    with np.load(source) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]))
    if "trace_regions" in columns:
        meta["trace_regions"] = columns.pop("trace_regions")
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    arrays.update(columns)
    np.savez_compressed(target, **arrays)
    return target


def _two_region_bundle() -> TraceBundle:
    regions = [
        Region(name="a", array=np.arange(160, dtype=np.float32), approximable=True),
        Region(name="b", array=np.zeros(96, dtype=np.float32), is_output=True),
    ]
    trace = MemoryTrace()
    trace.add_blocks("a", [0, 1, 2, 3])
    trace.add_blocks("b", [0, 1, 2], AccessType.WRITE)
    return TraceBundle(name="two", block_size_bytes=128, regions=regions, trace=trace)


def _replay_state(trace, bundle, engine):
    """Counters and store after replaying ``trace`` over ``bundle``'s regions."""
    all_regions = {region.name: region for region in bundle.regions}
    region_rows = [array_to_rows(region.array, 128) for region in bundle.regions]
    rows = np.concatenate(region_rows)
    bases = dict(zip(all_regions, np.cumsum([0] + [len(r) for r in region_rows[:-1]]).tolist()))
    store = BlockStore(128, n_blocks=len(rows))
    controllers = [MemoryController(i, NoCompressionBackend(), store=store) for i in range(2)]
    l2 = SetAssociativeCache(2 * 2 * 128, line_bytes=128, ways=2)
    options = (
        {"cache": ReplayCache(trace, rows, np.zeros(len(rows), dtype=bool))}
        if engine is replay_trace else {}
    )
    engine(trace, all_regions=all_regions, rows=rows, base_addresses=bases, l2=l2,
           controllers=controllers, interleave_blocks=2, **options)
    return vars(l2.stats), [(vars(c.stats), vars(c.mdc.stats)) for c in controllers]


def test_repeat_counts_load_as_repeated_accesses(tmp_path):
    """A count of k in a file is k back-to-back accesses: one L2 lookup
    that may miss, then k - 1 hits."""
    bundle = _two_region_bundle()
    path = _rewrite(
        save_trace(tmp_path / "ones", bundle), tmp_path / "counts.npz",
        trace_counts=np.array([1, 5, 1, 2, 3, 1, 1]),
    )
    loaded = load_bundle(path).trace
    region_index, block_index, is_write = loaded.columns()
    assert loaded.regions() == ["a", "b"]
    assert block_index.tolist() == [0] + [1] * 5 + [2] + [3] * 2 + [0] * 3 + [1, 2]
    assert region_index.tolist() == [0] * 9 + [1] * 5
    assert is_write.tolist() == [False] * 9 + [True] * 5

    expected = MemoryTrace()
    expected.add_blocks("a", [0, 1, 1, 1, 1, 1, 2, 3, 3])
    expected.add_blocks("b", [0, 0, 0, 1, 2], AccessType.WRITE)
    for engine in (replay_trace_scalar, replay_trace):
        assert _replay_state(loaded, bundle, engine) == _replay_state(expected, bundle, engine)
    l2_stats, _ = _replay_state(loaded, bundle, replay_trace)
    assert l2_stats["hits"] == 7 and l2_stats["misses"] == 7  # every repeat hits


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


BAD_TRACES = {
    "region-index-past-table": (
        {"trace_region_index": np.array([0, 0, 0, 0, 2, 1, 1])},
        "region index 2 lies outside the region table of 2 regions",
    ),
    "negative-block-index": (
        {"trace_block_index": np.array([0, 1, -2, 3, 0, 1, 2])},
        "block indices must be non-negative",
    ),
    "zero-count": (
        {"trace_counts": np.array([1, 1, 0, 1, 1, 1, 1])},
        "repeat counts must be at least 1",
    ),
    "unknown-region-name": (
        {"trace_regions": ["a", "c"]},
        r"unknown regions: \['c'\]",
    ),
    "float-counts": (
        {"trace_counts": np.ones(7)},
        "column 'trace_counts' holds float64, not integers",
    ),
    "float-block-index": (
        {"trace_block_index": np.array([0.0, 1.0, 2.5, 3.0, 0.0, 1.0, 2.0])},
        "column 'trace_block_index' holds float64, not integers",
    ),
    "block-index-past-region-end": (
        # region 'a' holds 160 float32s: ceil(640 / 128) = 5 blocks
        {"trace_block_index": np.array([0, 1, 2, 5, 0, 1, 2])},
        "block index 5 lies past the end of region 'a', which has 5 blocks",
    ),
}


@pytest.mark.parametrize("case", BAD_TRACES.values(), ids=BAD_TRACES.keys())
def test_bad_trace_files_fail_loudly(case, tmp_path, capsys):
    from repro.campaign.cli import main as cli_main

    columns, message = case
    path = _rewrite(
        save_trace(tmp_path / "good", _two_region_bundle()), tmp_path / "bad.npz",
        **columns,
    )
    with pytest.raises(ValueError, match=message):
        load_bundle(path)
    for argv in (["trace", "info", str(path)],
                 ["trace", "ingest", str(path), "--scheme", "E2MC"]):
        assert cli_main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and str(path) in errors[0], captured.err
