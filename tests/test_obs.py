"""The observability layer: tracing, metrics, trajectory gate, provenance."""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.campaign.cli import main as cli_main
from repro.campaign.executor import run_jobs
from repro.campaign.spec import Job
from repro.campaign.store import JobRecord
from repro.campaign.worker import execute_job
from repro.obs import metrics, tracing, trajectory


@pytest.fixture
def obs_off():
    """Guarantee clean, disabled observability state around a test."""
    tracing.disable()
    metrics.disable()
    metrics.enable_tracemalloc(False)
    tracing.drain()
    metrics.clear()
    yield
    tracing.disable()
    metrics.disable()
    metrics.enable_tracemalloc(False)
    tracing.drain()
    metrics.clear()


def _tiny_job(**overrides) -> Job:
    params = dict(
        workload="NN", scheme="TSLC-OPT", scale=0.002, seed=2019,
        compute_error=False,
    )
    params.update(overrides)
    return Job(**params)


# --------------------------------------------------------------------- #
# tracing


def test_span_disabled_is_shared_noop(obs_off):
    first = tracing.span("a")
    second = tracing.span("b", cat="x", detail=1)
    assert first is second  # the singleton null span: no allocation when off
    with first:
        pass
    assert tracing.collected() == []


def test_span_collects_and_records_parent(obs_off):
    tracing.enable()
    with tracing.span("outer", cat="test", depth=0):
        with tracing.span("inner", cat="test"):
            pass
    spans = tracing.drain()
    assert [s["name"] for s in spans] == ["inner", "outer"]  # exit order
    inner, outer = spans
    assert inner["args"]["parent"] == "outer"
    assert "parent" not in outer["args"]
    assert outer["args"]["depth"] == 0
    for s in spans:
        assert s["dur"] >= 1 and s["ts"] > 0 and s["pid"] > 0 and s["tid"] > 0


def test_mark_and_drain_partition_the_buffer(obs_off):
    tracing.enable()
    with tracing.span("before"):
        pass
    mark = tracing.mark()
    with tracing.span("after"):
        pass
    tail = tracing.drain(mark)
    assert [s["name"] for s in tail] == ["after"]
    assert [s["name"] for s in tracing.collected()] == ["before"]


def test_chrome_trace_format(obs_off, tmp_path):
    tracing.enable()
    with tracing.span("phase", cat="test", k=1):
        pass
    spans = tracing.drain()
    spans.append(dict(spans[0], pid=spans[0]["pid"] + 1))  # a "worker" span
    out = tmp_path / "trace.json"
    assert tracing.write_chrome_trace(out, spans) == 2
    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ms"
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(meta) == 2 and len(complete) == 2
    assert {e["args"]["name"] for e in meta} == {
        "repro (main)",
        f"repro worker {spans[0]['pid'] + 1}",
    }
    for e in complete:
        assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= e.keys()


def test_span_feeds_phase_metric_when_metrics_on(obs_off):
    tracing.enable()
    metrics.enable()
    with tracing.span("unit"):
        pass
    snap = metrics.snapshot()
    assert snap["values"]["phase.unit.wall_s"]["count"] == 1
    tracing.drain()


# --------------------------------------------------------------------- #
# metrics


def test_metrics_disabled_are_noops(obs_off):
    metrics.inc("c")
    metrics.observe("v", 1.0)
    assert metrics.snapshot() == {"counters": {}, "values": {}}


def test_metrics_counters_and_values(obs_off):
    metrics.enable()
    metrics.inc("blocks", 3)
    metrics.inc("blocks", 2)
    metrics.observe("rate", 0.25)
    metrics.observe("rate", 0.75)
    snap = metrics.snapshot()
    assert snap["counters"]["blocks"] == 5
    assert snap["values"]["rate"] == {
        "count": 2, "sum": 1.0, "min": 0.25, "max": 0.75,
    }
    metrics.clear()
    assert metrics.snapshot() == {"counters": {}, "values": {}}


def test_metrics_merge_and_format(obs_off):
    a = {"counters": {"n": 1}, "values": {"t": {"count": 1, "sum": 2.0,
                                                "min": 2.0, "max": 2.0}}}
    b = {"counters": {"n": 4, "m": 1}, "values": {"t": {"count": 1, "sum": 4.0,
                                                        "min": 4.0, "max": 4.0}}}
    merged = metrics.merge(a, b)
    assert merged["counters"] == {"n": 5, "m": 1}
    assert merged["values"]["t"] == {"count": 2, "sum": 6.0, "min": 2.0,
                                     "max": 4.0}
    text = metrics.format_metrics(merged)
    assert "n" in text and "mean 3" in text


# --------------------------------------------------------------------- #
# perf trajectory + the regression gate


def _snapshot(tmp_path, name="BENCH_0001.json", value=10.0, tolerance=0.35):
    snapshot = trajectory.make_snapshot(
        {"gm_speedup": trajectory.metric(value, unit="x"),
         "job_s": trajectory.metric(0.5, unit="s", higher_is_better=False,
                                    gate=False)},
        label=name.removesuffix(".json"),
        tolerance=tolerance,
    )
    trajectory.save_snapshot(tmp_path / name, snapshot)
    return snapshot


def test_trajectory_snapshot_ordering_and_next_path(tmp_path):
    _snapshot(tmp_path, "BENCH_0001.json")
    _snapshot(tmp_path, "BENCH_0003.json")
    (tmp_path / "BENCH_junk.json").write_text("{}")
    paths = trajectory.snapshot_paths(tmp_path)
    assert [p.name for p in paths] == ["BENCH_0001.json", "BENCH_0003.json"]
    latest_path, latest = trajectory.latest_snapshot(tmp_path)
    assert latest_path.name == "BENCH_0003.json"
    assert latest["label"] == "BENCH_0003"
    assert trajectory.next_snapshot_path(tmp_path).name == "BENCH_0004.json"


def test_trajectory_compare_passes_within_tolerance(tmp_path):
    baseline = _snapshot(tmp_path, value=10.0, tolerance=0.2)
    current = {"gm_speedup": trajectory.metric(8.5),
               "job_s": trajectory.metric(9.9, higher_is_better=False,
                                          gate=False),
               "unknown": trajectory.metric(1.0)}
    report = trajectory.compare(current, baseline)
    assert report.ok
    assert [name for name, *_ in report.passed] == ["gm_speedup"]
    # gate:false and baseline-missing metrics are informational, never failed
    assert {name for name, _ in report.informational} == {"job_s", "unknown"}


def test_trajectory_compare_fails_on_regression(tmp_path):
    baseline = _snapshot(tmp_path, value=10.0, tolerance=0.2)
    report = trajectory.compare(
        {"gm_speedup": trajectory.metric(7.9)}, baseline
    )
    assert not report.ok
    name, current, base, bound = report.regressions[0]
    assert (name, current, base, bound) == ("gm_speedup", 7.9, 10.0, 8.0)
    assert "REGRESSION gm_speedup" in report.format()


def test_trajectory_compare_lists_missing_gated_metrics(tmp_path, capsys):
    """A gated baseline metric the current run did not record is listed as
    missing: not a failure, but not silently dropped from the gate either.
    Ungated baseline metrics are not listed."""
    baseline = _snapshot(tmp_path, value=10.0)
    report = trajectory.compare({"other": trajectory.metric(1.0)}, baseline)
    assert report.ok
    assert report.missing == [("gm_speedup", 10.0)]
    text = report.format()
    assert "missing gm_speedup" in text
    assert "job_s" not in text

    current = tmp_path / "current.json"
    trajectory.record(current, "other", 1.0, unit="x")
    assert cli_main(["bench", "check", "--from", str(current),
                     "--dir", str(tmp_path)]) == 0
    assert "missing gm_speedup" in capsys.readouterr().out


def test_trajectory_record_accumulates(tmp_path):
    path = tmp_path / "current.json"
    trajectory.record(path, "a", 1.0, unit="x")
    trajectory.record(path, "b", 0.5, unit="s", higher_is_better=False,
                      gate=False)
    trajectory.record(path, "a", 2.0, unit="x")  # overwrite, keep b
    data = trajectory.load_recorded(path)
    assert data["metrics"]["a"]["value"] == 2.0
    assert data["metrics"]["b"]["gate"] is False


def test_recorded_tolerance_reaches_the_snapshot_gate(tmp_path, capsys):
    """A per-metric tolerance recorded with a measurement is kept by the
    snapshot taken from it and bands that metric in later checks."""
    current = tmp_path / "current.json"
    trajectory.record(current, "gm_quick", 10.0, unit="x", tolerance=0.5)
    trajectory.record(current, "gm", 10.0, unit="x")
    assert cli_main(["bench", "snapshot", "--from", str(current),
                     "--dir", str(tmp_path)]) == 0
    doc = trajectory.load_snapshot(tmp_path / "BENCH_0001.json")
    assert doc["metrics"]["gm_quick"]["tolerance"] == 0.5
    assert "tolerance" not in doc["metrics"]["gm"]
    report = trajectory.compare(
        {"gm_quick": trajectory.metric(6.0), "gm": trajectory.metric(6.0)}, doc
    )
    assert [name for name, *_ in report.passed] == ["gm_quick"]
    assert [name for name, *_ in report.regressions] == ["gm"]


def test_bench_check_cli_gate(tmp_path, capsys):
    """The CI gate demonstrably fails (exit 1) when the GM speedup drops."""
    _snapshot(tmp_path, value=10.0, tolerance=0.2)
    current = tmp_path / "current.json"
    trajectory.record(current, "gm_speedup", 9.5, unit="x")
    assert cli_main(["bench", "check", "--from", str(current),
                     "--dir", str(tmp_path)]) == 0
    assert "ok gm_speedup" in capsys.readouterr().out

    trajectory.record(current, "gm_speedup", 2.0, unit="x")
    assert cli_main(["bench", "check", "--from", str(current),
                     "--dir", str(tmp_path)]) == 1
    assert "REGRESSION gm_speedup" in capsys.readouterr().out

    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli_main(["bench", "check", "--from", str(current),
                     "--dir", str(empty)]) == 2


def test_bench_snapshot_and_list_cli(tmp_path, capsys):
    current = tmp_path / "current.json"
    trajectory.record(current, "gm_speedup", 12.5, unit="x")
    assert cli_main(["bench", "snapshot", "--from", str(current),
                     "--dir", str(tmp_path)]) == 0
    written = tmp_path / "BENCH_0001.json"
    assert written.exists()
    doc = trajectory.load_snapshot(written)
    assert doc["label"] == "BENCH_0001"
    assert doc["metrics"]["gm_speedup"]["value"] == 12.5
    capsys.readouterr()
    assert cli_main(["bench", "list", "--dir", str(tmp_path)]) == 0
    assert "gm_speedup" in capsys.readouterr().out


def test_bench_snapshot_refuses_overwrite(tmp_path, capsys):
    """Snapshots are committed history: an existing BENCH file is never
    clobbered without --force, and omitting --out auto-picks the next
    free label."""
    current = tmp_path / "current.json"
    trajectory.record(current, "gm_speedup", 12.5, unit="x")
    existing = tmp_path / "BENCH_0001.json"
    assert cli_main(["bench", "snapshot", "--from", str(current),
                     "--dir", str(tmp_path)]) == 0
    assert existing.exists()

    # explicit --out onto the existing file: refused, file untouched
    before = existing.read_text()
    trajectory.record(current, "gm_speedup", 99.0, unit="x")
    assert cli_main(["bench", "snapshot", "--from", str(current),
                     "--dir", str(tmp_path), "--out", str(existing)]) == 2
    assert existing.read_text() == before

    # --force overwrites in place
    assert cli_main(["bench", "snapshot", "--from", str(current),
                     "--dir", str(tmp_path), "--out", str(existing),
                     "--force"]) == 0
    assert trajectory.load_snapshot(existing)["metrics"]["gm_speedup"]["value"] == 99.0

    # no --out: the next free label is picked, nothing overwritten
    capsys.readouterr()
    assert cli_main(["bench", "snapshot", "--from", str(current),
                     "--dir", str(tmp_path)]) == 0
    assert (tmp_path / "BENCH_0002.json").exists()


def test_bench_check_without_source_errors(tmp_path):
    _snapshot(tmp_path)
    assert cli_main(["bench", "check", "--dir", str(tmp_path)]) == 2


# --------------------------------------------------------------------- #
# provenance + worker/executor round trip


def test_job_record_from_dict_defaults_for_old_stores():
    job = _tiny_job()
    old = {  # a pre-observability JSONL line: no provenance/metrics/spans
        "job": job.to_dict(), "status": "error", "error": "boom",
        "elapsed_s": 1.0,
    }
    record = JobRecord.from_dict(old)
    assert record.provenance == {} and record.metrics == {} and record.spans == []
    # and emitting it back does not invent the new keys
    assert not {"provenance", "metrics", "spans"} & record.to_dict().keys()


def test_execute_job_provenance_always_present(obs_off):
    payload = execute_job(_tiny_job().to_dict())
    assert payload["status"] == "ok"
    prov = payload["provenance"]
    assert prov["pid"] > 0 and prov["hostname"]
    assert prov["started_at"].startswith("20")  # ISO-8601
    # observability off: no spans/metrics keys ride along
    assert "spans" not in payload and "metrics" not in payload


def test_execute_job_attaches_spans_and_metrics(obs_off):
    tracing.enable()
    metrics.enable()
    payload = execute_job(_tiny_job().to_dict())
    names = [s["name"] for s in payload["spans"]]
    assert any(n.startswith("job:") for n in names)
    assert any(n.startswith("sim.") for n in names)
    counters = payload["metrics"]["counters"]
    assert counters["sim.runs"] == 1
    assert counters["backend.blocks_compressed"] > 0
    assert payload["metrics"]["values"]["job.elapsed_s"]["count"] == 1
    # the job drained only its own spans and cleared its metrics snapshot
    assert tracing.collected() == []
    assert metrics.snapshot() == {"counters": {}, "values": {}}


def test_run_jobs_keeps_campaign_spans_out_of_job_records(obs_off):
    tracing.enable()
    outcome = run_jobs(None, [_tiny_job()], workers=1)
    record = next(iter(outcome.records.values()))
    job_span_names = {s["name"] for s in record.spans}
    assert not {"campaign.lookup", "campaign.execute"} & job_span_names
    buffer_names = {s["name"] for s in tracing.drain()}
    assert {"campaign.lookup", "campaign.execute"} <= buffer_names
    assert record.metrics == {}  # metrics were off


def test_run_jobs_metrics_aggregate(obs_off):
    metrics.enable()
    outcome = run_jobs(None, [_tiny_job()], workers=1)
    assert outcome.n_executed == 1
    snap = metrics.snapshot()
    assert snap["counters"]["campaign.jobs"] == 1
    assert snap["counters"]["campaign.executed"] == 1
    record = next(iter(outcome.records.values()))
    assert record.metrics["counters"]["sim.runs"] == 1
