"""Tests for the campaign subsystem (spec, worker, store, executor, CLI)."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    BASELINE_SCHEME,
    CampaignSpec,
    Job,
    ResultStore,
    build_backend,
    config_to_overrides,
    overrides_to_config,
    run_campaign,
    run_jobs,
    simulate_job,
)
from repro.campaign.cli import main as cli_main
from repro.campaign.store import JobRecord
from repro.core.config import SLCVariant
from repro.gpu.config import GPUConfig, LatencyConfig
from repro.gpu.simulator import GPUSimulator, SimulationResult
from repro.studies.slc import VARIANT_LABELS, run_slc_study
from repro.workloads.registry import PAPER_WORKLOAD_ORDER, get_workload

TINY = 1.0 / 1024.0

#: the full paper grid of the acceptance criteria
ALL_SCHEMES = ("E2MC", "TSLC-SIMP", "TSLC-PRED", "TSLC-OPT")


# --------------------------------------------------------------------- #
# jobs and specs


def test_job_content_hash_stable_and_parameter_sensitive():
    job = Job(workload="BS", scheme="TSLC-OPT", scale=TINY)
    assert job.content_hash == Job(workload="BS", scheme="TSLC-OPT", scale=TINY).content_hash
    # every axis must contribute to the hash
    variations = [
        Job(workload="NN", scheme="TSLC-OPT", scale=TINY),
        Job(workload="BS", scheme="E2MC", scale=TINY, compute_error=False),
        Job(workload="BS", scheme="TSLC-OPT", scale=TINY, lossy_threshold_bytes=8),
        Job(workload="BS", scheme="TSLC-OPT", scale=TINY, mag_bytes=64),
        Job(workload="BS", scheme="TSLC-OPT", scale=TINY / 2),
        Job(workload="BS", scheme="TSLC-OPT", scale=TINY, seed=7),
        Job(workload="BS", scheme="TSLC-OPT", scale=TINY, compute_error=False),
        Job(workload="BS", scheme="TSLC-OPT", scale=TINY,
            config_overrides=(("num_sms", 8),)),
    ]
    hashes = {job.content_hash} | {v.content_hash for v in variations}
    assert len(hashes) == len(variations) + 1


def test_job_normalizes_case_for_cache_identity():
    lower = Job(workload="bs", scheme="tslc-opt", scale=TINY)
    upper = Job(workload="BS", scheme="TSLC-OPT", scale=TINY)
    assert lower == upper
    assert lower.content_hash == upper.content_hash


def test_job_normalizes_numeric_types_for_cache_identity():
    # scale=1 vs 1.0 (and int-ish thresholds) must hash identically, or the
    # worker dict round trip would re-key the record and defeat the cache
    a = Job(workload="NN", scheme="TSLC-OPT", scale=1, lossy_threshold_bytes=16.0)
    b = Job(workload="NN", scheme="TSLC-OPT", scale=1.0, lossy_threshold_bytes=16)
    assert a == b and a.content_hash == b.content_hash
    assert Job.from_dict(a.to_dict()).content_hash == a.content_hash


def test_baseline_job_is_threshold_independent():
    # E2MC ignores the lossy threshold, so every threshold addresses the
    # same cache entry (and the baseline never computes application error)
    a = Job(workload="BS", scheme="E2MC", lossy_threshold_bytes=8, scale=TINY)
    b = Job(workload="BS", scheme="E2MC", lossy_threshold_bytes=32, scale=TINY,
            compute_error=True)
    assert a == b and a.content_hash == b.content_hash
    assert a.compute_error is False


def test_job_dict_roundtrip_through_json():
    job = Job(
        workload="DCT",
        scheme="TSLC-PRED",
        lossy_threshold_bytes=8,
        mag_bytes=64,
        scale=0.125,
        seed=42,
        compute_error=False,
        config_overrides=(("latency.tslc_compress_cycles", 70), ("num_sms", 8)),
    )
    restored = Job.from_dict(json.loads(json.dumps(job.to_dict())))
    assert restored == job
    assert restored.content_hash == job.content_hash


def test_config_overrides_roundtrip():
    assert config_to_overrides(None) == ()
    assert config_to_overrides(GPUConfig()) == ()
    config = GPUConfig().scaled(
        num_sms=8,
        memory_bandwidth_gbps=100.0,
        latency=LatencyConfig(tslc_compress_cycles=70),
    )
    overrides = config_to_overrides(config)
    assert dict(overrides) == {
        "num_sms": 8,
        "memory_bandwidth_gbps": 100.0,
        "latency.tslc_compress_cycles": 70,
    }
    assert overrides_to_config(overrides) == config


def test_spec_expands_full_grid_in_deterministic_order():
    spec = CampaignSpec(
        workloads=("BS", "NN"),
        schemes=("E2MC", "TSLC-OPT"),
        lossy_thresholds=(8, 16),
        mags=(None, 64),
        scales=(TINY,),
        seeds=(1, 2),
    )
    jobs = spec.expand()
    # 32 raw cells, but the threshold-independent E2MC baseline aliases
    # across the two thresholds: 16 TSLC cells + 8 unique baseline cells
    assert len(jobs) == 16 + 8
    assert jobs == spec.expand()  # deterministic
    # innermost axis is the scheme, then workloads — so studies group cleanly
    assert [j.scheme for j in jobs[:4]] == ["E2MC", "TSLC-OPT", "E2MC", "TSLC-OPT"]
    assert [j.workload for j in jobs[:4]] == ["BS", "BS", "NN", "NN"]
    # the lossless baseline never computes application error
    for job in jobs:
        assert job.compute_error is (job.scheme != BASELINE_SCHEME)


def test_spec_rejects_unknown_axes():
    with pytest.raises(KeyError, match="unknown workload"):
        CampaignSpec(workloads=("NOPE",))
    with pytest.raises(KeyError, match="unknown scheme"):
        CampaignSpec(schemes=("ZLIB",))
    with pytest.raises(ValueError, match="at least one value"):
        CampaignSpec(workloads=())


def test_spec_dict_roundtrip():
    spec = CampaignSpec(
        name="x",
        workloads=("BS",),
        schemes=("E2MC",),
        lossy_thresholds=(4, 8),
        mags=(None, 16),
        scales=(None, 0.5),
        seeds=(3,),
        compute_error=False,
        config_overrides=(("num_sms", 4),),
    )
    assert CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


# --------------------------------------------------------------------- #
# result serialization and the store


def test_simulation_result_json_roundtrip():
    result = simulate_job(Job(workload="NN", scheme="TSLC-OPT", scale=TINY))
    restored = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert restored == result
    assert restored.energy == result.energy
    assert restored.edp == result.edp


def test_store_persists_and_reloads(tmp_path):
    job = Job(workload="NN", scheme="E2MC", scale=TINY, compute_error=False)
    record = JobRecord(job=job, status="ok", result=simulate_job(job), elapsed_s=0.5)
    store = ResultStore(tmp_path)
    store.put(record)

    reloaded = ResultStore(tmp_path)
    assert len(reloaded) == 1
    assert job.content_hash in reloaded
    fetched = reloaded.get(job.content_hash)
    assert fetched.ok and fetched.result == record.result and fetched.job == job


def test_store_skips_torn_trailing_line(tmp_path):
    job = Job(workload="NN", scheme="E2MC", scale=TINY, compute_error=False)
    store = ResultStore(tmp_path)
    store.put(JobRecord(job=job, status="error", error="boom"))
    with store.results_path.open("a") as handle:
        handle.write('{"job_hash": "truncated...')
    reloaded = ResultStore(tmp_path)
    assert len(reloaded) == 1


def test_store_spec_roundtrip(tmp_path):
    spec = CampaignSpec(workloads=("BS",), schemes=("E2MC",), scales=(TINY,))
    store = ResultStore(tmp_path)
    assert store.load_spec() is None
    store.save_spec(spec)
    assert ResultStore(tmp_path).load_spec() == spec


# --------------------------------------------------------------------- #
# executor


def test_failed_job_is_captured_not_fatal(tmp_path):
    spec = CampaignSpec(workloads=("NN",), schemes=("E2MC",), scales=(TINY,))
    good = Job(workload="NN", scheme="E2MC", scale=TINY, compute_error=False)
    bad = Job(workload="NN", scheme="BOGUS", scale=TINY)  # bypasses spec checks
    outcome = run_jobs(spec, [bad, good], store=ResultStore(tmp_path))
    assert outcome.n_total == 2 and outcome.n_failed == 1
    assert outcome.record_for(good).ok
    assert "unknown scheme" in outcome.record_for(bad).error
    with pytest.raises(RuntimeError, match="1 of 2 campaign jobs failed"):
        outcome.raise_for_failures()
    # failed records are retried on the next invocation, not served as cache
    retry = run_jobs(spec, [bad, good], store=ResultStore(tmp_path))
    assert retry.record_for(good).cached
    assert not retry.record_for(bad).cached


def test_progress_callback_sees_every_job():
    spec = CampaignSpec(
        workloads=("NN",), schemes=("E2MC", "TSLC-SIMP"), scales=(TINY,),
        compute_error=False,
    )
    seen = []
    run_campaign(spec, progress=lambda record, done, total: seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]


def test_progress_reporter_prints_rolling_eta():
    import io

    from repro.campaign.cli import ProgressReporter
    from repro.campaign.spec import Job

    stream = io.StringIO()
    reporter = ProgressReporter(workers=2, stream=stream)
    job = Job(workload="NN", scheme="E2MC", compute_error=False)
    # A cached cell reports but contributes no timing (and thus no ETA yet).
    reporter(JobRecord(job=job, status="ok", cached=True), 1, 5)
    # Executed cells feed the rolling mean; 3 jobs left at 4 s mean over
    # 2 workers -> ETA 6 s.
    reporter(JobRecord(job=job, status="ok", elapsed_s=4.0), 2, 5)
    lines = stream.getvalue().splitlines()
    assert lines[0].startswith("[1/5]")
    assert "ETA" not in lines[0]
    assert "avg 4.00s/job" in lines[1]
    assert "ETA 6s" in lines[1]
    # Failed jobs abort early and must not drag the mean toward zero.
    reporter(JobRecord(job=job, status="error", elapsed_s=0.001), 3, 5)
    assert "avg 4.00s/job" in stream.getvalue().splitlines()[-1]
    # The final job prints no ETA (nothing remaining).
    reporter(JobRecord(job=job, status="ok", elapsed_s=2.0), 5, 5)
    assert "ETA" not in stream.getvalue().splitlines()[-1]


def test_progress_reporter_is_a_valid_campaign_progress_hook():
    import io

    from repro.campaign.cli import ProgressReporter

    stream = io.StringIO()
    spec = CampaignSpec(
        workloads=("NN",), schemes=("E2MC", "TSLC-SIMP"), scales=(TINY,),
        compute_error=False,
    )
    run_campaign(spec, progress=ProgressReporter(stream=stream))
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[1/2]")
    assert "ETA" in lines[0]  # one job remaining after the first completes
    assert lines[1].startswith("[2/2]")


def test_timing_only_request_served_from_error_computed_record(tmp_path):
    """A stored result that computed the application error is a strict
    superset of a timing-only request for the same cell."""
    full = CampaignSpec(workloads=("NN",), schemes=("TSLC-OPT",), scales=(TINY,))
    first = run_campaign(full, store=ResultStore(tmp_path))
    first.raise_for_failures()

    timing_only = CampaignSpec(
        workloads=("NN",), schemes=("TSLC-OPT",), scales=(TINY,), compute_error=False
    )
    second = run_campaign(timing_only, store=ResultStore(tmp_path))
    assert second.n_cached == 1 and second.n_executed == 0
    served = second.record_for(timing_only.expand()[0])
    assert served.result.error_percent >= 0.0  # the superset record


def test_full_paper_grid_parallel_then_all_cache_hits(tmp_path):
    """Acceptance: 9 workloads x 4 schemes with workers>1 persists to disk and
    an identical second invocation re-runs zero simulations."""
    spec = CampaignSpec(
        name="full-grid",
        workloads=PAPER_WORKLOAD_ORDER,
        schemes=ALL_SCHEMES,
        scales=(TINY,),
        compute_error=False,
    )
    outcome = run_campaign(spec, store=ResultStore(tmp_path), workers=2)
    outcome.raise_for_failures()
    assert outcome.n_total == 9 * 4
    assert outcome.n_executed == 36 and outcome.n_cached == 0
    assert (tmp_path / "results.jsonl").exists()

    rerun = run_campaign(spec, store=ResultStore(tmp_path), workers=2)
    assert rerun.n_cached == 36 and rerun.n_executed == 0 and rerun.n_failed == 0
    for job, record in rerun.iter_records():
        assert record.cached and record.result == outcome.record_for(job).result


# --------------------------------------------------------------------- #
# run_slc_study on the campaign engine


def _serial_seed_study(workload_names, variants, scale, seed):
    """The seed repo's serial loop, inlined as the regression reference."""
    config = GPUConfig()
    simulator = GPUSimulator(config=config)
    results = {}
    for name in workload_names:
        per_scheme = {}
        workload = get_workload(name, seed=seed, scale=scale)
        per_scheme["E2MC"] = simulator.run(
            workload, build_backend(BASELINE_SCHEME, config), compute_error=False
        )
        for variant in variants:
            workload = get_workload(name, seed=seed, scale=scale)
            per_scheme[VARIANT_LABELS[variant]] = simulator.run(
                workload,
                build_backend(VARIANT_LABELS[variant], config),
                compute_error=True,
            )
        results[name] = per_scheme
    return results


def test_run_slc_study_matches_serial_seed_semantics():
    """Acceptance: the campaign-backed study returns metrics identical to the
    seed's serial implementation for a fixed seed."""
    workloads = ["BS", "NN"]
    variants = [SLCVariant.SIMP, SLCVariant.OPT]
    study = run_slc_study(workload_names=workloads, variants=variants, scale=TINY)
    reference = _serial_seed_study(workloads, variants, TINY, seed=2019)
    assert study.workloads() == workloads
    for name in workloads:
        assert list(study.results[name]) == list(reference[name])
        for scheme, expected in reference[name].items():
            assert study.results[name][scheme] == expected


def test_run_slc_study_parallel_matches_serial():
    serial = run_slc_study(workload_names=["BS"], variants=[SLCVariant.OPT], scale=TINY)
    parallel = run_slc_study(
        workload_names=["BS"], variants=[SLCVariant.OPT], scale=TINY, workers=2
    )
    assert serial.results == parallel.results


def test_run_slc_study_uses_store_cache(tmp_path):
    kwargs = dict(
        workload_names=["NN"], variants=[SLCVariant.OPT], scale=TINY,
        compute_error=False, store_dir=tmp_path,
    )
    first = run_slc_study(**kwargs)
    second = run_slc_study(**kwargs)
    assert first.results == second.results
    # two (workload, scheme) cells were persisted, none duplicated
    assert len(ResultStore(tmp_path)) == 2


def test_run_slc_study_preserves_caller_workload_names():
    study = run_slc_study(workload_names=["bs"], variants=[SLCVariant.OPT],
                          scale=TINY, compute_error=False)
    assert study.workloads() == ["bs"]
    assert study.speedup("bs", "TSLC-OPT") > 0


def test_study_schemes_returns_union_across_workloads():
    study = run_slc_study(workload_names=["BS"], variants=[SLCVariant.SIMP],
                          scale=TINY, compute_error=False)
    # a second workload simulated with a different variant set
    extra = run_slc_study(workload_names=["NN"], variants=[SLCVariant.OPT],
                          scale=TINY, compute_error=False)
    study.results.update(extra.results)
    assert study.schemes() == ["E2MC", "TSLC-SIMP", "TSLC-OPT"]


# --------------------------------------------------------------------- #
# CLI


def _run_cli(*argv):
    return cli_main(list(argv))


def test_cli_run_status_export(tmp_path, capsys):
    campaign_dir = str(tmp_path / "camp")
    code = _run_cli(
        "campaign", "run", "--dir", campaign_dir,
        "--workloads", "NN", "--schemes", "E2MC,TSLC-OPT",
        "--scale", str(TINY), "--no-error", "--quiet",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "2 jobs" in out and "2 executed" in out and "0 failed" in out

    # identical re-run: everything served from the store
    code = _run_cli(
        "campaign", "run", "--dir", campaign_dir,
        "--workloads", "NN", "--schemes", "E2MC,TSLC-OPT",
        "--scale", str(TINY), "--no-error", "--quiet",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "2 cached, 0 executed" in out

    code = _run_cli("campaign", "status", "--dir", campaign_dir)
    out = capsys.readouterr().out
    assert code == 0
    assert "2 complete, 0 failed, 0 missing" in out

    csv_path = tmp_path / "export.csv"
    code = _run_cli("campaign", "export", "--dir", campaign_dir, "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + two result rows
    assert lines[0].startswith("workload,scheme,")
    assert any(line.startswith("NN,E2MC,") for line in lines[1:])
    assert any(line.startswith("NN,TSLC-OPT,") for line in lines[1:])


def test_cli_status_agrees_with_run_on_twin_cache(tmp_path, capsys):
    """A timing-only spec over a store populated with error-computing runs
    must report complete — the same policy `campaign run` serves cache by."""
    campaign_dir = str(tmp_path / "camp")
    assert _run_cli(
        "campaign", "run", "--dir", campaign_dir,
        "--workloads", "NN", "--schemes", "TSLC-OPT",
        "--scale", str(TINY), "--quiet",
    ) == 0
    capsys.readouterr()
    # re-declare the campaign as timing-only: run serves it from the twin...
    assert _run_cli(
        "campaign", "run", "--dir", campaign_dir,
        "--workloads", "NN", "--schemes", "TSLC-OPT",
        "--scale", str(TINY), "--no-error", "--quiet",
    ) == 0
    assert "1 cached, 0 executed" in capsys.readouterr().out
    # ...and status agrees instead of calling the same cells missing
    assert _run_cli("campaign", "status", "--dir", campaign_dir) == 0
    assert "1 complete, 0 failed, 0 missing" in capsys.readouterr().out


def test_cli_status_without_spec(tmp_path, capsys):
    assert _run_cli("campaign", "status", "--dir", str(tmp_path)) == 1
    assert "no campaign.json" in capsys.readouterr().out


def test_cli_version(capsys):
    from repro._version import __version__

    assert _run_cli("version") == 0
    assert capsys.readouterr().out.strip() == __version__
