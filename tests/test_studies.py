"""Tests for the declarative Study framework (registry, regression, CLI)."""

from __future__ import annotations

import csv
import math

import pytest

from repro.campaign import ResultStore
from repro.campaign.cli import main as cli_main
from repro.core.config import SLCVariant
from repro.studies import (
    Fig1Study,
    Fig2Study,
    Fig7Study,
    Fig8Study,
    Fig9Study,
    GPUScalingStudy,
    ResponseSurfaceStudy,
    SeedVarianceStudy,
    SLCSweepStudy,
    Table1Study,
    ThresholdAblationStudy,
    TournamentStudy,
    available_studies,
    fig1_rows,
    fig7_rows,
    fig8_rows,
    get_study,
    pareto_frontier,
    run_slc_study,
    study_class,
)
from repro.studies.compression import compression_stats_for_blocks, workload_blocks
from repro.studies.cli import build_study, coerce_param

TINY = 1.0 / 1024.0
SMALL = 1.0 / 2048.0
WORKLOADS = ("BS", "NN")

#: every study the framework must register
EXPECTED_STUDIES = {
    "fig1",
    "fig2",
    "table1",
    "fig7",
    "fig8",
    "fig9",
    "slc-sweep",
    "ablation-threshold",
    "response-surface",
    "seed-variance",
    "gpu-scaling",
    "tournament",
    "fidelity",
}


# --------------------------------------------------------------------- #
# registry


def test_registry_contains_all_studies():
    assert set(available_studies()) == EXPECTED_STUDIES
    for name in EXPECTED_STUDIES:
        cls = study_class(name)
        assert cls.name == name
        assert cls.title


def test_registry_rejects_unknown_study():
    with pytest.raises(KeyError, match="unknown study"):
        get_study("fig42")


def test_get_study_passes_params():
    study = get_study("fig7", workloads=("NN",), scale=TINY)
    assert study.workloads == ("NN",)
    assert study.scale == TINY


# --------------------------------------------------------------------- #
# ported studies reproduce the historical numbers


@pytest.fixture(scope="module")
def slc_study():
    """The shared (BS, NN) study both regression tests reduce."""
    return run_slc_study(
        workload_names=list(WORKLOADS),
        variants=[SLCVariant.SIMP, SLCVariant.OPT],
        scale=TINY,
    )


def test_fig7_study_matches_direct_simulation_metrics(slc_study):
    """Acceptance: the Fig. 7 row builder produces numbers identical to
    metrics computed directly from the SimulationResults (no SLCStudy
    helpers involved)."""
    rows = fig7_rows(slc_study)
    by_key = {(row.workload, row.scheme): row for row in rows}
    for workload in WORKLOADS:
        baseline = slc_study.results[workload]["E2MC"]
        for scheme in ("TSLC-SIMP", "TSLC-OPT"):
            result = slc_study.results[workload][scheme]
            row = by_key[(workload, scheme)]
            assert row.speedup == baseline.exec_time_s / result.exec_time_s
            assert row.error_percent == result.error_percent
    for scheme in ("TSLC-SIMP", "TSLC-OPT"):
        speedups = [by_key[(w, scheme)].speedup for w in WORKLOADS]
        expected = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        assert by_key[("GM", scheme)].speedup == pytest.approx(expected, rel=1e-12)


def test_fig7_study_end_to_end_equals_wrapper(tmp_path):
    """Fig7Study.run() and the run_slc_study wrapper over the same store
    agree cell by cell."""
    result = Fig7Study(workloads=("NN",), scale=TINY).run(store=tmp_path)
    rows = fig7_rows(
        run_slc_study(workload_names=["NN"], scale=TINY, store_dir=tmp_path)
    )
    assert [
        (r.workload, r.scheme, r.speedup) for r in result.data["rows"]
    ] == [(r.workload, r.scheme, r.speedup) for r in rows]
    # the second invocation was pure cache: same store, zero simulations
    assert result.meta["n_executed"] == 4
    rerun = Fig7Study(workloads=("NN",), scale=TINY).run(store=tmp_path)
    assert rerun.meta["n_executed"] == 0 and rerun.meta["n_cached"] == 4


def test_fig8_study_matches_direct_simulation_metrics(slc_study):
    rows = fig8_rows(slc_study)
    by_key = {(row.workload, row.scheme): row for row in rows}
    for workload in WORKLOADS:
        baseline = slc_study.results[workload]["E2MC"]
        for scheme in ("TSLC-SIMP", "TSLC-OPT"):
            result = slc_study.results[workload][scheme]
            row = by_key[(workload, scheme)]
            assert row.normalized_bandwidth == result.dram_bytes / baseline.dram_bytes
            assert row.normalized_energy == result.energy_j / baseline.energy_j
            assert row.normalized_edp == result.edp / baseline.edp


def test_fig9_study_matches_per_mag_slc_studies():
    """The coupled Fig. 9 grid reduces to the same numbers as one
    run_slc_study per MAG (the historical implementation)."""
    mags = (32, 64)
    data = Fig9Study(workloads=("NN",), mags=mags, scale=TINY).run().data
    rows, studies = data["rows"], data["studies"]
    assert set(studies) == set(mags)
    for mag in mags:
        reference = run_slc_study(
            workload_names=["NN"],
            variants=[SLCVariant.OPT],
            lossy_threshold_bytes=mag // 2,
            mag_bytes=mag,
            scale=TINY,
        )
        assert studies[mag].results == reference.results
        (row,) = [r for r in rows if r.workload == "NN" and r.mag_bytes == mag]
        assert row.speedup == reference.speedup("NN", "TSLC-OPT")


def test_fig1_fig2_studies_equal_wrappers():
    """Fig1Study/Fig2Study equal the row builder and the per-workload block
    statistics they reduce."""
    rows = fig1_rows(list(WORKLOADS), ["e2mc"], scale=TINY)
    result = Fig1Study(workloads=WORKLOADS, compressors=("e2mc",), scale=TINY).run()
    assert result.data == rows
    assert result.rows[0]["raw_ratio"] == rows[0].raw_ratio

    result = Fig2Study(workloads=WORKLOADS, scale=TINY).run()
    assert result.data.per_workload == {
        name: compression_stats_for_blocks(
            workload_blocks(name, scale=TINY), "e2mc", 32
        ).extra_byte_distribution()
        for name in WORKLOADS
    }
    assert sum(r["fraction"] for r in result.rows if r["workload"] == "BS") == (
        pytest.approx(1.0)
    )


def test_table1_study_rows_and_format():
    result = Table1Study().run()
    units = {row["unit"] for row in result.rows}
    assert {"compressor", "decompressor"} <= units
    text = Table1Study().format(result)
    assert "Table I" in text and "GTX580" in text


def test_slc_sweep_study_rows_cover_grid():
    result = SLCSweepStudy(
        workloads=("NN",), schemes=("E2MC", "TSLC-OPT"), scale=TINY,
        compute_error=False,
    ).run()
    assert [(r["workload"], r["scheme"]) for r in result.rows] == [
        ("NN", "TSLC-OPT"),
        ("GM", "TSLC-OPT"),
    ]
    assert result.rows[0]["speedup"] == result.rows[1]["speedup"]  # one workload


def test_threshold_ablation_monotonic():
    result = ThresholdAblationStudy(thresholds=(0, 16), scale=SMALL).run()
    data = result.data
    assert data[0][0] == 0.0  # threshold 0 converts nothing
    assert data[16][0] >= data[0][0]
    assert data[16][1] <= data[0][1]  # bursts can only shrink


# --------------------------------------------------------------------- #
# the three new sweep studies, end-to-end on a result store


def test_response_surface_end_to_end(tmp_path):
    study = ResponseSurfaceStudy(
        workloads=("NN",),
        schemes=("TSLC-OPT",),
        mags=(16, 32),
        thresholds=(8, 16),
        scale=SMALL,
        compute_error=False,
    )
    result = study.run(store=tmp_path / "store")
    # 4 surface cells + one baseline per MAG
    assert result.meta["n_jobs"] == 6
    assert len(result.rows) == 4
    for row in result.rows:
        assert row["gm_speedup"] > 0
        assert 0 < row["gm_bandwidth"] <= 1.05
        # timing-only surface: no measured-looking 0.0 error columns
        assert "mean_error_percent" not in row
        assert "max_error_percent" not in row
    surface = result.data
    # a larger threshold can only save bandwidth at fixed MAG
    for mag in (16, 32):
        assert (
            surface[("TSLC-OPT", mag, 16)]["gm_bandwidth"]
            <= surface[("TSLC-OPT", mag, 8)]["gm_bandwidth"]
        )
    # identical re-run on the same store: pure cache
    rerun = study.run(store=tmp_path / "store")
    assert rerun.meta["n_executed"] == 0 and rerun.meta["n_cached"] == 6
    assert rerun.rows == result.rows
    assert (tmp_path / "store" / "results.jsonl").exists()


def test_seed_variance_end_to_end(tmp_path):
    study = SeedVarianceStudy(
        workloads=("NN",),
        schemes=("TSLC-OPT",),
        seeds=(2019, 2020),
        scale=SMALL,
    )
    result = study.run(store=tmp_path / "store")
    assert result.meta["n_jobs"] == 4  # 2 seeds x (baseline + TSLC-OPT)
    by_key = {(r["workload"], r["metric"]): r for r in result.rows}
    for metric in ("speedup", "error_percent", "bandwidth", "energy", "edp"):
        row = by_key[("NN", metric)]
        assert row["n_seeds"] == 2
        assert row["min"] <= row["mean"] <= row["max"]
        assert row["std"] >= 0.0
    # the GM band exists and matches the per-seed studies
    gm = by_key[("GM", "speedup")]
    per_seed = result.data["per_seed"][("GM", "TSLC-OPT", "speedup")]
    assert len(per_seed) == 2
    assert gm["mean"] == pytest.approx(sum(per_seed) / 2)
    assert gm["min"] == min(per_seed) and gm["max"] == max(per_seed)
    # each seed was normalized to its own baseline
    studies = result.data["studies"]
    assert set(studies) == {2019, 2020}
    assert per_seed[0] == studies[2019].geomean("speedup", "TSLC-OPT")


def test_gpu_scaling_end_to_end(tmp_path):
    study = GPUScalingStudy(
        workloads=("NN",),
        sm_counts=(8, 16),
        bandwidth_scales=(0.5, 1.0),
        scale=SMALL,
    )
    # the default config point is shared by both axes: 3 configs x 2 schemes
    assert len(study.jobs()) == 6
    result = study.run(store=tmp_path / "store")
    assert result.meta["n_executed"] == 6
    by_point = {(r["axis"], r["value"]): r for r in result.rows if r["workload"] == "NN"}
    # halving the bandwidth makes the run slower and TSLC at least as useful
    default_gbps = 192.4
    slow = by_point[("memory_bandwidth_gbps", default_gbps * 0.5)]
    fast = by_point[("memory_bandwidth_gbps", default_gbps)]
    assert slow["exec_time_s"] > fast["exec_time_s"]
    assert slow["speedup"] >= fast["speedup"] * 0.99
    # the shared default point reports identical numbers on both axes
    assert by_point[("num_sms", 16)]["speedup"] == fast["speedup"]
    gm_rows = [r for r in result.rows if r["workload"] == "GM"]
    assert len(gm_rows) == 4  # 2 SM points + 2 bandwidth points


def test_response_surface_reports_error_stats_when_computed(tmp_path):
    result = ResponseSurfaceStudy(
        workloads=("NN",), schemes=("TSLC-OPT",), mags=(32,), thresholds=(16,),
        scale=SMALL, compute_error=True,
    ).run(store=tmp_path)
    (row,) = result.rows
    assert row["mean_error_percent"] >= 0.0
    assert row["max_error_percent"] >= row["mean_error_percent"]


def test_new_studies_cache_in_two_stores_independently(tmp_path):
    """Two stores of the same grid hold equivalent records."""
    study = ResponseSurfaceStudy(
        workloads=("NN",), schemes=("TSLC-OPT",), mags=(32,), thresholds=(16,),
        scale=SMALL, compute_error=False,
    )
    study.run(store=tmp_path / "a")
    study.run(store=tmp_path / "b")
    a = {r.job.content_hash: r.to_dict() for r in ResultStore(tmp_path / "a").records()}
    b = {r.job.content_hash: r.to_dict() for r in ResultStore(tmp_path / "b").records()}
    for record in (*a.values(), *b.values()):
        # wall-clock noise: elapsed differs per run, and started_at (second
        # resolution) flakes whenever the two runs straddle a second boundary
        record["elapsed_s"] = 0.0
        record.get("provenance", {}).pop("started_at", None)
    assert a == b
    # and campaign diff agrees they are drift-free
    assert cli_main(
        ["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "b")]
    ) == 0


# --------------------------------------------------------------------- #
# baseline-scheme validation (caught at construction, not after simulating)


def test_sweep_studies_validate_baseline_scheme_up_front():
    with pytest.raises(ValueError, match="must include the E2MC baseline"):
        SLCSweepStudy(schemes=("TSLC-OPT",))
    with pytest.raises(ValueError, match="simulated implicitly"):
        ResponseSurfaceStudy(schemes=("E2MC", "TSLC-OPT"))
    with pytest.raises(ValueError, match="simulated implicitly"):
        SeedVarianceStudy(schemes=("e2mc",))
    with pytest.raises(ValueError, match="simulated implicitly"):
        GPUScalingStudy(scheme="E2MC")


def test_cli_reports_baseline_scheme_error_without_simulating(capsys):
    code = cli_main(
        ["study", "run", "slc-sweep", "--set", "schemes=TSLC-OPT", "--quiet"]
    )
    assert code == 2
    assert "must include the E2MC baseline" in capsys.readouterr().err


def test_fig7_fig8_specs_delegate_to_slc_sweep():
    """The figure grids are SLCSweepStudy's grid (incl. the MAG knob)."""
    fig7_spec = Fig7Study(workloads=("NN",), mag_bytes=64, scale=TINY).spec()
    sweep_spec = SLCSweepStudy(
        workloads=("NN",), mag_bytes=64, scale=TINY, compute_error=True
    ).spec()
    assert fig7_spec == sweep_spec
    fig8_spec = Fig8Study(workloads=("NN",), scale=TINY).spec()
    assert fig8_spec.compute_error is False
    assert fig8_spec.schemes == sweep_spec.schemes


# --------------------------------------------------------------------- #
# the study CLI


def test_cli_coerce_param_types():
    assert coerce_param(Fig7Study, "scale", "0.5") == 0.5
    assert coerce_param(Fig7Study, "workloads", "bs, nn") == ("bs", "nn")
    assert coerce_param(Fig7Study, "seed", "7") == 7
    assert coerce_param(Fig9Study, "mags", "16,32") == (16, 32)
    assert coerce_param(ResponseSurfaceStudy, "compute_error", "false") is False
    assert coerce_param(GPUScalingStudy, "bandwidth_scales", "0.5,2") == (0.5, 2.0)
    with pytest.raises(KeyError, match="no knob"):
        coerce_param(Fig7Study, "bogus", "1")


def test_cli_coerce_param_fractions():
    # None-default field (scale) and float-element tuple field both parse a/b
    assert coerce_param(Fig7Study, "scale", "1/2048") == 1.0 / 2048.0
    assert coerce_param(GPUScalingStudy, "bandwidth_scales", "1/2,2") == (0.5, 2.0)
    with pytest.raises(ValueError, match="zero denominator"):
        coerce_param(GPUScalingStudy, "bandwidth_scales", "1/0")
    # a slash string that is not a fraction stays a string on None defaults
    assert coerce_param(Fig7Study, "scale", "a/b") == "a/b"


def test_cli_build_study():
    study = build_study("fig9", ["workloads=NN", "mags=32", "scale=0.001"])
    assert isinstance(study, Fig9Study)
    assert study.workloads == ("NN",) and study.mags == (32,)
    with pytest.raises(ValueError, match="key=value"):
        build_study("fig9", ["workloads"])


def test_cli_study_list(capsys):
    assert cli_main(["study", "list", "-v"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_STUDIES:
        assert name in out
    assert "knobs:" in out


def test_cli_study_run_and_export(tmp_path, capsys):
    store = str(tmp_path / "store")
    args = [
        "study", "run", "slc-sweep",
        "--set", "workloads=NN", "--set", "schemes=E2MC,TSLC-OPT",
        "--set", f"scale={TINY}", "--set", "compute_error=false",
        "--dir", store, "--quiet",
    ]
    assert cli_main(args) == 0
    out = capsys.readouterr().out
    assert "NN" in out and "TSLC-OPT" in out

    csv_path = tmp_path / "sweep.csv"
    assert cli_main([
        "study", "export", "slc-sweep",
        "--set", "workloads=NN", "--set", "schemes=E2MC,TSLC-OPT",
        "--set", f"scale={TINY}", "--set", "compute_error=false",
        "--dir", store, "--quiet", "--csv", str(csv_path),
    ]) == 0
    with csv_path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert [row["workload"] for row in rows] == ["NN", "GM"]
    assert float(rows[0]["speedup"]) > 0

    # a re-run over the same store is served entirely from it
    capsys.readouterr()
    assert cli_main(args) == 0
    assert "2 cached, 0 executed" in capsys.readouterr().err


def test_cli_study_run_unknown_study_and_knob(capsys):
    assert cli_main(["study", "run", "fig42", "--quiet"]) == 2
    assert "unknown study" in capsys.readouterr().err
    assert cli_main(["study", "run", "fig7", "--set", "bogus=1", "--quiet"]) == 2
    assert "no knob" in capsys.readouterr().err


def test_cli_study_run_table1_no_store(capsys):
    assert cli_main(["study", "run", "table1", "--quiet"]) == 0
    assert "Table I" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# the tournament study


def test_pareto_frontier_non_dominated_set():
    # (speedup up, ratio up, error down, area down)
    points = {
        "a": (1.2, 2.0, 0.0, 0.10),  # frontier
        "b": (1.2, 1.5, 0.0, 0.20),  # dominated by a
        "c": (1.5, 1.8, 3.0, 0.05),  # frontier (fastest, cheapest)
        "d": (1.0, 2.5, 0.0, 0.30),  # frontier (best ratio)
        "e": (1.0, 2.5, 1.0, 0.30),  # dominated by d
    }
    assert pareto_frontier(points) == ["a", "c", "d"]
    assert pareto_frontier({"only": (1.0, 1.0, 0.0, 0.1)}) == ["only"]
    # two identical points dominate neither; both survive
    twins = {"x": (1.0, 1.0, 0.0, 0.1), "y": (1.0, 1.0, 0.0, 0.1)}
    assert pareto_frontier(twins) == ["x", "y"]


def test_tournament_requires_baseline():
    with pytest.raises(ValueError, match="E2MC baseline"):
        TournamentStudy(schemes=("BDI", "FPC"))


def test_tournament_jobs_dedupe_lossless_across_thresholds():
    study = TournamentStudy(
        workloads=WORKLOADS, schemes=("E2MC", "BDI"), mags=(16, 32), scale=TINY
    )
    jobs = study.jobs()
    # lossless schemes pin threshold=0, so each (workload, scheme, mag) is
    # exactly one cell despite the per-MAG coupled thresholds
    assert len(jobs) == len(WORKLOADS) * 2 * 2
    assert all(job.lossy_threshold_bytes == 0 for job in jobs)
    assert all(not job.compute_error for job in jobs)


def test_tournament_end_to_end(tmp_path):
    schemes = ("E2MC", "BDI", "BPC", "TSLC-OPT")
    study = TournamentStudy(
        workloads=WORKLOADS,
        schemes=schemes,
        mags=(32,),
        scale=TINY,
        compute_error=False,
    )
    result = study.run(store=str(tmp_path / "store"))

    per_cell = [r for r in result.rows if r["workload"] != "GM"]
    gm = [r for r in result.rows if r["workload"] == "GM"]
    # every scheme x workload cell present, plus one GM row per scheme
    assert {(r["workload"], r["scheme"]) for r in per_cell} == {
        (w, s) for w in WORKLOADS for s in schemes
    }
    assert {r["scheme"] for r in gm} == set(schemes)

    for row in per_cell:
        assert row["speedup"] > 0
        assert row["compression_ratio"] >= 1.0 or math.isnan(row["compression_ratio"])
    baseline = [r for r in per_cell if r["scheme"] == "E2MC"]
    assert all(r["speedup"] == pytest.approx(1.0) for r in baseline)

    # GM rows carry the hardware axes and the pareto verdict
    for row in gm:
        assert row["area_mm2"] > 0 and row["power_mw"] > 0
        assert isinstance(row["pareto"], bool)
    frontier = result.data["frontier"][32]
    assert frontier == [r["scheme"] for r in gm if r["pareto"]]
    assert frontier  # never empty: something is always non-dominated

    # the formatted table names the frontier
    assert "Pareto frontier @ MAG 32 B" in study.format(result)


# --------------------------------------------------------------------- #
# the fidelity study


def test_fidelity_requires_baseline():
    from repro.studies import FidelityStudy

    with pytest.raises(ValueError, match="E2MC baseline"):
        FidelityStudy(schemes=("TSLC-OPT",))


def test_fidelity_end_to_end(tmp_path):
    from repro.studies import FidelityStudy

    schemes = ("E2MC", "TSLC-OPT")
    study = FidelityStudy(
        workloads=("NN", "WEATHER"), schemes=schemes, mags=(16,), scale=SMALL
    )
    result = study.run(store=str(tmp_path / "store"))

    per_cell = [r for r in result.rows if r["workload"] != "WORST"]
    worst = [r for r in result.rows if r["workload"] == "WORST"]
    assert {(r["workload"], r["scheme"]) for r in per_cell} == {
        (w, s) for w in ("NN", "WEATHER") for s in schemes
    }
    assert {r["scheme"] for r in worst} == set(schemes)

    for row in per_cell:
        assert -1.0 <= row["pearson"] <= 1.0
        assert 0.0 <= row["ks_stat"] <= 1.0
        assert row["iqr_mean_error"] >= 0.0
        assert row["iqr_max_error"] >= row["iqr_mean_error"]
        assert row["speedup"] > 0
    # the family taxonomy is threaded through to the export
    families = {r["workload"]: r["family"] for r in per_cell}
    assert families == {"NN": "paper", "WEATHER": "science"}
    # lossless rows synthesize a perfect panel
    for row in per_cell:
        if row["scheme"] == "E2MC":
            assert row["pearson"] == 1.0
            assert row["ks_stat"] == 0.0
            assert row["iqr_mean_error"] == 0.0
    # lossy rows at MAG 16 actually damage something on these workloads
    lossy = [r for r in per_cell if r["scheme"] == "TSLC-OPT"]
    assert any(r["pearson"] < 1.0 for r in lossy)
    assert "worst case @ MAG 16 B" in study.format(result)


def test_cli_study_run_tournament(tmp_path, capsys):
    csv_path = tmp_path / "tournament.csv"
    assert cli_main([
        "study", "export", "tournament",
        "--set", "workloads=NN", "--set", "schemes=E2MC,CPACK",
        "--set", "mags=32", "--set", "scale=1/2048",
        "--set", "compute_error=false",
        "--dir", str(tmp_path / "store"), "--quiet", "--csv", str(csv_path),
    ]) == 0
    with csv_path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert {(r["workload"], r["scheme"]) for r in rows} == {
        ("NN", "E2MC"), ("NN", "CPACK"), ("GM", "E2MC"), ("GM", "CPACK"),
    }
    assert all(float(r["compression_ratio"]) > 1.0 for r in rows)
