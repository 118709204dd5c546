"""Tests for the paper experiments (one per table/figure), through the
:mod:`repro.studies` API: the studies, their row builders and formatters."""

import math

import pytest

from repro.core.config import SLCVariant
from repro.hardware.synthesis import table1
from repro.studies import (
    Fig1Study,
    Fig2Study,
    Fig9Study,
    effective_ratio_by_mag,
    fig7_rows,
    fig8_rows,
    format_fig1,
    format_fig2,
    format_fig7,
    format_fig8,
    format_fig9,
    format_table1,
    run_slc_study,
)

SCALE = 1.0 / 1024.0
WORKLOADS = ["BS", "NN"]


@pytest.fixture(scope="module")
def study():
    """A small shared SLC study reused by the Fig. 7/8 tests."""
    return run_slc_study(
        workload_names=WORKLOADS,
        variants=[SLCVariant.SIMP, SLCVariant.OPT],
        scale=SCALE,
    )


# --------------------------------------------------------------------- #
# Fig. 1 / Fig. 2


def test_fig1_rows_cover_workloads_and_gm():
    rows = Fig1Study(workloads=tuple(WORKLOADS), scale=SCALE).run().data
    workloads = {row.workload for row in rows}
    assert workloads == set(WORKLOADS) | {"GM"}
    compressors = {row.compressor for row in rows}
    assert compressors == {"bdi", "fpc", "cpack", "e2mc"}
    for row in rows:
        assert row.raw_ratio >= row.effective_ratio > 0
        assert 0 <= row.effective_loss_percent < 100
    assert "Fig. 1" in format_fig1(rows)


def test_fig1_effective_ratio_below_raw_at_gm():
    rows = Fig1Study(
        workloads=tuple(WORKLOADS), compressors=("e2mc",), scale=SCALE
    ).run().data
    gm_row = [row for row in rows if row.workload == "GM"][0]
    assert gm_row.effective_ratio < gm_row.raw_ratio


def test_fig2_distribution_sums_to_one():
    distribution = Fig2Study(workloads=tuple(WORKLOADS), scale=SCALE).run().data
    for name, histogram in distribution.per_workload.items():
        assert sum(histogram.values()) == pytest.approx(1.0)
        assert all(0 <= key <= 32 for key in histogram)
    names, edges, matrix = distribution.heatmap()
    assert names == WORKLOADS
    assert edges[0] == 0 and edges[-1] == 32
    for row in matrix:
        assert sum(row) == pytest.approx(1.0)
    assert "Fig. 2" in format_fig2(distribution)


def test_fig2_blocks_exist_above_mag_multiples():
    """The paper's motivation: some blocks sit a few bytes above a multiple."""
    distribution = Fig2Study(workloads=tuple(WORKLOADS), scale=SCALE).run().data
    for name in WORKLOADS:
        assert distribution.fraction_within_threshold(name, 16) > 0.0


# --------------------------------------------------------------------- #
# Table I


def test_table1_formatting():
    results = table1()
    text = format_table1(results)
    assert "compressor" in text
    assert "decompressor" in text
    assert "GTX580" in text


# --------------------------------------------------------------------- #
# Fig. 7 / Fig. 8


def test_fig7_rows_and_gm(study):
    rows = fig7_rows(study)
    schemes = {row.scheme for row in rows}
    assert schemes == {"TSLC-SIMP", "TSLC-PRED", "TSLC-OPT"} & schemes
    gm_rows = [row for row in rows if row.workload == "GM"]
    assert gm_rows
    for row in rows:
        if row.workload != "GM":
            assert row.speedup > 0.8
            assert row.error_percent >= 0.0
    assert "Fig. 7" in format_fig7(rows)


def test_fig8_rows_normalized_to_baseline(study):
    rows = fig8_rows(study)
    for row in rows:
        assert 0 < row.normalized_bandwidth <= 1.05
        assert 0 < row.normalized_energy <= 1.1
        assert 0 < row.normalized_edp <= 1.2
    assert "Fig. 8" in format_fig8(rows)


def test_study_geomean_consistency(study):
    speedups = [study.speedup(w, "TSLC-OPT") for w in study.workloads()]
    expected = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    assert study.geomean("speedup", "TSLC-OPT") == pytest.approx(expected)


def test_study_error_reported_for_variants(study):
    for workload in study.workloads():
        assert study.error_percent(workload, "TSLC-OPT") >= 0.0
        # the lossless baseline has no error by construction
        assert study.results[workload]["E2MC"].error_percent == 0.0


# --------------------------------------------------------------------- #
# Fig. 9 / Section V-C


def test_fig9_mag_sweep():
    data = Fig9Study(workloads=("NN",), mags=(32, 64), scale=SCALE).run().data
    rows, studies = data["rows"], data["studies"]
    mags = {row.mag_bytes for row in rows}
    assert mags == {32, 64}
    assert set(studies) == {32, 64}
    assert "Fig. 9" in format_fig9(rows)


def test_effective_ratio_decreases_with_mag():
    ratios = effective_ratio_by_mag(WORKLOADS, scale=SCALE)
    assert ratios[16]["effective"] >= ratios[32]["effective"] >= ratios[64]["effective"]
    raws = [ratios[mag]["raw"] for mag in (16, 32, 64)]
    assert max(raws) - min(raws) < 1e-9  # raw ratio does not depend on MAG
    for mag in (16, 32, 64):
        assert ratios[mag]["effective"] <= ratios[mag]["raw"]
