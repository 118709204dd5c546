"""EXP-F7 — regenerate Fig. 7 (speedup and error of TSLC vs. E2MC)."""

from repro.studies import Fig7Study, format_fig7


def test_bench_fig7_speedup_and_error(benchmark, slc_scale, slc_workloads):
    """TSLC-SIMP/PRED/OPT vs. the E2MC baseline, 16 B threshold, 32 B MAG."""

    def run():
        return Fig7Study(workloads=slc_workloads, scale=slc_scale).run().data

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows, study = data["rows"], data["study"]
    print()
    print(format_fig7(rows))

    gm_speedup = study.geomean("speedup", "TSLC-OPT")
    # Paper shape: TSLC-OPT is faster than the lossless baseline on average
    # (the paper reports a ~9.7 % geometric-mean speedup).
    assert gm_speedup > 1.0
    # Prediction keeps the error moderate: no benchmark error should explode.
    for row in rows:
        if row.workload != "GM" and row.scheme != "TSLC-SIMP":
            assert row.error_percent < 25.0
