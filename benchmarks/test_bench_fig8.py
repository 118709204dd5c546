"""EXP-F8 — regenerate Fig. 8 (bandwidth, energy and EDP vs. E2MC)."""

from repro.studies import Fig8Study, format_fig8


def test_bench_fig8_bandwidth_energy_edp(benchmark, slc_scale, slc_workloads):
    """Normalized off-chip traffic, energy and EDP of the TSLC variants."""

    def run():
        return Fig8Study(workloads=slc_workloads, scale=slc_scale).run().data

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows, study = data["rows"], data["study"]
    print()
    print(format_fig8(rows))

    # Paper shape: TSLC reduces traffic, energy and EDP at the geometric mean
    # (the paper reports about -14 %, -8.3 % and -17.5 % respectively).
    assert study.geomean("bandwidth", "TSLC-OPT") < 1.0
    assert study.geomean("energy", "TSLC-OPT") < 1.0
    assert study.geomean("edp", "TSLC-OPT") < 1.0
