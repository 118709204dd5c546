"""EXP-F1 — regenerate Fig. 1 (raw vs. effective compression ratio)."""

from repro.studies import Fig1Study, format_fig1


def test_bench_fig1_compression_ratio(benchmark, slc_scale, slc_workloads):
    """Raw and effective ratios of BDI, FPC, C-PACK and E2MC per benchmark."""

    def run():
        return Fig1Study(workloads=slc_workloads, scale=slc_scale).run().data

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_fig1(rows))

    gm_rows = {row.compressor: row for row in rows if row.workload == "GM"}
    # Paper shape: every scheme loses ratio to MAG; E2MC has the highest raw
    # ratio of the four techniques.
    for row in gm_rows.values():
        assert row.effective_ratio < row.raw_ratio
    assert gm_rows["e2mc"].raw_ratio >= max(
        gm_rows[name].raw_ratio for name in ("bdi", "fpc", "cpack")
    )
