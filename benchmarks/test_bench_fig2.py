"""EXP-F2 — regenerate Fig. 2 (distribution of compressed blocks above MAG)."""

from repro.studies import Fig2Study, format_fig2


def test_bench_fig2_distribution(benchmark, slc_scale, slc_workloads):
    """Heat map of how far above a MAG multiple blocks compress (E2MC)."""

    def run():
        return Fig2Study(workloads=slc_workloads, scale=slc_scale).run().data

    distribution = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_fig2(distribution))

    # Paper shape: a significant share of blocks sits a few bytes above a MAG
    # multiple — the opportunity SLC exploits (16 B threshold).
    fractions = [
        distribution.fraction_within_threshold(name, 16)
        for name in distribution.per_workload
    ]
    assert any(fraction > 0.05 for fraction in fractions)
