"""EXP-T1 — regenerate Table I (frequency, area, power of the SLC hardware)."""

from repro.hardware.synthesis import overhead_summary, table1
from repro.studies import format_table1


def test_bench_table1_hardware(benchmark):
    """Analytic 32 nm synthesis of the TSLC compressor/decompressor."""
    results = benchmark.pedantic(table1, rounds=3, iterations=1)
    print()
    print(format_table1(results))

    summary = overhead_summary()
    # Paper shape: the overhead is a vanishing fraction of a GTX580 and only
    # a few percent of the E2MC hardware it extends.
    assert summary["area_percent_of_gtx580"] < 0.02
    assert summary["power_percent_of_gtx580"] < 0.02
    assert results["decompressor"].area_mm2 < results["compressor"].area_mm2
