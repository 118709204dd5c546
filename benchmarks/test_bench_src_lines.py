"""Size of the library: ``src_lines``, tracked like a perf metric.

Counts the lines of every ``src/**/*.py`` file — the number
``find src -name '*.py' | xargs cat | wc -l`` prints — and records it
through ``--bench-record`` as an informational (``gate=False``),
lower-is-better metric.  Code size is no pass/fail signal, but a change
that grows ``src/`` shows it in the trajectory next to whatever it claims.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_bench_src_lines(bench_record):
    """Line count of the library sources."""
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    print(f"\nsrc/: {lines} lines of Python")
    assert lines > 0
    bench_record(
        "src_lines", lines, unit="lines", higher_is_better=False, gate=False
    )
